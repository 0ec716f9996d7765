import cmath
import collections
import functools
import math

import numpy as np
import pytest
import sympy as sp

from gshlab import bounds as bd
from gshlab import caratheodory as cara
from gshlab.core import functional, member_from_witness

CFG = bd.ScanConfig(samples=1500, seed=2)

#: The Fekete-Szego parameters of the battery on CFG: the default four and 1j.
FS_LAMS = (0.0, 0.5, 1.0, 2.0, 1j)


@pytest.fixture(scope="module")
def battery():
    """The estimates of the battery on CFG, by functional name, from one witness batch.

    Each is its standalone scan's estimate to the bit
    (``test_default_scan_suite_equals_its_standalone_scans``).
    """
    return {est.functional: est for est in bd.default_scan_suite(CFG, fs_lams=FS_LAMS)}


# -- functional plumbing -------------------------------------------------------


def test_functional_values_on_known_member():
    f = member_from_witness(cara.SchwarzSample.monomial(1), 8)
    c = f.series.coeffs
    assert bd.functional_value("a2", c) == pytest.approx(1.0)
    assert bd.functional_value("h22", c) == pytest.approx(1 / 36)
    assert bd.functional_value("fs", c, lam=1.0) == pytest.approx(0.5)
    assert bd.functional_value("t", c) == pytest.approx(abs(2 / 9 - 0.5))
    with pytest.raises(ValueError):
        bd.functional_value("nope", c)


def test_claimed_bounds():
    assert bd.claimed_bound("a2") == 1.0
    assert bd.claimed_bound("a6") == pytest.approx(0.2)
    assert bd.claimed_bound("h22") == pytest.approx(1 / 36)
    assert bd.claimed_bound("h31") == 0.25
    assert bd.claimed_bound("t") == pytest.approx(1 / 3)
    assert bd.claimed_bound("fs", 2.0) == pytest.approx(1.5)
    assert bd.claimed_bound("fs", 1j) == pytest.approx(0.5 * abs(2j - 1))


# -- the closed-form envelope ---------------------------------------------------


def test_envelope_corner_values():
    assert bd.h22_envelope(2.0, 1.0) == pytest.approx(1 / 36, abs=1e-15)
    assert bd.h22_envelope(0.0, 1.0) == pytest.approx(0.25, abs=1e-15)
    assert bd.h22_envelope(2.0, 0.0) == pytest.approx(1 / 36, abs=1e-15)


C, Y, U, ZETA = sp.symbols("c y u zeta")
ENVELOPE_DOMAIN = {C: (0, 2), Y: (0, 1)}


def _sign_on_domain(expr):
    """Constant sign of a polynomial on the (c, y) rectangle, proved exactly.

    Every irreducible factor must be univariate and free of roots strictly
    inside its interval; the sign is then read at the interval midpoint.
    """
    const, factors = sp.factor_list(sp.expand(expr))
    sign = sp.sign(const)
    for base, mult in factors:
        (var,) = base.free_symbols
        lo, hi = ENVELOPE_DOMAIN[var]
        inside = [r for r in sp.real_roots(sp.Poly(base, var)) if lo < r < hi]
        assert not inside, f"{base} changes sign at {inside}"
        sign *= sp.sign(base.subs(var, sp.Rational(lo + hi, 2))) ** mult
    return sign


@functools.lru_cache(maxsize=None)
def _sympy_envelope():
    """Exact envelope of |a2 a4 - a3^2| over the direct family, from sympy.

    a2..a4 come from z f'/f - 1 = sinh(w), w = (p - 1)/(p + 1), with
    p = 1 + c1 z + c2 z^2 + c3 z^3.  The Libera-Zlotkiewicz c2, c3 are
    substituted with x = y u (|u| = 1), which makes a2 a4 - a3^2 a
    polynomial in u and zeta; the envelope is the sum of the moduli of its
    coefficients.  Returns (envelope E(c, y), its y = 1 section).
    """
    z, c1, c2, c3 = sp.symbols("z c1 c2 c3")
    p = 1 + c1 * z + c2 * z ** 2 + c3 * z ** 3
    w = sp.series((p - 1) / (p + 1), z, 0, 4).removeO()
    dev = sp.expand(w + w ** 3 / 6)
    log_f_over_z = sum(dev.coeff(z, n) / n * z ** n for n in (1, 2, 3))
    f_over_z = sp.expand(sp.series(sp.exp(log_f_over_z), z, 0, 4).removeO())
    a2, a3, a4 = (f_over_z.coeff(z, n) for n in (1, 2, 3))
    gap = 4 - C ** 2
    x, x_bar = Y * U, Y / U
    lz = {c1: C, c2: (C ** 2 + x * gap) / 2,
          c3: (C ** 3 + 2 * gap * C * x - gap * C * x ** 2
               + 2 * gap * (1 - x * x_bar) * ZETA) / 4}
    functional = sp.expand((a2 * a4 - a3 ** 2).subs(lz))
    envelope = sp.expand(sum(_sign_on_domain(coef) * coef
                             for coef in sp.Poly(functional, U, ZETA).coeffs()))
    return envelope, envelope.subs(Y, 1)


def _section_argmax(section):
    """Exact maximizer over [0, 2] of a polynomial in c."""
    crit = [r for r in sp.real_roots(sp.Poly(sp.diff(section, C), C)) if 0 < r < 2]
    return max(crit + [0, 2], key=lambda r: section.subs(C, r))


def test_envelope_global_max_is_interior():
    # the envelope is nondecreasing in y, so its maximum lies on y = 1, whose
    # section (72 - 12c^2 - c^4)/288 peaks at the corner c = 0 with 1/4
    envelope, section = _sympy_envelope()
    assert _sign_on_domain(sp.diff(envelope, Y)) == 1
    assert sp.expand(section - (72 - 12 * C ** 2 - C ** 4) / 288) == 0
    c_star = _section_argmax(section)
    value, (c, y) = bd.h22_envelope_max()
    assert value == pytest.approx(float(section.subs(C, c_star)), abs=1e-9)
    assert c == pytest.approx(float(c_star), abs=1e-4)
    assert y == pytest.approx(1.0, abs=1e-9)


def test_envelope_increasing_in_y():
    cs = np.linspace(0.05, 1.95, 20)
    for c in cs:
        vals = [bd.h22_envelope(c, y) for y in np.linspace(0, 1, 30)]
        assert np.all(np.diff(vals) > -1e-15)


def test_envelope_profile_values():
    _, section = _sympy_envelope()
    prof = bd.h22_envelope_profile()
    for i in (0, 50, 100, 150, 200):
        c = sp.Rational(2 * i, 200)
        assert prof.cs[i] == pytest.approx(float(c), abs=1e-15)
        assert prof.values[i] == pytest.approx(float(section.subs(C, c)), abs=1e-14)
    c_star = _section_argmax(section)
    assert prof.max_value == pytest.approx(float(section.subs(C, c_star)), abs=1e-9)
    assert prof.argmax_c == pytest.approx(float(c_star), abs=1e-4)


def test_envelope_dominates_parametrized_functional():
    # |a2 a4 - a3^2| for the direct parametrization never exceeds the
    # triangle-inequality envelope at (c, |x|), and reaches it at x = y,
    # zeta = -1, where the three terms of the functional are in phase
    def h22(c1, x, z):
        c2, c3 = cara.coeffs_from_witnesses(c1, x, z)
        return abs(c1 ** 4 / 288 - c2 * c1 ** 2 / 48 + c3 * c1 / 12 - c2 ** 2 / 16)

    rng = np.random.default_rng(51)
    for _ in range(500):
        c1 = 2.0 * rng.random()
        y = rng.random()
        x = y * np.exp(2j * np.pi * rng.random())
        z = np.exp(2j * np.pi * rng.random())
        envelope = bd.h22_envelope(c1, y)
        assert h22(c1, x, z) <= envelope + 1e-10
        assert h22(c1, y, -1.0) == pytest.approx(envelope, abs=1e-12)


# -- scans ------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_coefficient_scans_respect_claimed_bounds(n, battery):
    est = battery[f"a{n}"]
    assert est.empirical_max <= est.claimed_bound + CFG.tolerance
    assert est.attained_ratio >= 0.999
    assert not est.violation


def test_conjecture_scan_reports_only(battery):
    est = battery["a6"]
    assert est.claimed_bound == pytest.approx(0.2)
    assert est.empirical_max <= est.claimed_bound + CFG.tolerance


def test_h22_scan_detects_violation(battery):
    est = battery["h22"]
    assert est.empirical_max >= 0.25 - 1e-12
    assert est.violation
    assert est.claimed_bound == pytest.approx(1 / 36)


def test_h31_scan_reports_without_violation(battery):
    est = battery["h31"]
    assert est.empirical_max <= 0.25 + 1e-9
    assert not est.violation


def test_t_and_fs_scans_respect_bounds(battery):
    assert not battery["t"].violation
    for lam in FS_LAMS:
        est = battery[f"fs({lam})"]
        assert est.empirical_max <= est.claimed_bound + CFG.tolerance, lam


def test_scan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bd.scan_coefficient_bound(1, CFG)
    with pytest.raises(ValueError):
        bd.hankel_scan("nope", CFG)
    with pytest.raises(ValueError):
        bd.ScanConfig(samples=0)


# -- reproducibility ----------------------------------------------------------------


def test_estimates_reproducible_from_witness(battery):
    # every reported maximum is the value of its serialized witness, bit for bit
    fs_lam = {f"fs({lam})": lam for lam in FS_LAMS}
    for est in battery.values():
        name = "fs" if est.functional in fs_lam else est.functional
        again = bd.evaluate_witness(est.witness, name, fs_lam.get(est.functional, 1.0))
        assert again == est.empirical_max, est.functional


def test_scan_maxima_monotone_in_budget():
    small = bd.ScanConfig(samples=400, seed=6)
    large = bd.ScanConfig(samples=800, seed=6)
    for n in (2, 4):
        lo = bd.scan_coefficient_bound(n, small).empirical_max
        hi = bd.scan_coefficient_bound(n, large).empirical_max
        assert hi >= lo - 1e-12


def test_witness_batch_prefix_stable_under_budget_growth():
    # sample i comes from (seed, i), so a smaller budget's batch is a prefix
    small_witnesses, small_rows = bd.witness_batch(bd.ScanConfig(samples=300, seed=8), 6)
    witnesses, rows = bd.witness_batch(bd.ScanConfig(samples=600, seed=8), 6)
    assert rows.shape == (600, small_rows.shape[1])
    assert witnesses[:300] == small_witnesses
    assert rows[:300].tobytes() == small_rows.tobytes()


@pytest.mark.parametrize("seed", [8, 9])
def test_witness_batch_at_read_order_is_leading_columns_of_order_32(seed):
    cfg = bd.ScanConfig(samples=600, seed=seed)
    _, narrow = bd.witness_batch(cfg, 6)
    _, wide = bd.witness_batch(cfg, 32)
    assert wide.shape == (600, 33)
    assert narrow.tobytes() == np.ascontiguousarray(wide[:, :7]).tobytes()


@pytest.fixture
def draws(monkeypatch):
    """Witness draws of the batches built while the test runs."""
    drawn = []

    def counted(rng, max_zeros):
        drawn.append(1)
        return cara.sample_schwarz(rng, max_zeros=max_zeros)

    monkeypatch.setattr(bd, "sample_schwarz", counted)
    return drawn


@pytest.fixture
def batches(monkeypatch):
    """(config, order, row shape) of each ``witness_batch`` call while the test runs."""
    calls = []
    build = bd.witness_batch

    def counted(cfg, order):
        witnesses, rows = build(cfg, order)
        calls.append((cfg, order, rows.shape))
        return witnesses, rows

    monkeypatch.setattr(bd, "witness_batch", counted)
    return calls


def test_default_scan_suite_builds_one_batch(draws, batches):
    cfg = bd.ScanConfig(samples=200, seed=3, order=32)
    bd.default_scan_suite(cfg)
    assert len(draws) == 200
    assert batches == [(cfg, 6, (200, 7))]
    assert bd._BATCH_CACHE == {}


def test_wide_battery_builds_one_batch_at_its_highest_coefficient(draws, batches, monkeypatch):
    # the battery of `bounds-scan --coefficients 2..20 --order 32`; the scans
    # are skipped, since they only read the batch they are given
    monkeypatch.setattr(bd, "_scan", lambda name, cfg, witnesses, rows, lam=1.0: None)
    cfg = bd.ScanConfig(samples=100, seed=4, order=32)
    bd.default_scan_suite(cfg, tuple(range(2, 21)))
    assert len(draws) == 100
    assert batches == [(cfg, 20, (100, 21))]


@pytest.mark.parametrize("scan, order", [(lambda cfg: bd.scan_coefficient_bound(2, cfg), 2),
                                         (lambda cfg: bd.scan_coefficient_bound(7, cfg), 7),
                                         (lambda cfg: bd.hankel_scan("fs", cfg, 0.5), 3),
                                         (lambda cfg: bd.hankel_scan("t", cfg), 4),
                                         (lambda cfg: bd.hankel_scan("h31", cfg), 5)],
                         ids=["a2", "a7", "fs", "t", "h31"])
def test_standalone_scan_builds_its_own_batch_at_its_read_order(batches, scan, order):
    cfg = bd.ScanConfig(samples=50, seed=5)
    scan(cfg)
    scan(cfg)
    assert batches == [(cfg, order, (50, order + 1))] * 2
    assert bd._BATCH_CACHE == {}


def test_default_scan_suite_equals_its_standalone_scans():
    # one shared batch at order 6 gives each scan the bits of its own batch
    cfg = bd.ScanConfig(samples=120, seed=12, order=32)
    lams = (0.0, 0.5, 2.0, 1j)
    standalone = [*(bd.scan_coefficient_bound(n, cfg) for n in (2, 3, 4, 5, 6)),
                  *(bd.hankel_scan("fs", cfg, lam) for lam in lams),
                  *(bd.hankel_scan(kind, cfg) for kind in ("t", "h22", "h31"))]
    assert bd.default_scan_suite(cfg, fs_lams=lams) == standalone


@pytest.mark.parametrize("order, coefficients, message", [
    (4, (2, 3), "scan order must be at least 5"),
    (4, (2, 3, 4, 5, 6), "scan order 4 cannot expose a_5"),
    (32, (1,), "n must be >= 2")])
def test_default_scan_suite_checks_before_building_a_batch(draws, order, coefficients, message):
    with pytest.raises(ValueError, match=message):
        bd.default_scan_suite(bd.ScanConfig(samples=20, order=order), coefficients)
    assert draws == []


@pytest.mark.parametrize("scan", [lambda: bd.hankel_scan("h22", CFG),
                                  lambda: bd.scan_coefficient_bound(3, CFG)], ids=["h22", "a3"])
def test_scan_builds_each_witness_once(monkeypatch, scan):
    # the batch, the anchors and the polish of one scan build each
    # (witness bytes, order) once, an anchor met again by the polish included.
    # h22 polishes from the anchor z^2 (four anchors, then polish builds);
    # a3's best is a batch witness without zeros, which is not polished
    builds = []

    def counted(omega, order):
        key = np.array([omega.rotation, *omega.zeros], dtype=np.complex128).tobytes()
        builds.append((key, order))
        return member_from_witness(omega, order)

    monkeypatch.setattr(bd, "member_from_witness", counted)
    scan()
    assert len(builds) >= CFG.samples + 5
    assert max(collections.Counter(builds).values()) == 1


def _fresh_direct_meshgrid():
    cs = np.linspace(0.0, 2.0, bd.DIRECT_C_SAMPLES)
    ys = np.linspace(0.0, 1.0, bd.DIRECT_Y_SAMPLES)
    phases = np.linspace(0.0, 2.0 * np.pi, bd.DIRECT_PHASE_SAMPLES, endpoint=False)
    zs = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False))
    return np.meshgrid(cs, ys, phases, zs, indexing="ij")


@pytest.mark.parametrize("name, lam", [*((name, 1.0) for name in ("a2", "a3", "a4", "t", "h22")),
                                       *(("fs", lam) for lam in (0.0, 0.5, 1.0, 2.0))])
def test_direct_grid_is_a_fresh_meshgrid(monkeypatch, name, lam):
    cc, yy, pp, zz = _fresh_direct_meshgrid()
    fresh = bd._direct_values(name, cc, yy * np.exp(1j * pp), zz, lam)
    axes, coeffs = bd._direct_grid()
    shared = np.abs(functional(name, coeffs, lam))
    assert [a.tobytes() for a in axes] == [a.tobytes() for a in (cc, yy, pp, zz)]
    assert shared.tobytes() == fresh.tobytes()
    # the polish starts from the argmax of the fresh grid
    idx = np.unravel_index(np.argmax(fresh), fresh.shape)
    starts = []

    def start_only(score, x0, bounds, rounds):
        starts.append(x0)
        return x0, score(x0)

    monkeypatch.setattr(bd, "polish_coordinatewise", start_only)
    bd._direct_family_max(name, lam)
    x0 = [cc[idx], yy[idx], pp[idx], cmath.phase(complex(zz[idx])) % (2 * math.pi)]
    assert starts[0].tobytes() == np.array(x0).tobytes()
    for a in (*axes, *coeffs[2:]):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0.0


def test_read_order_rule():
    assert [bd.read_order(f"a{n}") for n in (2, 5, 6, 20)] == [2, 5, 6, 20]
    assert [bd.read_order(name) for name in ("fs", "t", "h22", "h31")] == [3, 4, 4, 5]
    assert bd._DIRECT_FUNCTIONALS == ("a2", "a3", "a4", "fs", "t", "h22")
    with pytest.raises(ValueError, match="unknown functional"):
        bd.read_order("nope")


def test_evaluate_witness_reads_high_coefficients():
    omega = cara.sample_schwarz(np.random.default_rng(21))
    witness = bd.witness_to_json(omega)
    value = bd.evaluate_witness(witness, "a20")
    assert value == abs(member_from_witness(omega, 32).series.coeffs[20])


def test_bound_estimate_json(battery):
    est = battery["a2"]
    obj = est.to_json()
    assert obj["functional"] == "a2"
    assert obj["witness"]["family"] in ("schwarz", "caratheodory")
