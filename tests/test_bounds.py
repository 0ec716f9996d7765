import cmath
import collections
import functools
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from gshlab import bounds as bd
from gshlab import caratheodory as cara
from gshlab.core import functional, member_from_witness, member_rows, read_order

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
    c = f.coeffs
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
    # the y = 1 section of the envelope
    _, section = _sympy_envelope()
    for i in (0, 50, 100, 150, 200):
        c = sp.Rational(2 * i, 200)
        assert bd.h22_envelope(float(c), 1.0) == pytest.approx(float(section.subs(C, c)), abs=1e-14)


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
        bd.scan("a1", CFG)
    with pytest.raises(ValueError):
        bd.scan("nope", CFG)
    with pytest.raises(ValueError):
        bd.ScanConfig(samples=0)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1e-9])
def test_scan_config_rejects_a_tolerance_that_is_not_positive_and_finite(tolerance):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        bd.ScanConfig(tolerance=tolerance)


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
        lo = bd.scan(f"a{n}", small).empirical_max
        hi = bd.scan(f"a{n}", large).empirical_max
        assert hi >= lo - 1e-12


def test_witness_batch_prefix_stable_under_budget_growth():
    # the six anchors, then sample i from (seed, i): a smaller budget's batch,
    # its approximate rows included, is a prefix
    small_witnesses, small_rows = bd.witness_batch(bd.ScanConfig(samples=300, seed=8), 6)
    witnesses, rows = bd.witness_batch(bd.ScanConfig(samples=600, seed=8), 6)
    assert small_rows.shape == (6 + 300, 7)
    assert rows.shape == (6 + 600, 7)
    assert witnesses[:306] == small_witnesses
    assert rows[:306].tobytes() == small_rows.tobytes()


@pytest.mark.parametrize("seed", [8, 9])
def test_witness_batch_at_read_order_is_leading_columns_of_order_32(seed):
    cfg = bd.ScanConfig(samples=600, seed=seed)
    # the batch at order 6 has the anchors z^1..z^6, the one at order 32 z^1..z^32;
    # the approximate rows of the lower order are the leading columns, bit for bit
    _, narrow = bd.witness_batch(cfg, 6)
    _, wide = bd.witness_batch(cfg, 32)
    assert narrow.shape == (6 + 600, 7)
    assert wide.shape == (32 + 600, 33)
    assert narrow.tobytes() == np.concatenate([wide[:6, :7], wide[32:, :7]]).tobytes()


@pytest.mark.parametrize("order", range(2, 9))
def test_witness_batch_leads_with_the_monomial_anchors(order):
    witnesses, rows = bd.witness_batch(bd.ScanConfig(samples=3, seed=1), order)
    anchors = max(5, order)
    assert len(witnesses) == anchors + 3
    assert rows.tobytes() == member_rows(witnesses, order).tobytes()
    for k in range(1, anchors + 1):
        monomial = cara.SchwarzSample.monomial(k)
        assert witnesses[k - 1] == monomial
        exact = member_from_witness(monomial, order).coeffs
        assert np.max(np.abs(rows[k - 1] - exact)) < 1e-15


def _overflowing_witness():
    """The map 1e200 z, which is no Schwarz map: its member's sinh overflows at z^3."""
    omega = cara.SchwarzSample()
    object.__setattr__(omega, "rotation", 1e200)
    return omega


def test_witness_batch_builds_a_non_finite_row_exactly_so_an_overflow_raises(monkeypatch):
    draw, build = cara.sample_schwarz, bd._member_coeffs
    drawn, built = [], []

    def planted(rng, max_zeros):
        drawn.append(1)
        return _overflowing_witness() if len(drawn) == 2 else draw(rng, max_zeros=max_zeros)

    def counted(omega, order):
        built.append(omega.rotation)
        return build(omega, order)

    monkeypatch.setattr(bd, "sample_schwarz", planted)
    monkeypatch.setattr(bd, "_member_coeffs", counted)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="must be finite"):
            bd.witness_batch(bd.ScanConfig(samples=4, seed=1), 6)
    # the non-finite row is the only one built exactly, and its build raises
    assert built == [1e200]


@pytest.mark.parametrize("name, lam", [*(("fs", lam) for lam in (0.0, 0.5, 1.0, 2.0, 1j, -3.0)),
                                       ("t", 1.0), ("h22", 1.0), ("h31", 1.0),
                                       *((f"a{n}", 1.0) for n in range(2, 11))])
def test_an_anchor_beyond_what_a_functional_reads_scores_exactly_0(name, lam):
    # for w = z^k, f/z is a power series in z^k: a_2..a_k are 0, a_(k+1) = 1/k
    order = read_order(name)
    first_zero = order if name.startswith("a") else 5
    values = [bd.functional_value(name, member_from_witness(cara.SchwarzSample.monomial(k),
                                                            order).coeffs, lam)
              for k in range(1, 13)]
    assert values[first_zero - 1:] == [0.0] * (13 - first_zero)
    # an anchor before them scores above 0, so a zero anchor is never the first maximum
    assert max(values[:first_zero - 1]) > 0.0


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
    cfg = bd.ScanConfig(samples=200, seed=3)
    bd.default_scan_suite(cfg)
    assert len(draws) == 200
    assert batches == [(cfg, 6, (6 + 200, 7))]
    assert bd._BATCH_CACHE == {}


def test_wide_battery_builds_one_batch_at_its_highest_coefficient(draws, batches, monkeypatch):
    # the battery of `bounds-scan --coefficients 2..20 --order 32`; the scans
    # are skipped, since they only read the batch they are given
    monkeypatch.setattr(bd, "_scan", lambda *args: None)
    cfg = bd.ScanConfig(samples=100, seed=4)
    bd.default_scan_suite(cfg, tuple(range(2, 21)))
    assert len(draws) == 100
    assert batches == [(cfg, 20, (20 + 100, 21))]


@pytest.mark.parametrize("scan, order", [(lambda cfg: bd.scan("a2", cfg), 2),
                                         (lambda cfg: bd.scan("a7", cfg), 7),
                                         (lambda cfg: bd.scan("fs", cfg, 0.5), 3),
                                         (lambda cfg: bd.scan("t", cfg), 4),
                                         (lambda cfg: bd.scan("h31", cfg), 5)],
                         ids=["a2", "a7", "fs", "t", "h31"])
def test_standalone_scan_builds_its_own_batch_at_its_read_order(batches, scan, order):
    cfg = bd.ScanConfig(samples=50, seed=5)
    scan(cfg)
    scan(cfg)
    assert batches == [(cfg, order, (max(5, order) + 50, order + 1))] * 2
    assert bd._BATCH_CACHE == {}


def test_default_scan_suite_equals_its_standalone_scans():
    # one shared batch at order 6 gives each scan the bits of its own batch
    cfg = bd.ScanConfig(samples=120, seed=12)
    lams = (0.0, 0.5, 2.0, 1j)
    standalone = [*(bd.scan(f"a{n}", cfg) for n in (2, 3, 4, 5, 6)),
                  *(bd.scan("fs", cfg, lam) for lam in lams),
                  *(bd.scan(kind, cfg) for kind in ("t", "h22", "h31"))]
    assert bd.default_scan_suite(cfg, fs_lams=lams) == standalone


def test_default_scan_suite_checks_before_building_a_batch(draws):
    with pytest.raises(ValueError, match="n must be >= 2"):
        bd.default_scan_suite(bd.ScanConfig(samples=20), (1,))
    assert draws == []


@pytest.mark.parametrize("reader", [read_order, bd.claimed_bound,
                                    lambda name: bd.scan(name, bd.ScanConfig(samples=20))],
                         ids=["read_order", "claimed_bound", "scan"])
@pytest.mark.parametrize("name, message", [("a0", "n must be >= 2, got 'a0'"),
                                           ("a1", "n must be >= 2, got 'a1'"),
                                           ("nope", "unknown functional 'nope'")])
def test_names_are_rejected_before_any_batch_is_built(draws, reader, name, message):
    # read_order is the one check of a name: a0 and a1 are not functionals
    with pytest.raises(ValueError, match=message):
        reader(name)
    assert draws == []


def _member_key(omega, order):
    """The key of the scans' member table: the order, then the witness as Python complex numbers."""
    return (order, complex(omega.rotation), *map(complex, omega.zeros))


@pytest.fixture
def builds(monkeypatch):
    """The member table key of each member built by ``bounds`` while the test runs."""
    built = []

    def counted(omega, order):
        built.append(_member_key(omega, order))
        return member_from_witness(omega, order)

    monkeypatch.setattr(bd, "member_from_witness", counted)
    return built


@pytest.mark.parametrize("scan", [lambda: bd.scan("h22", CFG),
                                  lambda: bd.scan("a3", CFG)], ids=["h22", "a3"])
def test_scan_builds_each_witness_once(builds, scan):
    # the sieve and the polish of one scan build each (order, witness) once,
    # the best witness met again by the polish included.  h22 polishes from
    # the anchor z^2; a3's best is a batch witness without zeros, which is
    # not polished, and the sieve builds every zero-free row, since each
    # ties it to within an ulp.  No scan builds the whole batch.
    scan()
    assert 0 < len(builds) < CFG.samples
    assert max(collections.Counter(builds).values()) == 1


def test_a_battery_builds_each_member_and_each_direct_point_once(builds, monkeypatch):
    points = []
    direct = bd._direct_coeffs

    def counted(c1, x, z):
        if np.ndim(c1) == 0:  # a polish point, not the grid
            points.append(np.array([c1, x, z], dtype=np.complex128).tobytes())
        return direct(c1, x, z)

    monkeypatch.setattr(bd, "_direct_coeffs", counted)
    cfg = bd.ScanConfig(samples=300, seed=14)
    bd.default_scan_suite(cfg, fs_lams=(0.0, 0.5, 1.0, 2.0, 1j))
    # fs(0) and a3 polish the same members, and fs(0), fs(0.5) and fs(1) the same points
    assert max(collections.Counter(builds).values()) == 1
    assert max(collections.Counter(points).values()) == 1


#: Every functional, with real and complex Fekete-Szego parameters.
_SIEVE_FUNCTIONALS = [*((f"a{n}", 1.0) for n in range(2, 9)),
                      *(("fs", lam) for lam in (0.0, 0.5, 1.0, 2.0, -1.0, 3.0, 1j, 0.25 - 3j)),
                      ("t", 1.0), ("h22", 1.0), ("h31", 1.0)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), samples=st.integers(1, 12),
       plants=st.lists(st.tuples(st.sampled_from(["duplicate", "zero-free", "anchor"]),
                                 st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)), max_size=10))
def test_the_sieve_picks_the_dense_first_argmax(seed, samples, plants):
    # planted ties: copies of earlier rows, zero-free rows (each ties a2, a3
    # and fs to within an ulp) and anchors, some with zeros at -0.0
    rng = np.random.default_rng(seed)
    witnesses = [cara.SchwarzSample.monomial(k) for k in range(1, 9)]
    witnesses += [cara.sample_schwarz(rng) for _ in range(samples)]
    for kind, at, pick in plants:
        if kind == "duplicate":
            omega = witnesses[pick % len(witnesses)]
            new = cara.SchwarzSample(rotation=omega.rotation, zeros=omega.zeros)
        elif kind == "zero-free":
            new = cara.SchwarzSample(rotation=cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        else:
            zero = (0.0, -0.0, complex(-0.0, -0.0))[pick % 3]
            new = cara.SchwarzSample(rotation=1.0, zeros=(zero,) * (pick % 8))
        witnesses.insert(at % (len(witnesses) + 1), new)
    rows = member_rows(witnesses, 8)
    members = {}
    for name, lam in _SIEVE_FUNCTIONALS:
        order = read_order(name)
        dense = [bd.functional_value(name, member_from_witness(omega, order).coeffs, lam)
                 for omega in witnesses]
        picked = []
        with pytest.MonkeyPatch.context() as mp:
            # no polish and no direct family: the estimate is the batch's best
            mp.setattr(bd, "_schwarz_params",
                       lambda omega: picked.append(omega) or (np.zeros(1), [(0.0, 1.0)]))
            mp.setattr(bd, "_direct_family_max", lambda *args: (-math.inf, None))
            est = bd._scan(name, CFG, witnesses, rows, members, {}, lam)
        j = int(np.argmax(dense))
        assert len(picked) == 1 and picked[0] is witnesses[j], (name, lam)
        assert est.empirical_max == dense[j], (name, lam)


def _polish_witness_with_numpy_scalars(params):
    """The rotation and zeros of a polish point with numpy scalar arithmetic (the oracle)."""
    zeros = tuple(params[k] * cmath.exp(1j * params[k + 1]) for k in range(1, len(params), 2))
    return cmath.exp(1j * params[0]), zeros


def test_polish_witness_keys_equal_the_numpy_scalar_route():
    rng = np.random.default_rng(71)
    for count in range(5):
        for _ in range(200):
            params = rng.uniform(0.0, 2.0 * math.pi, 1 + 2 * count)
            params[1::2] = rng.uniform(0.0, cara.ZERO_MODULUS_CAP, count)
            params[1::2][rng.random(count) < 0.3] = 0.0
            rotation, zeros = bd._polish_witness(params)
            want = _polish_witness_with_numpy_scalars(params)
            assert (rotation, *zeros) == (want[0], *want[1]), params
    # a zero at the origin: its phase sets only the signs of its real and
    # imaginary parts, both 0.0, so the polish's whole sweep of that phase
    # is one key of the member table
    phases = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False) + 0.01
    witnesses = [cara.SchwarzSample(*bd._polish_witness(np.array([0.5, 0.0, t]))) for t in phases]
    assert len({(math.copysign(1, b.real), math.copysign(1, b.imag))
                for omega in witnesses for b in omega.zeros}) > 1
    assert len({_member_key(omega, 4) for omega in witnesses}) == 1


def _signed_zero_twins(rng, count):
    """Pairs of witnesses equal but for the signs of their zero real and imaginary parts."""
    def flip(z):
        def part(x):
            return math.copysign(0.0, rng.choice([-1.0, 1.0])) if x == 0 else x
        return complex(part(z.real), part(z.imag))

    for _ in range(count):
        rotation = complex(rng.choice([cmath.exp(1j * rng.uniform(0, 7)), 1, 1j, -1, -1j]))
        zeros = []
        for _ in range(rng.integers(0, 5)):
            b = 0.7 * rng.random() * cmath.exp(1j * rng.uniform(0, 7))
            zeros.append(rng.choice([b, complex(b.real, 0.0), complex(0.0, b.imag), 0j]))
        yield (cara.SchwarzSample(rotation=rotation, zeros=tuple(map(complex, zeros))),
               cara.SchwarzSample(rotation=flip(rotation), zeros=tuple(map(flip, map(complex, zeros)))))


def test_witnesses_that_differ_in_signs_of_zeros_give_one_modulus():
    # the member table keys them alike; every |functional| has the same bits
    rng = np.random.default_rng(72)
    lams = (0.0, 0.5, 1.0, 2.0, -1.0, 1j, 0.25 - 3j)
    for omega, twin in _signed_zero_twins(rng, 150):
        assert _member_key(omega, 6) == _member_key(twin, 6)
        for order in range(2, 9):
            a, b = (member_from_witness(w, order).coeffs for w in (omega, twin))
            names = [f"a{n}" for n in range(2, order + 1)]
            names += [name for name in ("t", "h22", "h31") if read_order(name) <= order]
            for name in names:
                assert bd.functional_value(name, a) == bd.functional_value(name, b), name
            for lam in lams if order >= 3 else ():
                assert bd.functional_value("fs", a, lam) == bd.functional_value("fs", b, lam)


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
    bd._direct_family_max(name, lam, {})
    x0 = [cc[idx], yy[idx], pp[idx], cmath.phase(complex(zz[idx])) % (2 * math.pi)]
    assert starts[0].tobytes() == np.array(x0).tobytes()
    for a in (*axes, *coeffs[2:]):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0.0


def test_read_order_rule():
    assert [read_order(f"a{n}") for n in (2, 5, 6, 20)] == [2, 5, 6, 20]
    assert [read_order(name) for name in ("fs", "t", "h22", "h31")] == [3, 4, 4, 5]
    assert bd._DIRECT_FUNCTIONALS == ("a2", "a3", "a4", "fs", "t", "h22")
    # the one parser of names: every reader of a name rejects an unknown one alike
    for reader in (read_order, functools.partial(functional, a=np.ones(6)), bd.claimed_bound):
        with pytest.raises(ValueError, match="unknown functional"):
            reader("nope")


def test_evaluate_witness_reads_high_coefficients():
    omega = cara.sample_schwarz(np.random.default_rng(21))
    witness = bd.witness_to_json(omega)
    value = bd.evaluate_witness(witness, "a20")
    assert value == abs(member_from_witness(omega, 32).coeffs[20])


def test_bound_estimate_json(battery):
    est = battery["a2"]
    obj = est.to_json()
    assert obj["functional"] == "a2"
    assert obj["witness"]["family"] in ("schwarz", "caratheodory")
