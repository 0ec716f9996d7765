import functools

import numpy as np
import pytest
import sympy as sp

from gshlab import bounds as bd
from gshlab import caratheodory as cara
from gshlab.core import member_from_witness

CFG = bd.ScanConfig(samples=1500, seed=2)


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
def test_coefficient_scans_respect_claimed_bounds(n):
    est = bd.scan_coefficient_bound(n, CFG)
    assert est.empirical_max <= est.claimed_bound + CFG.tolerance
    assert est.attained_ratio >= 0.999
    assert not est.violation


def test_conjecture_scan_reports_only():
    est = bd.scan_coefficient_bound(6, CFG)
    assert est.claimed_bound == pytest.approx(0.2)
    assert est.empirical_max <= est.claimed_bound + CFG.tolerance


def test_h22_scan_detects_violation():
    est = bd.hankel_scan("h22", CFG)
    assert est.empirical_max >= 0.25 - 1e-12
    assert est.violation
    assert est.claimed_bound == pytest.approx(1 / 36)


def test_h31_scan_reports_without_violation():
    est = bd.hankel_scan("h31", CFG)
    assert est.empirical_max <= 0.25 + 1e-9
    assert not est.violation


def test_t_and_fs_scans_respect_bounds():
    assert not bd.hankel_scan("t", CFG).violation
    for lam in (0.0, 0.5, 1.0, 2.0, 1j):
        est = bd.hankel_scan("fs", CFG, lam=lam)
        assert est.empirical_max <= est.claimed_bound + CFG.tolerance, lam


def test_scan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bd.scan_coefficient_bound(1, CFG)
    with pytest.raises(ValueError):
        bd.hankel_scan("nope", CFG)
    with pytest.raises(ValueError):
        bd.ScanConfig(samples=0)


# -- reproducibility ----------------------------------------------------------------


def test_estimates_reproducible_from_witness():
    # every reported maximum is the value of its serialized witness, bit for bit
    lams = (0.0, 0.5, 1.0, 2.0)
    fs_lam = {f"fs({lam})": lam for lam in lams}
    for est in bd.default_scan_suite(CFG, fs_lams=lams):
        name = "fs" if est.functional in fs_lam else est.functional
        again = bd.evaluate_witness(est.witness, name, fs_lam.get(est.functional, 1.0),
                                    order=CFG.order)
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
    bd._BATCH_CACHE.clear()
    small_witnesses, small_rows = bd.witness_batch(bd.ScanConfig(samples=300, seed=8))
    witnesses, rows = bd.witness_batch(bd.ScanConfig(samples=600, seed=8))
    assert rows.shape == (600, small_rows.shape[1])
    assert witnesses[:300] == small_witnesses
    assert rows[:300].tobytes() == small_rows.tobytes()


def test_bound_estimate_json():
    est = bd.scan_coefficient_bound(2, CFG)
    obj = est.to_json()
    assert obj["functional"] == "a2"
    assert obj["witness"]["family"] in ("schwarz", "caratheodory")
