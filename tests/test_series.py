import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from gshlab import series as ts
from gshlab.caratheodory import SchwarzSample, sample_schwarz
from gshlab.core import member_from_witness


def series(coeffs, order=None):
    return ts.TruncatedSeries(coeffs, order=order)


def max_diff(a, b):
    n = min(a.order, b.order)
    return float(np.max(np.abs(a.coeffs[: n + 1] - b.coeffs[: n + 1])))


# -- construction and invariants -------------------------------------------


def test_rejects_nonfinite_coefficients():
    with pytest.raises(ValueError):
        series([1.0, float("nan")])
    with pytest.raises(ValueError):
        series([1.0, complex(0, float("inf"))])


def test_order_padding_and_truncation():
    s = series([1, 2], order=4)
    assert s.order == 4
    assert s[4] == 0
    t = series([1, 2, 3, 4], order=1)
    assert t.order == 1 and t[1] == 2


def test_binary_ops_use_min_order():
    a = series([1, 1, 1], order=6)
    b = series([1, 1], order=3)
    assert (a + b).order == 3
    assert ts.mul(a, b).order == 3
    assert ts.div(a, b).order == 3


def test_coefficients_are_read_only():
    s = series([1, 2, 3])
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0


def test_truncation_consistency_of_products():
    # coefficient k depends only on coefficients 0..k of the operands
    a = series([1, 2, 3, 4, 5])
    b = series([2, 1, 0, 1, 3])
    a_perturbed = series([1, 2, 3, 9, 9])
    full = ts.mul(a, b)
    pert = ts.mul(a_perturbed, b)
    assert np.allclose(full.coeffs[:3], pert.coeffs[:3])


# -- mul --------------------------------------------------------------------


def test_mul_difference_of_squares():
    prod = ts.mul(series([1, 1], order=4), series([1, -1], order=4))
    assert np.allclose(prod.coeffs, [1, 0, -1, 0, 0])


def test_mul_monomials():
    prod = ts.mul(ts.monomial(1, 4), ts.monomial(1, 4))
    assert np.allclose(prod.coeffs, [0, 0, 1, 0, 0])


def test_mul_telescoping():
    ones = series(np.ones(9))
    prod = ts.mul(ones, series([1, -1], order=8))
    expected = np.zeros(9)
    expected[0] = 1.0
    assert np.allclose(prod.coeffs, expected)


# -- div --------------------------------------------------------------------


def test_div_geometric_expansion():
    q = ts.div(series([1, 1], order=6), series([1, -1], order=6))
    assert np.allclose(q.coeffs, [1, 2, 2, 2, 2, 2, 2])


def test_div_self_is_one():
    s = series([0.3 + 0.1j, 1, -2, 0.5], order=8)
    q = ts.div(s, s)
    expected = np.zeros(9, dtype=complex)
    expected[0] = 1.0
    assert np.allclose(q.coeffs, expected, atol=1e-14)


def test_div_ratio_of_extremal_member_is_shifted_sinh():
    f = member_from_witness(SchwarzSample.monomial(1), 20)
    g = ts.shift_down(f.series)
    num = g + ts.shift_up(ts.derivative(g)).truncate(g.order)
    ratio = ts.div(num, g)
    expected = np.zeros(ratio.order + 1, dtype=complex)
    expected[0] = 1.0
    for k in range(1, ratio.order + 1, 2):
        expected[k] = 1.0 / math.factorial(k)
    assert np.max(np.abs(ratio.coeffs - expected)) < 1e-12


def test_div_near_zero_constant_raises():
    with pytest.raises(ts.NearZeroConstantTerm):
        ts.div(series([1, 1]), series([1e-15, 1]))


def test_div_mul_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = series(rng.normal(size=8) + 1j * rng.normal(size=8))
        b_coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
        b_coeffs[0] = 1.0 + rng.random()
        b = series(b_coeffs)
        back = ts.mul(ts.div(a, b), b)
        scale = max(1.0, float(np.max(np.abs(a.coeffs))))
        assert max_diff(back, a) / scale < 1e-12


# -- compose ----------------------------------------------------------------


def test_compose_sinh_with_z_is_maclaurin():
    sinh_series = ts.sinh(ts.identity(6))
    out = ts.compose(sinh_series, ts.identity(6))
    assert np.allclose(out.coeffs,
                       [0, 1, 0, 1 / 6, 0, 1 / 120, 0], atol=1e-15)


def test_compose_sinh_target_with_half_plane_kernel():
    # (1 + sinh) composed with (k - 1)/(k + 1) where k = (1 + z)/(1 - z):
    # coefficients 1, 1, 0, 1/6 as for the shifted sinh expansion
    order = 8
    k = ts.div(series([1, 1], order=order), series([1, -1], order=order))
    one = ts.constant(1.0, order)
    inner = ts.div(k - one, k + one)
    outer = one + ts.sinh(ts.identity(order))
    out = ts.compose(outer, inner)
    assert abs(out[0] - 1.0) < 1e-14
    assert abs(out[1] - 1.0) < 1e-14
    assert abs(out[2]) < 1e-14
    assert abs(out[3] - 1 / 6) < 1e-14


def test_compose_with_zero_series():
    exp_series = ts.exp(ts.identity(6))
    out = ts.compose(exp_series, ts.constant(0.0, 6))
    assert np.allclose(out.coeffs, [1, 0, 0, 0, 0, 0, 0])


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(ts.NonzeroInnerConstant):
        ts.compose(series([1, 1, 1]), series([0.5, 1, 0]))


def _horner_with_series(outer, inner):
    """Composition as a Horner loop over series objects (mul, then + constant)."""
    n = min(outer.order, inner.order)
    inner_t = inner.truncate(n)
    acc = ts.constant(outer.coeffs[n], n)
    for k in range(n - 1, -1, -1):
        acc = ts.mul(acc, inner_t) + outer.coeffs[k]
    return acc


def _maclaurin_table(kind, order):
    """Coefficients 1/k! of exp (sinh: odd k only), by successive division."""
    out = np.zeros(order + 1, dtype=np.complex128)
    inv_fact = 1.0
    for k in range(order + 1):
        if kind == "exp" or k % 2:
            out[k] = inv_fact
        inv_fact /= k + 1
    return ts.TruncatedSeries(out)


def _schwarz_witnesses(count, seed):
    return [sample_schwarz(np.random.default_rng((seed, i))) for i in range(count)]


@pytest.mark.parametrize("order", [8, 16, 32])
def test_compose_is_bitwise_the_series_horner_loop(order):
    for omega in _schwarz_witnesses(12, order):
        w = omega.series(order)
        inner = ts.integrate_over_t(ts.sinh(w))
        for kind, s in (("sinh", w), ("exp", inner), ("exp", w)):
            got = getattr(ts, kind)(s)
            want = _horner_with_series(_maclaurin_table(kind, s.order), s)
            assert got.coeffs.tobytes() == want.coeffs.tobytes(), (kind, omega)


@pytest.mark.parametrize("kind", ["exp", "sinh"])
def test_exp_and_sinh_reject_nonzero_constant(kind):
    # members only need maps of series with constant term exactly 0
    for c0 in (0.25j, 1.0, 1e-300):
        with pytest.raises(ts.NonzeroInnerConstant):
            getattr(ts, kind)(series([c0, 1.0, 0.5], order=6))


def test_member_is_bitwise_truncation_consistent():
    # The bound scans build members only up to the power their functional
    # reads (a_2 reads order 2, fs order 3); that is exact only because of
    # this property.  The monomials z^1..z^7 are the scans' anchors.
    monomials = [SchwarzSample.monomial(k) for k in range(1, 8)]
    for omega in [*_schwarz_witnesses(40, 5), *monomials]:
        full = member_from_witness(omega, 32).series.coeffs
        for m in range(1, 9):
            low = member_from_witness(omega, m).series.coeffs
            assert low.tobytes() == full[: m + 1].tobytes(), (m, omega)


def _oracle_member(omega, order):
    """a_0..a_order of the member of ``omega``, in mpmath at 50 digits.

    Independent of the float route: each Blaschke factor from its closed
    form -b + (1 - |b|^2) sum_k conj(b)^(k-1) z^k, sinh w (with cosh w) from
    n s_n = sum k w_k c_(n-k), n c_n = sum k w_k s_(n-k), and g = exp(h),
    h = integral of s(t)/t, from n g_n = sum k h_k g_(n-k).
    """
    with mp.workdps(50):
        w = [mp.mpc(complex(omega.rotation))] + [mp.mpc(0)] * order
        for b in omega.zeros:
            b = mp.mpc(complex(b))
            factor = [-b] + [(1 - abs(b) ** 2) * mp.conj(b) ** (k - 1) for k in range(1, order + 1)]
            w = [mp.fsum(w[i] * factor[k - i] for i in range(k + 1)) for k in range(order + 1)]
        w = [mp.mpc(0)] + w[:order]
        s = [mp.mpc(0)] * (order + 1)
        c = [mp.mpc(1)] + [mp.mpc(0)] * order
        for n in range(1, order + 1):
            s[n] = mp.fsum(k * w[k] * c[n - k] for k in range(1, n + 1)) / n
            c[n] = mp.fsum(k * w[k] * s[n - k] for k in range(1, n + 1)) / n
        h = [mp.mpc(0)] + [s[k] / k for k in range(1, order + 1)]
        g = [mp.mpc(1)] + [mp.mpc(0)] * order
        for n in range(1, order + 1):
            g[n] = mp.fsum(k * h[k] * g[n - k] for k in range(1, n + 1)) / n
        return [mp.mpc(0)] + g[:order]


@pytest.mark.parametrize("order", [8, 32])
def test_member_matches_mpmath_oracle(order):
    witnesses = _schwarz_witnesses(20, 1234) + [SchwarzSample.monomial(k) for k in range(1, 6)]
    for omega in witnesses:
        got = member_from_witness(omega, order).series.coeffs
        want = _oracle_member(omega, order)
        for n, (g, v) in enumerate(zip(got, want)):
            assert abs(mp.mpc(complex(g)) - v) <= 1e-13 * abs(v), (n, omega)


def test_exp_of_overflowing_series_raises():
    with pytest.raises(ValueError, match="finite"):
        ts.exp(series([0.0, 1e200], order=8))
    with pytest.raises(ValueError, match="finite"):
        ts.exp(series([0.0, 1e40], order=16))


def test_member_rejects_overflow_in_the_top_exp_coefficient():
    # for this w, exp(integral of sinh(w(t))/t) is [1, 1.5e154, inf]: only the
    # coefficient that the shift by z drops overflows, and the member is
    # still rejected, as when every step built a checked series
    w = series([0.0, 1.5e154, 1.7e308])
    with np.errstate(over="ignore"):
        g = ts.exp_coeffs(ts.integrate_coeffs(ts.sinh_coeffs(w.coeffs)))
        assert np.isfinite(g[:2]).all() and not np.isfinite(g[2])
        with pytest.raises(ValueError, match="finite"):
            member_from_witness(w, 2)


# -- exp and sinh -------------------------------------------------------------


def test_exp_maclaurin():
    out = ts.exp(ts.identity(4))
    assert np.allclose(out.coeffs, [1, 1, 0.5, 1 / 6, 1 / 24])


complex_coeff = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                   allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(complex_coeff, min_size=2, max_size=8),
       st.lists(complex_coeff, min_size=2, max_size=8))
def test_compose_associativity(u_coeffs, v_coeffs):
    order = 8
    u = series(u_coeffs, order=order)
    v = series([0] + v_coeffs[1:], order=order)
    w = series([0, 0.5, -0.25], order=order)
    left = ts.compose(ts.compose(u, v), w)
    right = ts.compose(u, ts.compose(v, w))
    assert max_diff(left, right) < 1e-10


@settings(max_examples=100, deadline=None)
@given(st.lists(complex_coeff, min_size=2, max_size=8),
       st.lists(complex_coeff, min_size=2, max_size=8))
def test_derivative_product_rule(a_coeffs, b_coeffs):
    a = series(a_coeffs, order=8)
    b = series(b_coeffs, order=8)
    lhs = ts.derivative(ts.mul(a, b))
    rhs = ts.mul(ts.derivative(a), b) + ts.mul(a, ts.derivative(b))
    assert max_diff(lhs, rhs) < 1e-11


@settings(max_examples=100, deadline=None)
@given(st.lists(complex_coeff, min_size=1, max_size=8))
def test_hyperbolic_pythagoras(tail):
    # the defining identity 2 sinh s = exp s - exp(-s)
    s = series([0] + tail, order=10)
    diff = 2.0 * ts.sinh(s) - (ts.exp(s) - ts.exp(-1.0 * s))
    assert np.max(np.abs(diff.coeffs)) < 1e-11


# -- integrate_over_t --------------------------------------------------------


def test_integrate_ratio_linear():
    out = ts.integrate_over_t(series([0, 1], order=4))
    assert np.allclose(out.coeffs, [0, 1, 0, 0, 0])


def test_integrate_ratio_sinh_gives_shi_series():
    out = ts.integrate_over_t(ts.sinh(ts.identity(6)))
    assert np.allclose(out.coeffs, [0, 1, 0, 1 / 18, 0, 1 / 600, 0], atol=1e-16)


def test_integrate_ratio_constant_one():
    # the integrand of the identity member, sinh(0)/t, integrates to zero
    out = ts.integrate_over_t(ts.constant(0.0, 5))
    assert np.allclose(out.coeffs, 0.0)


def test_integrate_ratio_requires_unit_constant():
    # s(t)/t has a pole at 0 unless s[0] is exactly zero
    for c0 in (1e-13, 1.0):
        with pytest.raises(ts.NonzeroInnerConstant):
            ts.integrate_over_t(series([c0, 1]))


# -- evaluate ----------------------------------------------------------------


def test_evaluate_affine():
    assert ts.evaluate(series([1, 1]), 0.5) == pytest.approx(1.5)


def test_evaluate_at_zero_gives_constant():
    s = series([2.5 - 1j, 3, 4])
    assert ts.evaluate(s, 0.0) == pytest.approx(2.5 - 1j)


def test_evaluate_extremal_member_against_quadrature():
    # independent oracle: 0.5 * exp(integral of sinh(t)/t from 0 to 0.5)
    shi_half, _ = quad(lambda t: math.sinh(t) / t if t else 1.0, 0.0, 0.5,
                       epsabs=1e-13, epsrel=1e-13)
    expected = 0.5 * math.exp(shi_half)
    f = member_from_witness(SchwarzSample.monomial(1), 40)
    assert abs(ts.evaluate(f.series, 0.5) - expected) < 1e-12
    assert expected == pytest.approx(0.8301487057042349, abs=1e-12)


def test_evaluate_vectorized():
    s = series([0, 1, 1])
    z = np.array([0.1, 0.2 + 0.1j])
    assert np.allclose(ts.evaluate(s, z), z + z * z)


def bits(a):
    """The raw bits of a complex or real array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=150, deadline=None)
@given(order=st.integers(1, 64), top=st.floats(0.0, 150.0), seed=st.integers(0, 2 ** 32 - 1))
def test_horner_matches_polyval_bit_for_bit(order, top, seed):
    # np.polyval takes the top power first, evaluate_coeffs the constant term first
    rng = np.random.default_rng(seed)
    mods = 10.0 ** rng.uniform(-top, top, (order, 2))
    lanes = mods * np.exp(2j * np.pi * rng.random((order, 2)))
    lanes[rng.random((order, 2)) < 0.2] = 0.0
    zs = np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
    zs[:4] = [0.0, -0.5, 0.75j, -1.0]
    reals = zs.real.copy()
    for c in lanes.T:
        # grid arrays, complex and real
        assert np.array_equal(bits(ts.evaluate_coeffs(c, zs)), bits(np.polyval(c[::-1], zs)))
        assert np.array_equal(bits(ts.evaluate_coeffs(c, reals)),
                              bits(np.polyval(c[::-1], reals)))
    for z in zs[:12]:
        one = np.array([z])
        want = [np.polyval(c[::-1], one) for c in lanes.T]
        # one-element arrays, one lane and two lanes
        assert np.array_equal(bits(ts.evaluate_coeffs(lanes[:, 0], one)), bits(want[0]))
        assert np.array_equal(bits(ts.evaluate_coeffs(lanes, z)), bits(np.concatenate(want)))
    both = np.stack([np.polyval(c[::-1], zs) for c in lanes.T], axis=1)
    assert np.array_equal(bits(ts.evaluate_coeffs(lanes, zs[:, None])), bits(both))
    # the series wrapper on an array
    s = ts.TruncatedSeries(lanes[:, 0])
    assert np.array_equal(bits(ts.evaluate(s, zs)), bits(np.polyval(s.coeffs[::-1], zs)))


# -- derivative ---------------------------------------------------------------


def test_derivative_monomial():
    out = ts.derivative(ts.monomial(2, 4))
    assert np.allclose(out.coeffs, [0, 2, 0, 0])


def test_derivative_constant_is_zero():
    out = ts.derivative(ts.constant(3.0, 0))
    assert np.allclose(out.coeffs, [0.0])


def test_log_derivative_of_extremal_member(f0):
    # z f'/f matches 1 + sinh z coefficientwise
    g = ts.shift_down(f0.series)
    ratio = ts.div(g + ts.shift_up(ts.derivative(g)).truncate(g.order), g)
    expected = np.zeros(ratio.order + 1, dtype=complex)
    expected[0] = 1.0
    for k in range(1, ratio.order + 1, 2):
        expected[k] = 1.0 / math.factorial(k)
    assert np.max(np.abs(ratio.coeffs - expected)) < 1e-12


# -- serialization -------------------------------------------------------------


def test_pairs_round_trip():
    s = series([1 + 2j, -0.5, 0.25j])
    back = ts.from_pairs(ts.to_pairs(s))
    assert max_diff(back, s) == 0.0
