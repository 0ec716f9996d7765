import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from gshlab import caratheodory as cara
from gshlab import core
from gshlab import series as ts
from gshlab.caratheodory import SchwarzSample
from gshlab.refine import polish_coordinatewise


def rational_extremal_coefficient(n: int) -> Fraction:
    """Independent oracle: a_n of the witness w = z^(n-1) member, exactly.

    Expands exp(u) with u = sum_k z^((n-1)(2k+1)) / ((2k+1)! (2k+1)(n-1))
    in rational arithmetic and reads off the coefficient of z^(n-1),
    which is the power carrying a_n after the shift by one.
    """
    m = n - 1
    u = {}
    k = 0
    while m * (2 * k + 1) <= m:
        power = m * (2 * k + 1)
        u[power] = Fraction(1, math.factorial(2 * k + 1) * power)
        k += 1
    # exp(u) up to power m; only the linear term can contribute at power m
    return u.get(m, Fraction(0))


# -- construction -------------------------------------------------------------


def test_extremal_member_initial_coefficients(f0):
    assert abs(f0.coeff(2) - 1.0) < 1e-14
    assert abs(f0.coeff(3) - 0.5) < 1e-14
    assert abs(f0.coeff(4) - 2.0 / 9.0) < 1e-14
    assert abs(f0.coeff(5) - 7.0 / 72.0) < 1e-14


def test_zero_witness_gives_identity():
    f = core.member_from_witness(ts.constant(0.0, 12), 12)
    assert np.allclose(f.coeffs, ts.monomial(1, 12))


def test_square_witness_coefficients():
    f = core.member_from_witness(SchwarzSample.monomial(2), 12)
    got = [f.coeff(n) for n in (2, 3, 4, 5)]
    assert np.allclose(got, [0.0, 0.5, 0.0, 0.125], atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_extremal_fn_attains_reciprocal(n):
    f = core.member_from_witness(SchwarzSample.monomial(n - 1), 16)
    expected = float(Fraction(1, n - 1))
    assert abs(f.coeff(n) - expected) < 1e-15
    for k in range(2, n):
        assert abs(f.coeff(k)) < 1e-15


def test_extremal_fn_matches_rational_oracle():
    for n in range(2, 6):
        f = core.member_from_witness(SchwarzSample.monomial(n - 1), 12)
        assert abs(f.coeff(n) - float(rational_extremal_coefficient(n))) < 1e-15


def test_witness_round_trip_200_samples():
    # z f'/f - 1 = sinh(w) pointwise on |z| = 0.3, where the order-24 tail is negligible
    rng = np.random.default_rng(3)
    z = 0.3 * np.exp(2j * np.pi * np.arange(32) / 32)
    for _ in range(200):
        omega = cara.sample_schwarz(rng)
        f = core.member_from_witness(omega, 24)
        assert np.max(np.abs(f.ratio_values(z) - 1.0 - np.sinh(omega.values(z)))) < 1e-10


def _row_witnesses():
    """The anchors z^1..z^33 and random witnesses with 0..4 zeros, in a mixed order."""
    rng = np.random.default_rng(44)
    witnesses = [SchwarzSample.monomial(k) for k in range(1, 34)]
    for count in range(5):
        witnesses += [cara.sample_schwarz(rng, max_zeros=4) for _ in range(20)]
        witnesses += [SchwarzSample(rotation=cmath.exp(1j * rng.uniform(0, 7)),
                                    zeros=tuple(0.75 * rng.random(count)
                                                * np.exp(1j * rng.uniform(0, 7, count))))
                      for _ in range(8)]
    return [witnesses[i] for i in rng.permutation(len(witnesses))]


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 8, 12, 20, 32])
def test_member_rows_agree_with_member_from_witness(order):
    witnesses = _row_witnesses()
    rows = core.member_rows(witnesses, order)
    exact = np.array([core.member_from_witness(omega, order).coeffs for omega in witnesses])
    assert rows.shape == (len(witnesses), order + 1)
    assert np.max(np.abs(rows - exact)) < 1e-13


def test_member_rows_at_a_lower_order_are_the_leading_columns():
    witnesses = _row_witnesses()
    assert (core.member_rows(witnesses, 6).tobytes()
            == np.ascontiguousarray(core.member_rows(witnesses, 32)[:, :7]).tobytes())


@pytest.mark.parametrize("block", [1, 7, 4096, 10 ** 6])
def test_member_rows_bits_do_not_depend_on_the_block(block, monkeypatch):
    witnesses = _row_witnesses()
    want = [core.member_rows([omega], 12).tobytes() for omega in witnesses]
    monkeypatch.setattr(core, "MEMBER_ROWS_BLOCK", block)
    assert [row.tobytes() for row in core.member_rows(witnesses, 12)] == want


def test_member_rows_let_an_overflow_through():
    # the witness 1e200 z is no Schwarz map; its sinh overflows at z^3
    huge = SchwarzSample()
    object.__setattr__(huge, "rotation", 1e200)
    with pytest.raises(ValueError, match="must be finite"):
        core.member_from_witness(huge, 6)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = core.member_rows([SchwarzSample.monomial(2), huge], 6)
    assert np.isfinite(rows[0]).all() and not np.isfinite(rows[1]).all()


# -- ratio ---------------------------------------------------------------------


def test_ratio_of_identity_is_one(identity_fn):
    z = 0.9 * np.exp(2j * np.pi * np.arange(32) / 32)
    assert np.max(np.abs(identity_fn.ratio_values(z) - 1.0)) < 1e-15


def test_ratio_of_koebe_is_half_plane_kernel(koebe):
    z = 0.3 * np.exp(2j * np.pi * np.arange(32) / 32)
    assert np.max(np.abs(koebe.ratio_values(z) - (1.0 + z) / (1.0 - z))) < 1e-12


def test_ratio_series_coefficient_formulas():
    # the Taylor coefficients of z f'/f, read off its values on |z| = 1/4 by the FFT
    rng = np.random.default_rng(9)
    z = 0.25 * np.exp(2j * np.pi * np.arange(64) / 64)
    for _ in range(50):
        tail = 0.2 * (rng.normal(size=4) + 1j * rng.normal(size=4))
        f = core.NormalizedFunction.from_tail(tail, order=8)
        a2, a3, a4, a5 = (f.coeff(k) for k in (2, 3, 4, 5))
        r = np.fft.fft(f.ratio_values(z))[:5] / 64 / 0.25 ** np.arange(5)
        assert abs(r[0] - 1.0) < 1e-12
        assert abs(r[1] - a2) < 1e-12
        assert abs(r[2] - (2 * a3 - a2 ** 2)) < 1e-12
        assert abs(r[3] - (3 * a4 - 3 * a2 * a3 + a2 ** 3)) < 1e-12
        assert abs(r[4] - (4 * a5 - 2 * a3 ** 2 - 4 * a2 * a4
                           + 4 * a2 ** 2 * a3 - a2 ** 4)) < 1e-12


# -- coefficient transfer ------------------------------------------------------


def test_coeffs_from_caratheodory_boundary_values():
    a2, a3, a4, a5 = core.coeffs_from_caratheodory([2, 2, 2, 2])
    assert (a2, a3) == (1.0, 0.5)
    assert abs(a4 - 2.0 / 9.0) < 1e-16
    assert abs(a5 - 7.0 / 72.0) < 1e-16
    assert core.coeffs_from_caratheodory([0, 0, 0, 0]) == (0, 0, 0, 0)
    a2, a3, a4, a5 = core.coeffs_from_caratheodory([0, 2, 0, 2])
    assert np.allclose([a2, a3, a4, a5], [0, 0.5, 0, 0.125])


def test_coeff_formulas_match_series_pipeline():
    # members built through the full series pipeline from a positive-real
    # witness match the closed-form coefficient transfer
    rng = np.random.default_rng(21)
    order = 8
    one = ts.constant(1.0, order)
    for _ in range(100):
        k = cara.sample_herglotz(rng)
        ks = k.series(order)
        w = ts.div(ks - one, ks + one)
        f = core.member_from_witness(w, order)
        c = k.coeffs(4)
        expected = core.coeffs_from_caratheodory(c)
        got = tuple(f.coeff(n) for n in (2, 3, 4, 5))
        assert np.max(np.abs(np.array(got) - np.array(expected))) < 1e-10


def test_composed_expansion_displayed_coefficients():
    # 1 + sinh((k-1)/(k+1)) has the displayed polynomial coefficients in c_n
    rng = np.random.default_rng(33)
    order = 8
    one = ts.constant(1.0, order)
    sinh_outer = one + ts.sinh(ts.monomial(1, order))
    for _ in range(100):
        k = cara.sample_herglotz(rng)
        c = k.coeffs(4)
        ks = k.series(order)
        composed = ts.compose(sinh_outer, ts.div(ks - one, ks + one))
        c1, c2, c3, c4 = c
        displayed = [
            1.0,
            c1 / 2,
            c2 / 2 - c1 ** 2 / 4,
            7 * c1 ** 3 / 48 - c1 * c2 / 2 + c3 / 2,
            -3 * c1 ** 4 / 32 + 7 * c1 ** 2 * c2 / 16 - c1 * c3 / 2
            - c2 ** 2 / 4 + c4 / 2,
        ]
        assert np.max(np.abs(composed[:5] - np.array(displayed))) < 1e-10


# -- sufficient condition -------------------------------------------------------


def test_sufficient_identity_holds(identity_fn):
    v = core.sufficient_membership(identity_fn)
    assert v.holds and v.statistic == pytest.approx(0.0, abs=1e-15)


def test_sufficient_small_quadratic():
    f = core.NormalizedFunction.from_tail([0.1], order=8)
    v = core.sufficient_membership(f)
    expected = 0.1 * (1.0 + math.sinh(1.0)) / math.sinh(1.0)
    assert v.holds
    assert v.statistic == pytest.approx(expected, abs=1e-8)
    assert v.argmax_theta == pytest.approx(math.pi, abs=1e-3)


def test_sufficient_large_quadratic_inconclusive():
    f = core.NormalizedFunction.from_tail([0.6], order=8)
    v = core.sufficient_membership(f)
    assert not v.holds
    assert v.statistic == pytest.approx(0.6 * (1 + math.sinh(1)) / math.sinh(1),
                                        abs=1e-7)


def test_sufficient_requires_theta_samples():
    with pytest.raises(core.PreconditionNotMet):
        core.sufficient_membership(core.NormalizedFunction.identity(8), 32)


# -- kernel test ------------------------------------------------------------------


def kernel(f, grid):
    return core.kernel_nonvanishing(f, core.grid_values(f, grid), grid)


def geometric(f, grid):
    return core.geometric_membership(core.grid_values(f, grid), grid)


def test_kernel_identity_is_unit(identity_fn):
    v = kernel(identity_fn, core.PolarGrid(64, 16))
    assert v.nonvanishing
    assert v.min_modulus == pytest.approx(1.0, abs=1e-12)


def test_kernel_extremal_member_nonvanishing(f0):
    v = kernel(f0, core.PolarGrid(128, 32))
    assert v.nonvanishing
    assert v.min_modulus > 1e-4


def test_kernel_koebe_zero_found(koebe):
    v = kernel(koebe, core.PolarGrid(128, 32))
    assert not v.nonvanishing
    assert v.min_modulus <= 1e-6
    assert abs(v.argmin_z) < 1.0


# -- kernel sieve against the dense scan ---------------------------------------------


def dense_kernel_grid_min(fp, v, betas):
    """Oracle: the dense chunked scan of every (beta, grid point) pair.

    Returns the first minimum in row-major order as (value, row, column),
    with row and column -1 when no pair is below infinity.
    """
    best, best_i, best_j = math.inf, -1, -1
    chunk = max(1, int(2_000_000 / max(fp.size, 1)))
    for lo in range(0, betas.size, chunk):
        e = np.abs(fp[None, :] - betas[lo : lo + chunk, None] * v[None, :])
        i, j = np.unravel_index(np.argmin(e), e.shape)
        if e[i, j] < best:
            best, best_i, best_j = float(e[i, j]), lo + int(i), int(j)
    return best, best_i, best_j


def _kernel_scan_inputs(f, theta_samples, grid):
    _, fp, g = core.grid_values(f, grid)
    thetas = np.linspace(0.0, 2.0 * np.pi, theta_samples, endpoint=False)
    return fp, fp - g, np.array([core.kernel_beta(t) for t in thetas])


def _sieve_functions(seed, count):
    """Witness-built members, random polynomials and Koebe-type non-members."""
    rng = np.random.default_rng(seed)
    fs = [core.NormalizedFunction.identity(8), core.NormalizedFunction.from_tail([0.3], order=8)]
    for i in range(count):
        if i % 3 == 0:
            fs.append(core.member_from_witness(cara.sample_schwarz(rng), 16))
        elif i % 3 == 1:
            degree = int(rng.integers(2, 8))
            tail = 0.3 * (rng.normal(size=degree) + 1j * rng.normal(size=degree))
            fs.append(core.NormalizedFunction.from_tail(tail / np.arange(2, degree + 2), order=12))
        else:
            t = rng.uniform(0.3, 0.6) * np.exp(2j * np.pi * rng.random())
            fs.append(core.NormalizedFunction.from_tail(
                [n * t ** (n - 1) for n in range(2, 33)], order=32))
    return fs


@pytest.mark.parametrize("theta_samples, radial_samples",
                         [(96, 24), (100, 1), (100, 24), (64, 1), (512, 3)])
def test_kernel_sieve_matches_dense_scan(theta_samples, radial_samples, monkeypatch):
    grid = core.PolarGrid(theta_samples, radial_samples)
    fs = _sieve_functions(theta_samples + radial_samples, 12)
    for f in fs:
        args = _kernel_scan_inputs(f, theta_samples, grid)
        assert core._kernel_grid_min(*args) == dense_kernel_grid_min(*args), f.to_json()
    sieved = [kernel(f, grid) for f in fs[:6]]
    monkeypatch.setattr(core, "_kernel_grid_min", dense_kernel_grid_min)
    assert sieved == [kernel(f, grid) for f in fs[:6]]


def _planted(args, *pairs):
    """Scan inputs with |fp - beta_i v| exactly 0 at each (row i, column j).

    Column j gets v_j = 1 and fp_j = beta_i; given as (None, j), it gets
    v_j = fp_j = 0, so every row ties at 0 there.
    """
    fp, v, betas = (a.copy() for a in args)
    for i, j in pairs:
        fp[j], v[j] = (0.0, 0.0) if i is None else (betas[i], 1.0)
    return fp, v, betas


def test_kernel_sieve_over_column_chunks_matches_dense_scan(monkeypatch):
    # 2000-element temporaries at 100 angles (blocks of 64 and 36 rows) give
    # spans of 1000 points and a coarse pass over every 3rd point; the 2300
    # points are a multiple of neither, and the last span holds 300.  Planted
    # zeros put the minimum in the first span, in the last span, or at tied
    # pairs, where the first in row-major order wins.
    monkeypatch.setattr(core, "_KERNEL_SPAN", 2000)
    grid = core.PolarGrid(100, 23)
    plantings = {(): None, ((70, 3),): (0.0, 70, 3), ((10, 2299),): (0.0, 10, 2299),
                 ((40, 0), (5, 2299)): (0.0, 5, 2299), ((99, 2050), (99, 1200)): (0.0, 99, 1200),
                 ((None, 1500), (None, 7), (3, 2)): (0.0, 0, 7)}
    for f in _sieve_functions(7, 9):
        for pairs, expected in plantings.items():
            args = _planted(_kernel_scan_inputs(f, 100, grid), *pairs)
            got = core._kernel_grid_min(*args)
            assert got == dense_kernel_grid_min(*args), (f.to_json(), pairs)
            assert expected is None or got == expected
    # the identity ties at every pair, so the first minimum is (1.0, 0, 0)
    args = _kernel_scan_inputs(core.NormalizedFunction.identity(8), 100, grid)
    assert core._kernel_grid_min(*args) == (1.0, 0, 0)


@pytest.mark.parametrize("block", [1, 5, 64, 101])
def test_kernel_sieve_at_any_block_size_matches_dense_scan(block, monkeypatch):
    # 101 rows is more than the 100 angles: one block holds them all
    monkeypatch.setattr(core, "_KERNEL_BLOCK", block)
    grid = core.PolarGrid(100, 24)
    fs = _sieve_functions(block, 12)
    for f in fs:
        args = _kernel_scan_inputs(f, 100, grid)
        assert core._kernel_grid_min(*args) == dense_kernel_grid_min(*args), f.to_json()
    sieved = [kernel(f, grid) for f in fs[:6]]
    monkeypatch.setattr(core, "_kernel_grid_min", dense_kernel_grid_min)
    assert sieved == [kernel(f, grid) for f in fs[:6]]


def _outcome(fn, *args):
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return fn(*args)
    except FloatingPointError as exc:
        return f"FloatingPointError: {exc}"


@pytest.mark.parametrize("size", [5e307, 8e307, 9e307, 1.5e308])
@pytest.mark.parametrize("power", [2, 3, 5])
def test_kernel_sieve_at_extreme_coefficients_matches_dense_scan(size, power, monkeypatch):
    # the lone coefficient a_power = size; equal results or the same exception
    f = core.NormalizedFunction.from_tail([0.0] * (power - 2) + [size], order=8)
    grid = core.PolarGrid(96, 24)
    with np.errstate(over="ignore", invalid="ignore"):
        args = _kernel_scan_inputs(f, 96, grid)
    assert _outcome(core._kernel_grid_min, *args) == _outcome(dense_kernel_grid_min, *args)
    sieved = _outcome(kernel, f, grid)
    monkeypatch.setattr(core, "_kernel_grid_min", dense_kernel_grid_min)
    assert sieved == _outcome(kernel, f, grid)


# -- pointwise values and the kernel polish, bit for bit ------------------------


def bits(a):
    """The raw bits of a complex or real array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


def test_zero_dimensional_z_gives_the_one_element_bits():
    # a 0-d z returns a 0-d array with the bits of the one-element call; an
    # in-place multiply of a single element would round differently
    rng = np.random.default_rng(5)
    f = core.member_from_witness(cara.sample_schwarz(rng), 32)
    for z in 0.99 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200)):
        for values in (f.over_z_values, f.derivative_values):
            for zero_d in (z, np.array(z), complex(z)):
                got = values(zero_d)
                assert isinstance(got, np.ndarray) and got.shape == ()
                assert np.array_equal(bits(got), bits(values(np.array([z]))))
        assert np.array_equal(bits(f.over_z_values(np.array(z))),
                              bits(np.polyval(f.coeffs[:0:-1], np.array(z))))


def reference_kernel_nonvanishing(f, theta_samples, grid):
    """Oracle: the kernel test as it stood with one np.polyval call per lane and point."""
    c = f.coeffs
    dc = (c * np.arange(c.size))[:0:-1]
    z = grid.points()
    fp = np.polyval(dc, z)
    g = np.polyval(c[:0:-1], z)
    thetas = np.linspace(0.0, 2.0 * np.pi, theta_samples, endpoint=False)
    betas = np.array([core.kernel_beta(t) for t in thetas])
    best, i, j = dense_kernel_grid_min(fp, fp - g, betas)
    best_theta, best_z = (float(thetas[i]), complex(z[j])) if i >= 0 else (0.0, 0j)
    dtheta = 2.0 * math.pi / theta_samples
    dr = grid.max_radius / grid.radial_samples
    dphi = 2.0 * math.pi / grid.theta_samples
    r0, phi0 = abs(best_z), cmath.phase(best_z)

    def objective(p):
        r = min(max(p[1], 1e-9), grid.max_radius)
        zp = np.array([r * cmath.exp(1j * p[2])])
        fpz = complex(np.polyval(dc, zp)[0])
        gz = complex(np.polyval(c[:0:-1], zp)[0])
        return -abs(fpz - core.kernel_beta(p[0]) * (fpz - gz))

    p, neg = polish_coordinatewise(
        objective, np.array([best_theta, r0, phi0]),
        [(best_theta - dtheta, best_theta + dtheta),
         (max(r0 - dr, 1e-9), min(r0 + dr, grid.max_radius)),
         (phi0 - dphi, phi0 + dphi)],
        rounds=3)
    if -neg < best:
        best = -neg
        best_theta = float(p[0]) % (2.0 * math.pi)
        best_z = min(max(p[1], 1e-9), grid.max_radius) * cmath.exp(1j * p[2])
    ratio_floor = float(np.min(np.abs(g)))
    nonvanishing = bool(best > core.ZERO_TOL and ratio_floor > core.ZERO_TOL)
    return core.KernelVerdict(nonvanishing=nonvanishing,
                              min_modulus=best, argmin_theta=best_theta,
                              argmin_z=best_z, ratio_floor=ratio_floor)


@pytest.mark.parametrize("theta_samples, radial_samples",
                         [(96, 24), (100, 1), (100, 24), (64, 1), (512, 3)])
def test_kernel_verdict_matches_per_point_polyval_reference(theta_samples, radial_samples):
    grid = core.PolarGrid(theta_samples, radial_samples)
    for f in _sieve_functions(theta_samples + radial_samples, 12):
        assert (kernel(f, grid)
                == reference_kernel_nonvanishing(f, theta_samples, grid)), f.to_json()


@pytest.mark.parametrize("size", [5e307, 8e307, 9e307, 1.5e308])
@pytest.mark.parametrize("power", [2, 3, 5])
def test_kernel_verdict_at_extreme_coefficients_matches_reference(size, power):
    f = core.NormalizedFunction.from_tail([0.0] * (power - 2) + [size], order=8)
    grid = core.PolarGrid(96, 24)
    assert (_outcome(kernel, f, grid)
            == _outcome(reference_kernel_nonvanishing, f, 96, grid))


# -- geometric test ----------------------------------------------------------------


def test_geometric_members(f0, identity_fn):
    grid = core.PolarGrid(128, 32)
    assert geometric(f0, grid).member
    assert geometric(identity_fn, grid).member


def test_geometric_koebe_excluded(koebe):
    # the log-derivative deviation at z = 0.9 has modulus 18, far beyond
    # the largest boundary modulus sinh(1)
    exact = (1 + 0.9) / (1 - 0.9) - 1.0
    assert exact == pytest.approx(18.0)
    truncated = abs(koebe.ratio_values(np.array([0.9]))[0] - 1.0)
    assert truncated > 2.0 * math.sinh(1.0)
    verdict = geometric(koebe, core.PolarGrid(128, 32))
    assert not verdict.member
    assert verdict.outside_count > 0


def test_geometric_counts_a_zero_of_f_over_z_inside_the_innermost_ring():
    # f/z = 1 + 1000 z vanishes at z = -0.001, inside the innermost ring
    # (radius 0.995/64): every sample of z f'/f - 1 = 1000 z/(1 + 1000 z) lies
    # inside sinh(D), and only the winding of f/z on that ring sees the pole
    f = core.NormalizedFunction.from_tail([1000.0])
    verdict = geometric(f, core.DEFAULT_GRID)
    assert not verdict.member
    assert (verdict.outside_count, verdict.ambiguous_count, verdict.max_excursion) == (0, 0, 0.0)
    assert geometric(f, core.PolarGrid(100, 7)) == verdict


# -- combined report ----------------------------------------------------------------


def test_membership_report_verdicts(f0, koebe):
    grid = core.PolarGrid(128, 32)
    good = core.membership_report(f0, grid)
    assert good.verdict == "member"
    bad = core.membership_report(koebe, grid)
    assert bad.verdict == "non-member"
    obj = bad.to_json()
    assert obj["kernel"]["verdict"] == "zero-found"
    assert obj["geometric"]["verdict"] == "non-member"


def test_membership_report_flags_a_zero_of_f_over_z_inside_the_innermost_ring():
    # f = z + 1000 z^2 is no member; criterion 10's rule, geometric member =>
    # kernel nonvanishing, holds for it
    report = core.membership_report(core.NormalizedFunction.from_tail([1000.0]))
    assert (report.geometric.verdict, report.verdict) == ("non-member", "non-member")
    assert report.kernel.nonvanishing or not report.geometric.member


def test_membership_report_makes_one_grid_pass_per_value(monkeypatch):
    # f' and f/z once each over the grid; the kernel polish reruns its
    # single-point pass only where the radius or angle moved: at most 1 + 9 x 42
    # polish points less 3 x 41 steps along theta
    rng = np.random.default_rng(29)
    f = core.member_from_witness(cara.sample_schwarz(rng), 32)
    sizes = []
    evaluate = ts.evaluate

    def counting(coeffs, z):
        sizes.append(np.size(z))
        return evaluate(coeffs, z)

    monkeypatch.setattr(ts, "evaluate", counting)
    core.membership_report(f)
    grid_size = core.DEFAULT_GRID.theta_samples * core.DEFAULT_GRID.radial_samples
    assert sizes.count(grid_size) == 2
    assert sizes.count(1) <= 256
    assert sizes.count(1) + 2 == len(sizes)


def test_implication_chain_on_samples():
    # sufficient => geometric => kernel nonvanishing
    rng = np.random.default_rng(15)
    grid = core.PolarGrid(96, 24)
    for i in range(60):
        if i % 2:
            tail = 0.12 * (rng.normal(size=4) + 1j * rng.normal(size=4)) / \
                np.arange(2, 6)
            f = core.NormalizedFunction.from_tail(tail, order=12)
        else:
            f = core.member_from_witness(cara.sample_schwarz(rng), 16)
        s = core.sufficient_membership(f, 128)
        values = core.grid_values(f, grid)
        g = core.geometric_membership(values, grid)
        k = core.kernel_nonvanishing(f, values, grid)
        if s.holds:
            assert g.member, f"sufficient held but geometric failed: {f.to_json()}"
        if g.member:
            assert k.nonvanishing, f"member with vanishing kernel: {f.to_json()}"


# -- functionals --------------------------------------------------------------------


def test_hankel_report_extremal(f0):
    a = f0.coeffs
    assert core.functional("fs", a, 1.0) == pytest.approx(-0.5, abs=1e-14)
    assert core.functional("h22", a) == pytest.approx(-1.0 / 36.0, abs=1e-14)
    # rational oracle on (1, 1/2, 2/9, 7/72)
    a2, a3, a4, a5 = Fraction(1), Fraction(1, 2), Fraction(2, 9), Fraction(7, 72)
    h31 = a3 * (a2 * a4 - a3 ** 2) - a4 * (a4 - a2 * a3) + a5 * (a3 - a2 ** 2)
    assert h31 == Fraction(-1, 1296)
    assert core.functional("h31", a) == pytest.approx(float(h31), abs=1e-14)


def test_hankel_report_square_witness():
    f = core.member_from_witness(SchwarzSample.monomial(2), 8)
    assert core.functional("h22", f.coeffs) == pytest.approx(-0.25, abs=1e-14)


# -- growth and covering ---------------------------------------------------------


def test_shi_routes_agree():
    # Gauss-Legendre is exact for the integrand's Maclaurin terms up to degree
    # 2 * SHI_NODES - 1, so on [0, 1] only round-off separates the routes,
    # down to radii whose nodes underflow to t = 0
    for x in (5e-324, 1e-300, 1e-12, 1e-6, 0.25, 0.5, 0.75, 0.95,
              *np.linspace(1e-3, 1.0, 2000)):
        assert abs(core.shi_series(x) - core.shi_quadrature(x)) < 1e-15, x


def test_runtime_does_not_import_scipy():
    # scipy is a test-only oracle; no module of the package may load it
    code = ("import importlib, pkgutil, sys, gshlab\n"
            "for m in pkgutil.iter_modules(gshlab.__path__):\n"
            "    importlib.import_module('gshlab.' + m.name)\n"
            "assert 'gshlab.cli' in sys.modules\n"
            "print('scipy' in sys.modules)")
    src = str(Path(core.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "False"


def test_growth_record_values():
    rec = core.growth_distortion(0.5)
    shi_half, _ = quad(lambda t: math.sinh(t) / t if t else 1.0, 0, 0.5,
                       epsabs=1e-13, epsrel=1e-13)
    assert rec.upper == pytest.approx(0.5 * math.exp(shi_half), abs=1e-12)
    assert rec.upper == pytest.approx(0.8301487057042349, abs=1e-10)
    assert rec.lower == pytest.approx(0.5 * math.exp(-shi_half), abs=1e-12)
    assert rec.deriv_bound == pytest.approx((1 + math.sinh(0.5)) * rec.upper / 0.5)
    assert rec.covering == pytest.approx(0.3474095709321509, abs=1e-10)


def test_growth_normalization_limit():
    rec = core.growth_distortion(1e-4)
    assert rec.upper / 1e-4 == pytest.approx(1.0, abs=2e-4)


def test_growth_domain_checked():
    with pytest.raises(core.PreconditionNotMet):
        core.growth_distortion(1.0)


def test_covering_radius_value():
    assert core.covering_radius() == pytest.approx(math.exp(-core.shi_quadrature(1.0)),
                                                   abs=1e-12)


def test_members_respect_growth_envelope():
    # r e^(-Shi r) <= |f(z)| <= r e^(Shi r) and |f'(z)| <= deriv_bound on |z| = r
    rng = np.random.default_rng(27)
    angles = np.exp(2j * np.pi * np.arange(64) / 64)
    for _ in range(25):
        f = core.member_from_witness(cara.sample_schwarz(rng), 40)
        for r in (0.25, 0.5, 0.75, 0.95):
            rec = core.growth_distortion(r)
            vals = np.abs(ts.evaluate(f.coeffs, r * angles))
            assert float(np.max(vals)) <= rec.upper * (1 + 1e-8)
            assert float(np.min(vals)) >= rec.lower * (1 - 1e-8)
            slopes = np.abs(f.derivative_values(r * angles))
            assert float(np.max(slopes)) <= rec.deriv_bound * (1 + 1e-8)


def test_growth_lower_bound_peaks_at_the_radius_of_starlikeness():
    # 1 + sinh(D) contains 0, and the extremal member f0(z) = z e^(Shi z) has
    # f0'(-asinh 1) = 0; the lower bound r e^(-Shi r) has derivative
    # e^(-Shi r) (1 - sinh r), so it peaks at r = asinh 1 = ln(1 + sqrt 2)
    with mp.workdps(50):
        lower = lambda r: r * mp.exp(-mp.shi(r))
        peak = mp.findroot(lambda r: mp.diff(lower, r), 0.9)
        assert abs(peak - mp.asinh(1)) < mp.mpf(10) ** -40
        assert abs(peak - mp.log(1 + mp.sqrt(2))) < mp.mpf(10) ** -40
        assert mp.diff(lower, peak, 2) < 0
        assert float(lower(peak)) == pytest.approx(0.351135655693728, abs=1e-15)
        assert core.covering_radius() == pytest.approx(0.347409570932151, abs=1e-15)
        assert float(mp.exp(-mp.shi(1))) == pytest.approx(core.covering_radius(), abs=1e-15)
        assert lower(peak) > mp.exp(-mp.shi(1))
        f0_prime = mp.diff(lambda z: z * mp.exp(mp.shi(z)), -mp.asinh(1))
        assert abs(f0_prime) < mp.mpf(10) ** -40
    f0 = core.member_from_witness(SchwarzSample.monomial(1), 40)
    assert abs(f0.derivative_values(np.array([-math.asinh(1.0)]))[0]) < 1e-15
    assert core.growth_distortion(float(peak)).lower == pytest.approx(0.351135655693728,
                                                                      abs=1e-15)


# -- types -------------------------------------------------------------------------


def test_normalized_function_validation():
    with pytest.raises(ValueError):
        core.NormalizedFunction(ts.constant(1.0, 4))
    with pytest.raises(ValueError):
        core.NormalizedFunction(ts.coefficients([0, 1 + 1e-12, 0.5]))


def test_normalized_function_json_round_trip(f0):
    back = core.NormalizedFunction.from_json(f0.to_json())
    assert np.allclose(back.coeffs, f0.coeffs)


def _harness_record_functions(monkeypatch):
    """The functions behind the kept records of a short implication run."""
    from gshlab import subordination as sub

    seen = []
    record = sub._record

    def spy(f, *args):
        seen.append(f)
        return record(f, *args)

    monkeypatch.setattr(sub, "_record", spy)
    params = sub.JanowskiParams(1.0, 0.0)
    kind = sub.OperatorKind(1)
    threshold = sub.alpha_threshold(kind, params)
    sub.run_config(kind, params, 1.05 * threshold, threshold, seed=0, target_non_vacuous=2,
                   max_attempts=4, keep_records=True)
    return seen


def test_every_constructor_gives_read_only_finite_coefficients(monkeypatch):
    made = {
        "from_tail": core.NormalizedFunction.from_tail([0.3, 0.1j], order=8),
        "identity": core.NormalizedFunction.identity(8),
        "koebe": core.NormalizedFunction.koebe(8),
        "from_json": core.NormalizedFunction.from_json({"coeffs": [[0, 0], [1, 0], [0.5, -0.25]]}),
        "schwarz witness": core.member_from_witness(SchwarzSample(1j, (0.3, -0.2j)), 8),
        "array witness": core.member_from_witness(np.array([0.0, 0.5, 0.25j]), 8),
    }
    records = _harness_record_functions(monkeypatch)
    assert len(records) == 4
    made.update((f"record {i}", f) for i, f in enumerate(records))
    for name, f in made.items():
        assert f.coeffs.dtype == np.complex128 and f.coeffs.ndim == 1, name
        assert np.isfinite(f.coeffs).all(), name
        assert not f.coeffs.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            f.coeffs[2] = 7.0
    assert made["array witness"].order == 8 and made["from_json"].order == 2


@pytest.mark.parametrize("build", [
    lambda v: core.NormalizedFunction.from_tail([0.25, v]),
    lambda v: core.NormalizedFunction.from_json({"coeffs": [[0, 0], [1, 0], [0.5, v]]}),
    lambda v: core.member_from_witness(np.array([0.0, 0.5, v]), 8),
], ids=["from_tail", "from_json", "array witness"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_constructors_reject_non_finite_coefficients(build, value):
    with pytest.raises(ValueError, match="series coefficients must be finite"):
        build(value)


def test_an_array_witness_is_copied():
    w = np.array([0.0, 0.5, 0.25j])
    f = core.member_from_witness(w, 8)
    before = f.coeffs.copy()
    w[1] = 0.9
    assert f.coeffs.tobytes() == before.tobytes()


def test_normalized_functions_compare_by_identity():
    f, g = core.NormalizedFunction.identity(8), core.NormalizedFunction.identity(8)
    assert f == f and f != g
    assert len({f, g, f}) == 2
