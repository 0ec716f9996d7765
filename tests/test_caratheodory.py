import math

import numpy as np
import pytest

from gshlab import caratheodory as cara
from gshlab import series as ts


# -- coefficient extraction ---------------------------------------------------


def test_half_plane_kernel_coefficients():
    k = cara.HerglotzSample(weights=(1.0,), nodes=(1.0,))
    assert np.allclose(k.coeffs(6), 2.0)


def test_constant_kernel_coefficients():
    k = cara.HerglotzSample(weights=(1.0,), nodes=(0.0,))
    assert np.allclose(k.coeffs(6), 0.0)


def test_two_node_alternating_coefficients():
    k = cara.HerglotzSample(weights=(0.5, 0.5), nodes=(1.0, -1.0))
    c = k.coeffs(6)
    assert np.allclose(c[0::2], 0.0)   # odd powers vanish
    assert np.allclose(c[1::2], 2.0)   # even powers hit the bound


def test_coeffs_match_series_expansion():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = cara.sample_herglotz(rng)
        series = k.series(10)
        assert abs(series[0] - 1.0) < 1e-14
        assert np.max(np.abs(series[1:] - k.coeffs(10))) < 1e-12


def test_upto_must_be_positive():
    k = cara.HerglotzSample(weights=(1.0,), nodes=(0.5,))
    with pytest.raises(ValueError):
        k.coeffs(0)


def test_sample_validation():
    with pytest.raises(ValueError):
        cara.HerglotzSample(weights=(0.5, 0.4), nodes=(0.1, 0.2))  # sum != 1
    with pytest.raises(ValueError):
        cara.HerglotzSample(weights=(1.0,), nodes=(1.5,))  # node outside disk
    with pytest.raises(ValueError):
        cara.SchwarzSample(rotation=2.0)
    with pytest.raises(ValueError):
        cara.SchwarzSample(rotation=1.0, zeros=(1.0,))


@pytest.mark.parametrize("make", [
    lambda v: cara.SchwarzSample(rotation=v),
    lambda v: cara.SchwarzSample(rotation=complex(0.0, v)),
    lambda v: cara.SchwarzSample(rotation=1.0, zeros=(0.5, v)),
    lambda v: cara.SchwarzSample(rotation=1.0, zeros=(complex(0.0, v),)),
    lambda v: cara.HerglotzSample(weights=(v,), nodes=(0j,)),
    lambda v: cara.HerglotzSample(weights=(0.5, v), nodes=(0.1, 0.2)),
    lambda v: cara.HerglotzSample(weights=(1.0,), nodes=(v,)),
    lambda v: cara.HerglotzSample(weights=(0.5, 0.5), nodes=(0.1, complex(0.0, v))),
], ids=["rotation", "rotation-im", "zero", "zero-im", "weight", "second-weight", "node",
        "node-im"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sample_validation_rejects_non_finite_parameters(make, value):
    with pytest.raises(ValueError):
        make(value)


# -- Schwarz maps -------------------------------------------------------------


def test_schwarz_series_matches_pointwise_values():
    rng = np.random.default_rng(17)
    z = 0.4 * np.exp(2j * np.pi * rng.random(32))
    for _ in range(20):
        omega = cara.sample_schwarz(rng)
        series_vals = ts.evaluate(omega.series(40), z)
        assert np.max(np.abs(series_vals - omega.values(z))) < 1e-10


def _series_by_division(omega, order):
    """The Schwarz series with each Blaschke factor by series division (the oracle)."""
    acc = np.zeros(order + 1, dtype=np.complex128)
    acc[0] = complex(omega.rotation)
    num = np.zeros(order + 2, dtype=np.complex128)
    den = np.zeros(order + 2, dtype=np.complex128)
    num[1] = den[0] = 1.0
    for b in omega.zeros:
        b = complex(b)
        num[0], den[1] = -b, -b.conjugate()
        acc = np.convolve(acc, ts.div(num[: order + 1], den[: order + 1]))[: order + 1]
    out = np.zeros(order + 1, dtype=np.complex128)
    out[1:] = acc[:order]
    return out


_SIGNED_ZEROS = (0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0))


@pytest.mark.parametrize("order", [0, 1, *range(2, 41)])
def test_schwarz_series_equals_factor_division_bit_for_bit(order):
    # 50 seeded witnesses per order, 2050 in all, with 0 to 4 zeros each
    rng = np.random.default_rng((41, order))
    witnesses = [cara.sample_schwarz(rng) for _ in range(50)]
    witnesses += [cara.SchwarzSample.monomial(k) for k in range(1, 10)]
    witnesses += [cara.SchwarzSample(rotation=r, zeros=(z,) * n)
                  for r in (1.0, 1j, complex(-1.0, -0.0))
                  for z in _SIGNED_ZEROS for n in (1, 2, 3)]
    witnesses += [cara.SchwarzSample(rotation=1j, zeros=(0.5 + 0.25j, z, -0.5))
                  for z in _SIGNED_ZEROS]
    for omega in witnesses:
        got = omega.series(order)
        assert got.shape == (order + 1,)
        # bytes, so that -0.0 and 0.0 differ
        assert got.tobytes() == _series_by_division(omega, order).tobytes(), omega


def test_schwarz_boundary_property():
    rng = np.random.default_rng(23)
    for _ in range(50):
        omega = cara.sample_schwarz(rng)
        assert omega.boundary_max() <= 1.0 + 1e-10
        assert abs(complex(omega.values(np.array([0.0]))[0])) == 0.0


def test_schwarz_cayley_transform_has_positive_real_part_on_grid():
    rng = np.random.default_rng(29)
    radii = np.linspace(0.999 / 64, 0.999, 64)
    angles = np.exp(2j * np.pi * np.arange(64) / 64)
    grid = np.outer(radii, angles).ravel()
    for _ in range(25):
        omega = cara.sample_schwarz(rng)
        # rational evaluation through the defining map, free of truncation
        w = omega.values(grid)
        vals = (1.0 + w) / (1.0 - w)
        assert float(np.min(vals.real)) > -1e-9


# -- witness decomposition ----------------------------------------------------


def test_witnesses_degenerate_at_extreme_first_coefficient():
    wit = cara.coeff_witnesses(2.0, 2.0, 2.0)
    assert wit["degenerate"] and wit["x"] is None and wit["z"] is None


def test_witnesses_unit_x_flags_z_degenerate():
    wit = cara.coeff_witnesses(0.0, 2.0, 0.0)
    assert wit["x"] == pytest.approx(1.0)
    assert wit["x_valid"] and wit["degenerate"] and wit["z"] is None


def test_witnesses_interior_point():
    wit = cara.coeff_witnesses(1.0, 1.0, 1.0)
    assert wit["x"] == pytest.approx(1.0 / 3.0)
    assert wit["z"] == pytest.approx(0.25)
    assert wit["x_valid"] and wit["z_valid"] and not wit["degenerate"]


def test_witness_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(100):
        k = cara.sample_herglotz(rng)
        c = k.coeffs(3)
        wit = cara.coeff_witnesses(c[0], c[1], c[2])
        if wit["degenerate"]:
            continue
        c2, c3 = cara.coeffs_from_witnesses(c[0], wit["x"], wit["z"])
        assert abs(c2 - c[1]) < 1e-10
        assert abs(c3 - c[2]) < 1e-9


# -- bound calculators ---------------------------------------------------------


def _piecewise_fekete_szego_bound(nu):
    """The real-nu bound in its textbook form, split at nu = 0 and nu = 1."""
    if nu <= 0.0:
        return -4.0 * nu + 2.0
    if nu <= 1.0:
        return 2.0
    return 4.0 * nu - 2.0


@pytest.mark.parametrize("nu,expected", [(0.0, 2.0), (-1.0, 6.0), (2.0, 6.0),
                                         (0.5, 2.0), (1.0, 2.0)])
def test_fekete_szego_bound_cases(nu, expected):
    assert _piecewise_fekete_szego_bound(nu) == pytest.approx(expected)
    assert cara.fekete_szego_bound_complex(nu) == _piecewise_fekete_szego_bound(nu)


def test_cubic_combination_bound_values():
    assert cara.cubic_combination_bound(1 / 144, 1 / 24, 1 / 6) == pytest.approx(1 / 3)
    assert cara.cubic_combination_bound(0, 0, 1) == pytest.approx(2.0)
    assert cara.cubic_combination_bound(1, 3, 3) == pytest.approx(6.0)


def test_quartic_condition_cases():
    assert cara.quartic_combination_condition(5 / 144, 0.25, 1 / 6, 5 / 36)
    assert cara.quartic_combination_condition(0.125, 0.5, 0.5, 0.5)
    assert not cara.quartic_combination_condition(1.0, 0.99, 0.99, 0.0)
    assert not cara.quartic_combination_condition(0.0, 1.5, 0.5, 0.0)


def test_cubic_bound_dominates_samples():
    rng = np.random.default_rng(37)
    a, b, d = 0.3 + 0.1j, -0.2, 0.7j
    bound = cara.cubic_combination_bound(a, b, d)
    worst = 0.0
    for _ in range(2000):
        c = cara.sample_herglotz(rng).coeffs(3)
        worst = max(worst, abs(a * c[0] ** 3 - b * c[0] * c[1] + d * c[2]))
    assert worst <= bound + 1e-9


# -- the randomized suite -------------------------------------------------------


def test_suite_no_violations():
    report = cara.inequality_suite(3000, seed=1)
    assert len(report["violations"]) == 0
    assert report["quartic_condition_hits"] > 100
    assert report["checks"]["modulus"] == 3000


def test_suite_boundary_sample_saturates_modulus():
    k = cara.HerglotzSample(weights=(1.0,), nodes=(1.0,))
    c = k.coeffs(8)
    assert np.allclose(np.abs(c), 2.0)
    # sharp values still satisfy every calculator bound
    assert abs(c[1] - 1.0 * c[0] ** 2) <= cara.fekete_szego_bound_complex(1.0)
    assert abs(c[1] - 0.5 * c[0] ** 2) <= cara.fekete_szego_bound_complex(0.5) + 1e-12


def test_suite_is_seed_deterministic_and_a_larger_budget_only_adds_samples():
    # the same seed gives the same report twice
    a = cara.inequality_suite(500, seed=9)
    b = cara.inequality_suite(500, seed=9)
    assert a == b
    # sample i comes from (seed, i), so a larger budget only adds samples
    half = cara.inequality_suite(250, seed=9)
    assert a["checks"]["modulus"] == 500 and half["checks"]["modulus"] == 250
    for key, count in half["checks"].items():
        assert a["checks"][key] >= count
    for key in ("quartic_condition_hits", "degenerate_witnesses"):
        assert a[key] >= half[key]
    assert len(a["violations"]) >= len(half["violations"])


# -- serialization ----------------------------------------------------------------


def test_sample_json_round_trips():
    h = cara.HerglotzSample(weights=(0.25, 0.75), nodes=(0.5j, -0.1))
    assert cara.HerglotzSample.from_json(h.to_json()) == h
    s = cara.SchwarzSample(rotation=1j, zeros=(0.3 + 0.2j,))
    assert cara.SchwarzSample.from_json(s.to_json()) == s


# -- one seeding pass for many per-sample streams ---------------------------------


STREAM_PREFIXES = [(0,), (7, 2), (2 ** 32,), (2 ** 64 + 5, 3)]


@pytest.mark.parametrize("prefix", STREAM_PREFIXES, ids=str)
@pytest.mark.parametrize("start, stop", [(0, 6), (2 ** 32 - 2, 2 ** 32 + 3)])
def test_streams_are_the_default_rng_of_each_index(prefix, start, stop):
    # the same PCG64 state and the same first draws as default_rng((*prefix, i)), also
    # where i crosses into two entropy words; (2^64 + 5, 3) has more than 4 words
    seen = []
    for i, rng in zip(range(start, stop), cara.streams(prefix, start, stop)):
        want = np.random.default_rng((*prefix, i))
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.random(3).tobytes() == want.random(3).tobytes()
        assert rng.normal(0.0, 0.15) == want.normal(0.0, 0.15)
        assert int(rng.integers(0, 5)) == int(want.integers(0, 5))
        seen.append(i)
    assert seen == list(range(start, stop))


@pytest.mark.parametrize("prefix", [*STREAM_PREFIXES, (1, 2, 3, 4, 5), (2 ** 70, 1)], ids=str)
def test_stream_seeds_are_the_seed_sequence_pool_states(prefix):
    start = 2 ** 32 - 3
    want = [np.random.SeedSequence((*prefix, i)).generate_state(4, np.uint64)
            for i in range(start, start + 6)]
    got = cara._pcg64_seeds(prefix, start, start + 6)
    assert got.dtype == np.uint64 and got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("prefix", [(-1,), (0, -3)], ids=str)
def test_a_negative_stream_prefix_raises_what_default_rng_raises(prefix):
    with pytest.raises(ValueError) as want:
        np.random.default_rng((*prefix, 0))
    with pytest.raises(ValueError) as got:
        next(cara.streams(prefix, 0, 1))
    assert str(got.value) == str(want.value)


def test_streams_of_an_empty_range_yield_nothing():
    assert list(cara.streams((-1,), 3, 3)) == []
