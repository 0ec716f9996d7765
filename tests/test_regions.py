import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gshlab import regions
from gshlab.core import NormalizedFunction, geometric_membership, grid_values


def test_sinh_boundary_values():
    assert regions.sinh_boundary(0.0) == pytest.approx(np.sinh(1.0))
    assert regions.sinh_boundary(np.pi / 2) == pytest.approx(1j * np.sin(1.0))


def test_sqrt_boundary_closes_through_zero():
    # float evaluation of 1 + e^(i pi) leaves a ~1e-16 residue under the root
    assert abs(regions.sqrt_disk_boundary(np.pi)) < 1e-7
    assert regions.sqrt_disk_boundary(0.0) == pytest.approx(np.sqrt(2.0))


def test_region_rejects_outside_anchor():
    with pytest.raises(ValueError):
        regions.CurveRegion(regions.sinh_margin, anchor=5.0)


def test_classify_anchor_and_far_point():
    region = regions.sinh_region()
    inside, ambiguous = region.classify(np.array([region.anchor, 10.0 + 0j]))
    assert list(inside) == [True, False]
    assert not np.any(ambiguous)


def test_radial_prefilter_bounds():
    # sinh(D) holds the disk of radius sin 1 and lies in the disk of radius
    # sinh 1; geometric_membership reads both closed forms
    t = np.linspace(0.0, 2.0 * np.pi, 20000, endpoint=False)
    circle = np.exp(1j * t)
    assert np.all(regions.sinh_margin(math.sin(1.0) * (1.0 - 1e-9) * circle) < 0)
    assert np.all(regions.sinh_margin(math.sinh(1.0) * (1.0 + 1e-9) * circle) > 0)
    identity = NormalizedFunction.identity(16)
    assert geometric_membership(grid_values(identity)).boundary_margin == math.sin(1.0)


def test_sinh_containment_matches_inverse_map_oracle():
    # independent oracle: w lies in the sinh image of the disk exactly when
    # the principal inverse satisfies |asinh(w)| < 1 (the image avoids the
    # branch cuts, so the principal branch inverts it)
    region = regions.sinh_region()
    rng = np.random.default_rng(41)
    pts = (rng.uniform(-1.6, 1.6, 4000) + 1j * rng.uniform(-1.6, 1.6, 4000))
    inside, ambiguous = region.classify(pts)
    oracle = np.abs(np.arcsinh(pts)) < 1.0
    margin = np.abs(np.abs(np.arcsinh(pts)) - 1.0) > 1e-3
    agree = inside[margin] == oracle[margin]
    assert np.all(agree)
    assert not np.any(ambiguous[margin])


def test_sqrt_containment_matches_lemniscate_oracle():
    # the image of sqrt(1 + disk) is the right loop of |w^2 - 1| < 1
    region = regions.sqrt_disk_region()
    rng = np.random.default_rng(43)
    pts = rng.uniform(0.0, 1.6, 4000) + 1j * rng.uniform(-0.9, 0.9, 4000)
    inside, _ = region.classify(pts)
    oracle = (np.abs(pts ** 2 - 1.0) < 1.0) & (pts.real > 0)
    margin = np.abs(np.abs(pts ** 2 - 1.0) - 1.0) > 1e-3
    assert np.all(inside[margin] == oracle[margin])


# the vertices of the polygon that sinh_boundary_max_distance measures against
_SINH_VERTICES = regions.sinh_boundary(
    np.linspace(0.0, 2.0 * np.pi, regions.DEFAULT_CURVE_SAMPLES, endpoint=False))


def test_points_near_curve_are_ambiguous():
    # a vertex lies on the true curve; ambiguity is measured by the margin
    # |asinh w| - 1, which a 1e-12 shift moves by about 1e-12
    region = regions.sinh_region()
    w = _SINH_VERTICES[37] + 1e-12
    inside, ambiguous = region.classify(np.array([w]))
    assert ambiguous[0] and not inside[0]


# The exact margins are also the oracle of the two tests above, so the tests
# below check them by other routes: the forward maps, and the polygon's chords.

_T = np.linspace(0.0, 2.0 * np.pi, 20000, endpoint=False)
_FORWARD = [(regions.sinh_region, np.sinh), (regions.sqrt_disk_region, lambda z: np.sqrt(1.0 + z))]


@pytest.mark.parametrize("region_fn, forward", _FORWARD)
def test_forward_images_of_disk_and_annulus(region_fn, forward):
    region = region_fn()
    for r, expect_inside in [(0.0, True), (0.5, True), (0.9, True), (1.0 - 1e-6, True),
                             (1.0 + 1e-6, False), (1.1, False), (1.5, False)]:
        inside, ambiguous = region.classify(forward(r * np.exp(1j * _T)))
        assert np.all(inside == expect_inside), r
        assert not np.any(ambiguous), r


@pytest.mark.parametrize("region_fn, boundary", [(regions.sinh_region, regions.sinh_boundary),
                                                 (regions.sqrt_disk_region,
                                                  regions.sqrt_disk_boundary)])
def test_curve_between_polygon_vertices_is_ambiguous(region_fn, boundary):
    # midway between two vertices the true curve sits up to about 8e-7 (sinh)
    # or 5e-6 (sqrt) off the polygon's chord, mostly far beyond BOUNDARY_TOL
    step = 2.0 * np.pi / regions.DEFAULT_CURVE_SAMPLES
    midway = boundary((np.arange(regions.DEFAULT_CURVE_SAMPLES) + 0.5) * step)
    inside, ambiguous = region_fn().classify(midway)
    assert np.all(ambiguous)
    assert not np.any(inside)
    if boundary is regions.sinh_boundary:
        assert regions.sinh_boundary_max_distance(midway) > 100 * regions.BOUNDARY_TOL


def test_left_lemniscate_loop_is_outside_sqrt_region():
    # -sqrt(1 + z) for |z| < 1 fills the left loop: Re w < 0 and |w^2 - 1| < 1
    region = regions.sqrt_disk_region()
    w = -np.sqrt(1.0 + np.outer([0.0, 0.5, 0.9, 1.0 - 1e-6], np.exp(1j * _T)).ravel())
    assert np.all(w.real < 0) and np.all(np.abs(w * w - 1.0) < 1.0)
    inside, ambiguous = region.classify(w)
    assert not np.any(inside)
    assert not np.any(ambiguous)
    assert not region.contains(w[:1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("region_fn", [regions.sinh_region, regions.sqrt_disk_region])
def test_non_finite_points_are_outside(region_fn):
    inf, nan = np.inf, np.nan
    pts = np.array([nan, complex(nan, 1.0), inf, -inf, complex(0.0, inf),
                    complex(inf, inf), complex(-inf, nan), complex(inf, -inf)])
    inside, ambiguous = region_fn().classify(pts)
    assert not np.any(inside)
    assert not np.any(ambiguous)


def test_contains_is_strict():
    region = regions.sinh_region()
    assert region.contains(np.array([0.0, 0.3 + 0.2j]))
    assert not region.contains(np.array([0.0, 2.0 + 0j]))


# -- the inscribed disks ------------------------------------------------------------


def _least_on_circle(fn, samples=1999):
    """Least of fn(t) over t in [0, 2 pi): the grid minimum, then golden section at 40 digits."""
    with mp.workdps(40):
        step = 2 * mp.pi / samples
        k = min(range(samples), key=lambda k: fn(k * step))
        a, b = (k - 1) * step, (k + 1) * step
        for _ in range(150):
            c, d = b - (b - a) / mp.phi, a + (b - a) / mp.phi
            a, b = (a, d) if fn(c) < fn(d) else (c, b)
        return fn((a + b) / 2)


@pytest.mark.parametrize("rho", ["0.5", "0.999", "1"])
def test_least_sinh_modulus_on_a_circle_is_sin_rho(rho):
    # the bound behind the inner disk |w| < sin 0.999 of sinh(D); 1999 angles
    # miss the minimizers +-pi/2
    with mp.workdps(40):
        rho = mp.mpf(rho)
        least = _least_on_circle(lambda t: abs(mp.sinh(rho * mp.expjpi(t / mp.pi))))
        assert abs(least - mp.sin(rho)) < mp.mpf(10) ** -25


def test_least_distance_from_1_to_the_sqrt_curve_is_sqrt2_minus_1():
    with mp.workdps(40):
        least = _least_on_circle(lambda t: abs(mp.sqrt(1 + mp.expjpi(t / mp.pi)) - 1))
        assert abs(least - (mp.sqrt(2) - 1)) < mp.mpf(10) ** -25


@pytest.mark.parametrize("region_fn, forward", _FORWARD)
def test_inner_disk_changes_no_classification(region_fn, forward):
    # the region against the same margin with no inner disk, on 10^5 points:
    # shells at the inner radius and 1e-12 either side, shells at the curve
    # and 1e-9 either side (in the preimage radius), a box and non-finite points
    region = region_fn()
    bare = regions.CurveRegion(region.margin, region.anchor)
    r = region.inner_radius
    assert bare.inner_radius == 0.0 < r
    rng = np.random.default_rng(29)
    e = np.exp(2j * np.pi * rng.random((6, 12_000)))
    inner = region.anchor + np.array([[r - 1e-12], [r], [r + 1e-12]]) * e[:3]
    curve = forward(np.array([[1.0 - 1e-9], [1.0], [1.0 + 1e-9]]) * e[3:])
    box = region.anchor + rng.uniform(-1.3, 1.3, (27_992, 2)) @ np.array([1.0, 1.0j])
    special = np.array([np.nan, complex(np.nan, 1.0), np.inf, complex(0.0, -np.inf),
                        complex(np.inf, np.inf), region.anchor, region.anchor + r,
                        region.anchor - 1j * r])
    pts = np.concatenate([inner.ravel(), curve.ravel(), box, special])
    assert pts.size == 100_000
    got, want = region.classify(pts), bare.classify(pts)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    in_disk = np.abs(pts - region.anchor) < r
    assert np.all(in_disk[:12_000]) and np.all(got[0][in_disk])
    # the margin on the disk's rim, which the docstrings bound by -1e-3 (sinh
    # reaches it at +-i sin 0.999, up to round-off)
    rim = region.anchor + r * np.exp(1j * _T)
    assert np.max(region.margin(rim)) < -1e-3 + 1e-12


def test_boundary_distance_zero_on_vertices():
    assert regions.sinh_boundary_max_distance(_SINH_VERTICES[:16]) < 1e-12


def dense_boundary_distance(points):
    """Oracle: distance of each point to every polygon segment, then the least."""
    v = _SINH_VERTICES
    x0, y0 = v.real, v.imag
    nxt = np.roll(v, -1)
    dx = (nxt.real - x0)[None, :]
    dy = (nxt.imag - y0)[None, :]
    denom = dx * dx + dy * dy
    pts = np.asarray(points, dtype=np.complex128).ravel()
    out = np.empty(pts.size, dtype=float)
    for lo in range(0, pts.size, 1024):
        chunk = pts[lo : lo + 1024]
        px = chunk.real[:, None] - x0[None, :]
        py = chunk.imag[:, None] - y0[None, :]
        t = np.clip((px * dx + py * dy) / np.where(denom == 0, 1.0, denom), 0.0, 1.0)
        out[lo : lo + 1024] = np.hypot(px - t * dx, py - t * dy).min(axis=1)
    return out


def _distance_points(seed):
    """Samples near and far from the curve, vertices, and non-finite points."""
    rng = np.random.default_rng(seed)
    step = 2.0 * np.pi / regions.DEFAULT_CURVE_SAMPLES
    near = regions.sinh_boundary(rng.uniform(0.0, 2.0 * np.pi, 800)) * rng.uniform(0.9, 1.1, 800)
    koebe = NormalizedFunction.from_tail([n * 0.45 ** (n - 1) for n in range(2, 33)], order=32)
    images = koebe.ratio_values(0.99 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 900))) - 1.0
    inf, nan = np.inf, np.nan
    return np.concatenate([
        near, images, rng.normal(0.0, 3.0, 600) + 1j * rng.normal(0.0, 3.0, 600),
        _SINH_VERTICES[::97], regions.sinh_boundary((np.arange(0, 4096, 131) + 0.5) * step),
        [0.0, 1e12, -1e12j, 1e200, nan, complex(nan, 1.0), inf, -inf, complex(0.0, -inf),
         complex(inf, inf), complex(-inf, nan), complex(inf, -inf)]])


def _single_point_distances(points):
    """The distance of each point alone, through one-point calls."""
    return np.array([regions.sinh_boundary_max_distance(points[i : i + 1])
                     for i in range(points.size)])


@pytest.mark.parametrize("seed", [0, 1])
def test_boundary_distance_sieve_matches_dense_scan(seed):
    # one point at a time, only the block sieve acts
    pts = _distance_points(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(_single_point_distances(pts), dense_boundary_distance(pts),
                              equal_nan=True)
    with pytest.raises(ValueError):
        regions.sinh_boundary_max_distance(pts[:0])


@pytest.mark.parametrize("block", [1, 8, 32, 64, 4096])
def test_boundary_distance_sieve_at_any_block_size_matches_dense_scan(block, monkeypatch):
    # the blocks tile the polygon, so a size must divide its vertex count
    assert regions.DEFAULT_CURVE_SAMPLES % regions._SEGMENT_BLOCK == 0
    assert regions.DEFAULT_CURVE_SAMPLES % block == 0
    monkeypatch.setattr(regions, "_SEGMENT_BLOCK", block)
    pts = _distance_points(block)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(_single_point_distances(pts), dense_boundary_distance(pts),
                              equal_nan=True)


@pytest.mark.parametrize("block", [1, 8, 64, 128, 4096])
def test_boundary_max_distance_is_the_largest_distance(block, monkeypatch):
    # bit for bit, NaN included, over the mixed samples and slices of them,
    # more than one chunk of points among them
    assert regions.DEFAULT_CURVE_SAMPLES % block == 0
    monkeypatch.setattr(regions, "_SEGMENT_BLOCK", block)
    pts = _distance_points(block)
    assert pts.size > 2 * regions._CHUNK
    for sub in (pts, pts[:-12], pts[:800], pts[800:1700], pts[-12:], pts[:1]):
        with np.errstate(over="ignore", invalid="ignore"):
            sieved, dense = regions.sinh_boundary_max_distance(sub), np.max(dense_boundary_distance(sub))
        assert np.array_equal(sieved, dense, equal_nan=True)


# clouds of points around a random centre on, inside or outside the curve
_clouds = st.tuples(
    st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 3.0), st.floats(1e-12, 10.0),
    st.integers(1, 2500), st.integers(0, 2 ** 32 - 1))


@settings(max_examples=30, deadline=None)
@given(_clouds)
def test_boundary_max_distance_of_point_clouds_matches_dense_scan(cloud):
    angle, scale, spread, size, seed = cloud
    rng = np.random.default_rng(seed)
    centre = scale * regions.sinh_boundary(angle)
    pts = centre + spread * (rng.normal(size=size) + 1j * rng.normal(size=size))
    assert np.array_equal(regions.sinh_boundary_max_distance(pts),
                          np.max(dense_boundary_distance(pts)))


def _outcome(fn, points):
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return fn(points)
    except FloatingPointError as exc:
        return f"FloatingPointError: {exc}"


@pytest.mark.parametrize("size", [1e300, 5e305, 5e307, 8e307, 9e307, 1.5e308])
def test_boundary_distance_sieve_at_extreme_points_matches_dense_scan(size):
    # equal distances or the same exception, for the whole set and for each point
    pts = np.concatenate([_SINH_VERTICES[:5] * 3.0, size * np.exp(1j * np.arange(4) * 0.7)])
    for sub in [pts] + [pts[i : i + 1] for i in range(pts.size)]:
        sieved = _outcome(regions.sinh_boundary_max_distance, sub)
        assert sieved == _outcome(lambda p: np.max(dense_boundary_distance(p)), sub)


def test_janowski_boundary_circle():
    w = regions.janowski_boundary(0.0, 1.0, 0.0)
    assert w == pytest.approx(2.0)
    w = regions.janowski_boundary(np.pi, 0.5, -0.5)
    assert w == pytest.approx((1 - 0.5) / (1 + 0.5))
