import math

import numpy as np
import pytest

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


# the vertices of the polygon that sinh_boundary_distance measures against
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
        assert np.max(regions.sinh_boundary_distance(midway)) > 100 * regions.BOUNDARY_TOL


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


def test_boundary_distance_zero_on_vertices():
    d = regions.sinh_boundary_distance(_SINH_VERTICES[:16])
    assert np.max(d) < 1e-12


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


@pytest.mark.parametrize("seed", [0, 1])
def test_boundary_distance_sieve_matches_dense_scan(seed):
    pts = _distance_points(seed)
    assert pts.size > 2 * regions._CHUNK
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(regions.sinh_boundary_distance(pts), dense_boundary_distance(pts),
                              equal_nan=True)
    assert regions.sinh_boundary_distance(pts[:0]).shape == (0,)


@pytest.mark.parametrize("block", [1, 8, 32, 4096])
def test_boundary_distance_sieve_at_any_block_size_matches_dense_scan(block, monkeypatch):
    # the blocks tile the polygon, so a size must divide its vertex count
    assert regions.DEFAULT_CURVE_SAMPLES % regions._SEGMENT_BLOCK == 0
    assert regions.DEFAULT_CURVE_SAMPLES % block == 0
    monkeypatch.setattr(regions, "_SEGMENT_BLOCK", block)
    pts = _distance_points(block)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(regions.sinh_boundary_distance(pts), dense_boundary_distance(pts),
                              equal_nan=True)


@pytest.mark.parametrize("block", [1, 64, 128, 4096])
def test_boundary_max_distance_is_the_largest_distance(block, monkeypatch):
    # bit for bit, NaN included, over the mixed samples and slices of them
    assert regions.DEFAULT_CURVE_SAMPLES % regions._POINT_BLOCK == 0
    monkeypatch.setattr(regions, "_POINT_BLOCK", block)
    pts = _distance_points(block)
    for sub in (pts, pts[:-12], pts[:800], pts[800:1700], pts[-12:], pts[:1]):
        with np.errstate(over="ignore", invalid="ignore"):
            sieved, dense = regions.sinh_boundary_max_distance(sub), np.max(dense_boundary_distance(sub))
        assert np.array_equal(sieved, dense, equal_nan=True)


def _outcome(fn, points):
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return fn(points)
    except FloatingPointError as exc:
        return f"FloatingPointError: {exc}"


@pytest.mark.parametrize("size", [1e300, 5e305, 5e307, 8e307, 9e307, 1.5e308])
def test_boundary_distance_sieve_at_extreme_points_matches_dense_scan(size):
    # equal distances or the same exception
    pts = np.concatenate([_SINH_VERTICES[:5] * 3.0, size * np.exp(1j * np.arange(4) * 0.7)])
    sieved, dense = _outcome(regions.sinh_boundary_distance, pts), _outcome(dense_boundary_distance, pts)
    if isinstance(dense, str):
        assert sieved == dense
        assert _outcome(regions.sinh_boundary_max_distance, pts) == dense
    else:
        assert np.array_equal(sieved, dense)
        assert _outcome(regions.sinh_boundary_max_distance, pts) == np.max(dense)


def test_janowski_boundary_circle():
    w = regions.janowski_boundary(0.0, 1.0, 0.0)
    assert w == pytest.approx(2.0)
    w = regions.janowski_boundary(np.pi, 0.5, -0.5)
    assert w == pytest.approx((1 - 0.5) / (1 + 0.5))
