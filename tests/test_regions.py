import numpy as np
import pytest

from gshlab import regions


def test_sinh_boundary_values():
    assert regions.sinh_boundary(0.0) == pytest.approx(np.sinh(1.0))
    assert regions.sinh_boundary(np.pi / 2) == pytest.approx(1j * np.sin(1.0))


def test_sqrt_boundary_closes_through_zero():
    # float evaluation of 1 + e^(i pi) leaves a ~1e-16 residue under the root
    assert abs(regions.sqrt_disk_boundary(np.pi)) < 1e-7
    assert regions.sqrt_disk_boundary(0.0) == pytest.approx(np.sqrt(2.0))


def test_region_rejects_outside_anchor():
    with pytest.raises(ValueError):
        regions.CurveRegion.from_boundary(regions.sinh_boundary, regions.sinh_margin,
                                          anchor=5.0)


def test_classify_anchor_and_far_point():
    region = regions.sinh_region()
    inside, ambiguous = region.classify(np.array([region.anchor, 10.0 + 0j]))
    assert list(inside) == [True, False]
    assert not np.any(ambiguous)


def test_radial_prefilter_bounds():
    region = regions.sinh_region()
    assert region.inner_radius == pytest.approx(np.sin(1.0), abs=1e-5)
    assert region.outer_radius == pytest.approx(np.sinh(1.0), abs=1e-5)


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


def test_points_near_curve_are_ambiguous():
    # a vertex lies on the true curve; ambiguity is measured by the margin
    # |asinh w| - 1, which a 1e-12 shift moves by about 1e-12
    region = regions.sinh_region()
    w = region.vertices[37] + 1e-12
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
    # midway between two vertices the true curve sits up to about 5e-6 off
    # the polygon's chord, mostly far beyond BOUNDARY_TOL
    region = region_fn()
    step = 2.0 * np.pi / region.vertices.size
    inside, ambiguous = region.classify(boundary((np.arange(region.vertices.size) + 0.5) * step))
    assert np.all(ambiguous)
    assert not np.any(inside)


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
    region = regions.sinh_region()
    d = region.boundary_distance(region.vertices[:16])
    assert np.max(d) < 1e-12


def test_janowski_boundary_circle():
    w = regions.janowski_boundary(0.0, 1.0, 0.0)
    assert w == pytest.approx(2.0)
    w = regions.janowski_boundary(np.pi, 0.5, -0.5)
    assert w == pytest.approx((1 - 0.5) / (1 + 0.5))
