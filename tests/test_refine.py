import numpy as np
import pytest

from gshlab.refine import ZOOM_FACTOR, ZOOM_LEVELS, grid_golden_max, refine_grid_max


def bump(x, y=0.0, centre=(0.3141, 0.2718)):
    return np.exp(-((x - centre[0]) ** 2 + 2.0 * (y - centre[1]) ** 2))


def last_cell(lo, hi, samples):
    return (hi - lo) / (samples - 1) / ZOOM_FACTOR ** ZOOM_LEVELS


def test_refine_grid_max_finds_off_grid_argmax_on_one_axis():
    value, (x,) = refine_grid_max(bump, [(-1.0, 1.0)], (21,))
    assert abs(x - 0.3141) <= last_cell(-1.0, 1.0, 21)
    assert value == pytest.approx(float(bump(0.3141)), abs=1e-9)
    assert value == float(bump(x))


def test_refine_grid_max_finds_off_grid_argmax_on_two_axes():
    value, (x, y) = refine_grid_max(bump, [(-1.0, 1.0), (0.0, 1.0)], (21, 11))
    assert abs(x - 0.3141) <= last_cell(-1.0, 1.0, 21)
    assert abs(y - 0.2718) <= last_cell(0.0, 1.0, 11)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_one_axis_equals_two_axes_with_an_ignored_axis():
    one = refine_grid_max(bump, [(-1.0, 1.0)], (21,))
    two = refine_grid_max(lambda x, _: bump(x), [(-1.0, 1.0), (0.0, 1.0)], (21, 11))
    assert one[0] == two[0]
    assert one[1][0] == two[1][0]


def test_refine_grid_max_never_leaves_the_box():
    # the maximum sits outside the box, so the argmax stays on its edge
    value, (x, y) = refine_grid_max(bump, [(0.5, 1.0), (0.5, 1.0)], (6, 6))
    assert (x, y) == (0.5, 0.5)
    assert value == float(bump(0.5, 0.5))


def test_grid_golden_max_never_below_the_grid_maximum():
    xs = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)

    def fn(t):
        return np.cos(3.0 * t - 0.4) + 0.2 * np.sin(7.0 * t)

    x, v = grid_golden_max(fn, xs, xs[1] - xs[0])
    assert v >= float(np.max(fn(xs)))
    assert v == float(fn(np.array([x]))[0])


def test_grid_golden_max_keeps_a_spike_on_a_grid_point():
    xs = np.linspace(-1.0, 1.0, 41)
    spike = xs[17]

    def fn(t):
        return np.where(t == spike, 5.0, -np.abs(t))

    x, v = grid_golden_max(fn, xs, xs[1] - xs[0])
    assert (x, v) == (float(spike), 5.0)
