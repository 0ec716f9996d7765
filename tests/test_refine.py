import numpy as np
import pytest

from gshlab.refine import grid_golden_max, polish_coordinatewise


def bump(x, y=0.0, centre=(0.3141, 0.2718)):
    return np.exp(-((x - centre[0]) ** 2 + 2.0 * (y - centre[1]) ** 2))


def grid_then_polish(limits, shape):
    """Argmax of ``bump`` on a grid over the box, polished coordinatewise inside it."""
    axes = np.meshgrid(*(np.linspace(lo, hi, n) for (lo, hi), n in zip(limits, shape)),
                       indexing="ij")
    idx = np.unravel_index(np.argmax(bump(*axes)), axes[0].shape)
    x, value = polish_coordinatewise(lambda p: float(bump(*p)),
                                     np.array([ax[idx] for ax in axes]), limits)
    return value, tuple(x)


def test_refine_grid_max_finds_off_grid_argmax_on_two_axes():
    value, (x, y) = grid_then_polish([(-1.0, 1.0), (0.0, 1.0)], (21, 11))
    # neither coordinate of the maximum lies on the grid
    assert abs(x - 0.3141) <= 1e-6
    assert abs(y - 0.2718) <= 1e-6
    assert value == pytest.approx(1.0, abs=1e-9)
    assert value == float(bump(x, y))


def test_refine_grid_max_never_leaves_the_box():
    # the maximum sits outside the box, so the argmax stays on its edge
    value, (x, y) = grid_then_polish([(0.5, 1.0), (0.5, 1.0)], (6, 6))
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
