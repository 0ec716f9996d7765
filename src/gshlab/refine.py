"""Local refinement of maxima: zoomed grids, golden section, coordinatewise polish.

* :func:`golden_max` maximizes a function of one variable on a bracket by
  golden section and returns the best point it evaluated.
* :func:`grid_golden_max` takes the argmax of a vectorized function on a
  1-d grid and polishes it by golden section within one grid step
  (sufficient membership statistic, circle extrema of |sinh| and |cosh|).
* :func:`refine_grid_max` maximizes a vectorized function on a box of any
  dimension by a grid and ``ZOOM_LEVELS`` local zooms around the running
  argmax (the h22 envelope).
* :func:`polish_coordinatewise` runs golden-section ascent one coordinate
  at a time inside box bounds (the scan and kernel-minimum polish).

Minimization is maximization of the negated function.  Every routine keeps
the best value it has evaluated, so a refinement never reports less than
its starting grid or point.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Interval width below which golden-section iteration stops.
STEP_FLOOR = 1e-10

#: Golden-section steps per coordinate of :func:`polish_coordinatewise`.
POLISH_ITERS = 40

#: Grid zoom: refinement levels, and the resolution gain of each level.
ZOOM_LEVELS = 4
ZOOM_FACTOR = 8


def golden_max(fn: Callable[[float], float], lo: float, hi: float,
               iters: int = 80) -> tuple[float, float]:
    """Golden-section maximization of fn on [lo, hi].

    Returns the best (x, fn(x)) among all evaluated points, so the result
    never degrades even when fn is not unimodal on the bracket.
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    for _ in range(iters):
        if b - a < STEP_FLOOR:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
        if fc > best_f:
            best_x, best_f = c, fc
        if fd > best_f:
            best_x, best_f = d, fd
    return best_x, best_f


def grid_golden_max(fn_vec: Callable[[np.ndarray], np.ndarray], xs: np.ndarray,
                    step: float) -> tuple[float, float]:
    """Grid argmax of ``fn_vec`` over ``xs``, polished by golden section.

    The polish runs on the bracket of one ``step`` either side of the grid
    argmax.  Returns (x, fn(x)); the grid point is kept unless the polish
    strictly beats it, so the result is never below the grid maximum.
    """
    vals = fn_vec(xs)
    i = int(np.argmax(vals))
    x, v = golden_max(lambda t: float(fn_vec(np.array([t]))[0]), xs[i] - step, xs[i] + step)
    if vals[i] > v:
        x, v = float(xs[i]), float(vals[i])
    return x, v


def refine_grid_max(fn_vec: Callable[..., np.ndarray],
                    limits: Sequence[tuple[float, float]],
                    shape: Sequence[int]) -> tuple[float, tuple[float, ...]]:
    """Grid maximization on a box with iterated local zoom around the running argmax.

    ``limits`` holds one (lo, hi) pair per axis and ``shape`` the number of
    samples along each.  ``fn_vec`` receives one ``indexing="ij"`` meshgrid
    array per axis and returns values of the same shape.  Each of the
    ``ZOOM_LEVELS`` levels re-grids a window of two cells per axis around the
    argmax, clipped to the box, at ``ZOOM_FACTOR`` times the resolution; a
    level moves the argmax only on a strict gain.  Returns (max value, argmax).
    """
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(limits, shape)]
    widths = [(hi - lo) / max(n - 1, 1) for (lo, hi), n in zip(limits, shape)]
    for level in range(ZOOM_LEVELS + 1):
        if level:
            windows = [(max(lo, x - w), min(hi, x + w))
                       for (lo, hi), x, w in zip(limits, best_at, widths)]
            axes = [np.linspace(a, b, 2 * ZOOM_FACTOR + 1) for a, b in windows]
            widths = [(b - a) / (2 * ZOOM_FACTOR) for a, b in windows]
        vals = np.asarray(fn_vec(*np.meshgrid(*axes, indexing="ij")), dtype=float)
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        if not level or vals[idx] > best:
            best = float(vals[idx])
            best_at = tuple(float(ax[k]) for ax, k in zip(axes, idx))
    return best, best_at


def polish_coordinatewise(fn: Callable[[np.ndarray], float], x0: np.ndarray,
                          bounds: Sequence[tuple[float, float]],
                          rounds: int = 2) -> tuple[np.ndarray, float]:
    """Coordinatewise golden-section ascent from x0 within box bounds."""
    x = np.array(x0, dtype=float)
    best = fn(x)
    for _ in range(rounds):
        for k, (lo, hi) in enumerate(bounds):
            def along(v, _k=k):
                trial = x.copy()
                trial[_k] = v
                return fn(trial)

            v, f = golden_max(along, lo, hi, iters=POLISH_ITERS)
            if f > best:
                best = f
                x[k] = v
    return x, best
