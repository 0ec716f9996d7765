"""Grid maximization helpers: local zoom refinement and golden-section polish."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Interval width below which golden-section iteration stops.
STEP_FLOOR = 1e-10

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


def refine_grid_max(fn_vec: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                    samples: int) -> tuple[float, float]:
    """Grid maximization with iterated local zoom around the running argmax.

    ``fn_vec`` maps an array of abscissae to an array of values.  Each of the
    ``ZOOM_LEVELS`` levels re-grids a window of two coarse cells around the
    argmax at ``ZOOM_FACTOR`` times the local resolution.
    """
    xs = np.linspace(lo, hi, samples)
    vals = np.asarray(fn_vec(xs), dtype=float)
    i = int(np.argmax(vals))
    best_x, best_f = float(xs[i]), float(vals[i])
    width = (hi - lo) / max(samples - 1, 1)
    for _ in range(ZOOM_LEVELS):
        a = max(lo, best_x - width)
        b = min(hi, best_x + width)
        xs = np.linspace(a, b, 2 * ZOOM_FACTOR + 1)
        vals = np.asarray(fn_vec(xs), dtype=float)
        i = int(np.argmax(vals))
        if vals[i] > best_f:
            best_x, best_f = float(xs[i]), float(vals[i])
        width = (b - a) / (2 * ZOOM_FACTOR)
    return best_x, best_f


def refine_grid_max_2d(fn_vec: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       xlim: tuple[float, float], ylim: tuple[float, float],
                       shape: tuple[int, int]) -> tuple[float, tuple[float, float]]:
    """Two-dimensional analogue of :func:`refine_grid_max`.

    ``fn_vec`` receives meshgrid arrays and returns values of the same shape.
    Returns (max value, (x, y) argmax).
    """
    (xlo, xhi), (ylo, yhi) = xlim, ylim
    nx, ny = shape
    xs = np.linspace(xlo, xhi, nx)
    ys = np.linspace(ylo, yhi, ny)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    vals = np.asarray(fn_vec(xx, yy), dtype=float)
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    best = float(vals[i, j])
    bx, by = float(xs[i]), float(ys[j])
    wx = (xhi - xlo) / max(nx - 1, 1)
    wy = (yhi - ylo) / max(ny - 1, 1)
    for _ in range(ZOOM_LEVELS):
        ax, bx_hi = max(xlo, bx - wx), min(xhi, bx + wx)
        ay, by_hi = max(ylo, by - wy), min(yhi, by + wy)
        xs = np.linspace(ax, bx_hi, 2 * ZOOM_FACTOR + 1)
        ys = np.linspace(ay, by_hi, 2 * ZOOM_FACTOR + 1)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        vals = np.asarray(fn_vec(xx, yy), dtype=float)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[i, j] > best:
            best = float(vals[i, j])
            bx, by = float(xs[i]), float(ys[j])
        wx = (bx_hi - ax) / (2 * ZOOM_FACTOR)
        wy = (by_hi - ay) / (2 * ZOOM_FACTOR)
    return best, (bx, by)


def polish_coordinatewise(fn: Callable[[np.ndarray], float], x0: np.ndarray,
                          bounds: Sequence[tuple[float, float]], rounds: int = 2,
                          iters: int = 40) -> tuple[np.ndarray, float]:
    """Coordinatewise golden-section ascent from x0 within box bounds."""
    x = np.array(x0, dtype=float)
    best = fn(x)
    for _ in range(rounds):
        for k, (lo, hi) in enumerate(bounds):
            def along(v, _k=k):
                trial = x.copy()
                trial[_k] = v
                return fn(trial)

            v, f = golden_max(along, lo, hi, iters=iters)
            if f > best:
                best = f
                x[k] = v
    return x, best
