"""Local refinement of maxima: golden section and coordinatewise polish.

* :func:`golden_max` maximizes a function of one variable on a bracket by
  golden section and returns the best point it evaluated.
* :func:`grid_golden_max` takes the argmax of a vectorized function on a
  1-d grid and polishes it by golden section within one grid step
  (sufficient membership statistic, circle extrema of |sinh| and |cosh|).
* :func:`polish_coordinatewise` runs golden-section ascent one coordinate
  at a time inside box bounds (the scan, kernel-minimum and h22-envelope
  polish, each from the argmax of its own grid).

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
