"""Closed-curve regions in the complex plane with exact containment.

The subordination targets used across the package are images of the unit
disk under a fixed univalent map; their boundaries are smooth Jordan curves.
Containment of sampled values is decided by an exact preimage test: each
region carries a signed margin, negative inside, positive outside and zero on
the curve (``sinh_margin``, ``sqrt_disk_margin``), and a disk inside it where
the margin need not be computed.  The only polygon left is
the one ``sinh_boundary_max_distance`` builds along the boundary of sinh(D)
for the largest distance of a set of points to that curve.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

DEFAULT_CURVE_SAMPLES = 4096

#: Samples whose margin is at most this in absolute value are ambiguous.
BOUNDARY_TOL = 1e-9

_CHUNK = 1024

#: Polygon segments per block of the distance sieve; it divides
#: ``DEFAULT_CURVE_SAMPLES``.  Any such size gives the dense scan's bits; on
#: the outside samples of the benchmark's membership inputs 64 was the fastest
#: (32 and 128 were slower).
_SEGMENT_BLOCK = 64


def sinh_boundary(t):
    """Boundary curve of the sinh image of the unit disk: sinh(e^(it))."""
    return np.sinh(np.exp(1j * np.asarray(t, dtype=float)))


def sqrt_disk_boundary(t):
    """Boundary of the principal sqrt image of the disk centered at 1: sqrt(1 + e^(it))."""
    return np.sqrt(1.0 + np.exp(1j * np.asarray(t, dtype=float)))


def janowski_boundary(t, a: float, b: float):
    """Boundary circle (1 + A e^(it)) / (1 + B e^(it))."""
    e = np.exp(1j * np.asarray(t, dtype=float))
    return (1.0 + a * e) / (1.0 + b * e)


def sinh_margin(w: np.ndarray) -> np.ndarray:
    """Signed margin |asinh w| - 1 of sinh(unit disk).

    sinh(D) stays off the branch cuts of the principal asinh, which
    therefore inverts sinh on it.
    """
    return np.abs(np.arcsinh(w)) - 1.0


def sqrt_disk_margin(w: np.ndarray) -> np.ndarray:
    """Signed margin of sqrt(1 + unit disk): |w^2 - 1| - 1 where Re w > 0.

    A point with Re w <= 0 is outside; its margin is at least -Re w, a lower
    bound on its distance to the region, so the boundary of the left
    lemniscate loop is not ambiguous, while the origin, where the loops meet,
    stays ambiguous from either side.
    """
    with np.errstate(invalid="ignore"):  # inf * inf; the margin comes out NaN or inf
        m = np.abs(w * w - 1.0) - 1.0
    return np.where(w.real > 0, m, np.maximum(np.abs(m), -w.real))


def sinh_boundary_max_distance(points: np.ndarray) -> float:
    """Largest distance from ``points`` to the boundary of sinh(unit disk); ``points`` is non-empty.

    The curve is taken as the polygon through ``DEFAULT_CURVE_SAMPLES``
    equally spaced vertices ``sinh_boundary(t)``, its segments cut into blocks
    of ``_SEGMENT_BLOCK``.  A block lies within R of its centre vertex c, R the
    largest distance from c to the block's vertices, so over the blocks the
    least |p - c| bounds the distance of p from above and the least |p - c| - R
    from below.  With a slack of 1e-9 (1 + |p|), far above the round-off of
    either side, a point whose upper bound plus slack is below the largest
    lower bound less its slack cannot hold the maximum, and for a point left,
    a block whose lower bound exceeds the point's upper bound plus slack cannot
    hold its nearest segment.  Only the remaining segments are measured, by the
    dense scan's formula, which gives the dense scan's bits; NaN and infinite
    points keep every block.  The bounds ignore floating-point errors; the
    measure runs under the caller's ``np.errstate``.
    """
    v = sinh_boundary(np.linspace(0.0, 2.0 * np.pi, DEFAULT_CURVE_SAMPLES, endpoint=False))
    step = np.roll(v, -1) - v  # no segment has length 0
    blocks = DEFAULT_CURVE_SAMPLES // _SEGMENT_BLOCK
    x0, y0, dx, dy = (a.reshape(blocks, _SEGMENT_BLOCK)
                      for a in (v.real, v.imag, step.real, step.imag))
    denom = dx * dx + dy * dy
    centres = v[_SEGMENT_BLOCK // 2 :: _SEGMENT_BLOCK]
    corners = np.append(v, v[0])[np.arange(blocks)[:, None] * _SEGMENT_BLOCK
                                 + np.arange(_SEGMENT_BLOCK + 1)]
    radii = np.abs(corners - centres[:, None]).max(axis=1)
    pts = np.asarray(points, dtype=np.complex128).ravel()
    upper = np.empty(pts.size)
    lower = np.empty(pts.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, pts.size, _CHUNK):
            dc = np.abs(pts[lo : lo + _CHUNK, None] - centres[None, :])
            upper[lo : lo + _CHUNK] = dc.min(axis=1)
            lower[lo : lo + _CHUNK] = (dc - radii[None, :]).min(axis=1)
        slack = 1e-9 * (1.0 + np.abs(pts))
        threshold = upper + slack
        keep = ~(threshold < np.max(lower - slack))
    pts, threshold = pts[keep], threshold[keep]
    out = np.empty(pts.size)
    for lo in range(0, pts.size, _CHUNK):
        chunk = pts[lo : lo + _CHUNK]
        with np.errstate(over="ignore", invalid="ignore"):
            dc = np.abs(chunk[:, None] - centres[None, :])
            near = ~(dc - radii[None, :] > threshold[lo : lo + _CHUNK, None])
        p, b = np.nonzero(near)
        px = chunk.real[p, None] - x0[b]
        py = chunk.imag[p, None] - y0[b]
        t = np.clip((px * dx[b] + py * dy[b]) / denom[b], 0.0, 1.0)
        d = np.hypot(px - t * dx[b], py - t * dy[b]).min(axis=1)
        out[lo : lo + _CHUNK] = np.minimum.reduceat(d, np.searchsorted(p, np.arange(chunk.size)))
    return float(np.max(out))


class CurveRegion:
    """Region bounded by a closed Jordan curve, given by an exact margin.

    Parameters
    ----------
    margin:
        Signed margin of the region, vectorized over complex points:
        negative inside, positive outside, zero on the curve.
    anchor:
        A point known to lie inside the region.
    inner_radius:
        The radius of a disk about ``anchor`` on which the margin is at most
        -1e-3.  ``classify`` calls a point of that disk inside without
        computing its margin: a margin at most -1e-3 is negative and far more
        than ``BOUNDARY_TOL`` from 0, and the round-off of the margin or of
        |w - anchor| is far below that gap, so the point is inside and not
        ambiguous either way.  The default 0 gives the empty disk.
    """

    def __init__(self, margin: Callable[[np.ndarray], np.ndarray], anchor: complex = 0.0,
                 inner_radius: float = 0.0):
        self.margin = margin
        self.anchor = complex(anchor)
        self.inner_radius = float(inner_radius)
        if not margin(np.array([self.anchor]))[0] < -BOUNDARY_TOL:
            raise ValueError("anchor must lie strictly inside the curve")

    def classify(self, points: np.ndarray):
        """Classify points as strictly inside, with an ambiguity mask.

        Returns ``(inside, ambiguous)`` boolean arrays.  A point is
        ambiguous when its margin is at most ``BOUNDARY_TOL`` in absolute
        value; ambiguous points are not counted as inside.  NaN and
        infinite points are outside and not ambiguous.  Only the points
        outside the inner disk have their margin computed.
        """
        pts = np.asarray(points, dtype=np.complex128).ravel()
        inside = np.abs(pts - self.anchor) < self.inner_radius
        rest = np.flatnonzero(~inside)
        m = self.margin(pts[rest])
        inside[rest] = m < -BOUNDARY_TOL
        ambiguous = np.zeros(pts.size, dtype=bool)
        ambiguous[rest] = np.abs(m) <= BOUNDARY_TOL
        return inside, ambiguous

    def contains(self, points: np.ndarray) -> np.ndarray:
        """For each row of ``points`` (its last axis), True when every point is strictly
        inside and none is ambiguous; one ``classify`` call for all rows."""
        shape = np.shape(points)
        inside, ambiguous = self.classify(points)
        return (inside & ~ambiguous).reshape(shape).all(axis=-1)


@functools.cache
def sinh_region() -> CurveRegion:
    """Cached region sinh(unit disk), anchored at 0.

    Its inner disk is |w| < sin 0.999.  The least |sinh| on the circle
    |zeta| = rho is sin rho, at zeta = +-i rho: on the circle,
    |sinh(x + iy)|^2 = (cosh a - cos b)/2 with a = 2|x|, b = sqrt(4 rho^2 - a^2),
    and its derivative in a^2 is (sinh(a)/a - sin(b)/b)/4 >= 0, so the least
    is at x = 0.  sinh is univalent on the unit disk, so it maps the disk
    |zeta| < rho onto a domain whose boundary keeps |w| >= sin rho, which holds
    |w| < sin rho.  Every such w (rho = 0.999) is sinh(zeta) with |zeta| < 0.999,
    and its margin |asinh w| - 1 = |zeta| - 1 is below -1e-3.
    """
    return CurveRegion(sinh_margin, anchor=0.0, inner_radius=math.sin(0.999))


@functools.cache
def sqrt_disk_region() -> CurveRegion:
    """Cached region sqrt(1 + unit disk), anchored at 1.

    Its inner disk is |w - 1| < 0.999 (sqrt 2 - 1), a disk of radius
    delta < sqrt 2 - 1, the distance from 1 to the curve.  With w = 1 + d
    and |d| < delta, Re w > 0 and |w^2 - 1| = |2d + d^2| < (1 + delta)^2 - 1,
    so the margin |w^2 - 1| - 1 is below (1 + delta)^2 - 2 = -0.00117.
    """
    return CurveRegion(sqrt_disk_margin, anchor=1.0,
                       inner_radius=0.999 * (math.sqrt(2.0) - 1.0))
