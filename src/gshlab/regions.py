"""Closed-curve regions in the complex plane with exact containment.

The subordination targets used across the package are images of the unit
disk under a fixed univalent map; their boundaries are smooth Jordan curves.
Containment of sampled values is decided by an exact preimage test: each
region carries a signed margin, negative inside, positive outside and zero on
the curve (``sinh_margin``, ``sqrt_disk_margin``).  The only polygon left is
the one ``sinh_boundary_distance`` builds along the boundary of sinh(D) for
distances to that curve.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

DEFAULT_CURVE_SAMPLES = 4096

#: Samples whose margin is at most this in absolute value are ambiguous.
BOUNDARY_TOL = 1e-9

_CHUNK = 1024

#: Polygon segments per block of the distance sieve.
_SEGMENT_BLOCK = 16


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


def sinh_boundary_distance(points: np.ndarray) -> np.ndarray:
    """Distance from each point to the boundary of sinh(unit disk).

    The curve is taken as the polygon through ``DEFAULT_CURVE_SAMPLES``
    equally spaced vertices ``sinh_boundary(t)``.  Its segments are cut into
    blocks of ``_SEGMENT_BLOCK``; a block lies within R of its centre vertex
    c, R the largest distance from c to the block's vertices, so |p - c| - R
    bounds the distance of p to each of its segments from below, and the
    least |p - c| over all blocks bounds the point's distance from above.
    Only the blocks whose lower bound does not exceed that upper bound by
    more than a slack of 1e-9 (1 + |p|), far above the round-off of either
    side, are measured, by the formula of the dense scan.  A block left out
    is strictly farther than the nearest segment, so the minimum has the
    bits of the dense scan; NaN and infinite points keep every block.
    """
    v = sinh_boundary(np.linspace(0.0, 2.0 * np.pi, DEFAULT_CURVE_SAMPLES, endpoint=False))
    x0, y0 = v.real, v.imag
    nxt = np.roll(v, -1)
    dx = nxt.real - x0
    dy = nxt.imag - y0
    denom = dx * dx + dy * dy
    denom = np.where(denom == 0, 1.0, denom)
    blocks = DEFAULT_CURVE_SAMPLES // _SEGMENT_BLOCK
    x0, y0, dx, dy, denom = (a.reshape(blocks, _SEGMENT_BLOCK) for a in (x0, y0, dx, dy, denom))
    centres = v[_SEGMENT_BLOCK // 2 :: _SEGMENT_BLOCK]
    corners = np.append(v, v[0])[np.arange(blocks)[:, None] * _SEGMENT_BLOCK
                                 + np.arange(_SEGMENT_BLOCK + 1)]
    radii = np.abs(corners - centres[:, None]).max(axis=1)
    pts = np.asarray(points, dtype=np.complex128).ravel()
    out = np.empty(pts.size, dtype=float)
    for lo in range(0, pts.size, _CHUNK):
        chunk = pts[lo : lo + _CHUNK]
        with np.errstate(over="ignore", invalid="ignore"):
            dc = np.abs(chunk[:, None] - centres[None, :])
            threshold = dc.min(axis=1) + 1e-9 * (1.0 + np.abs(chunk))
            keep = ~(dc - radii[None, :] > threshold[:, None])
        p, b = np.nonzero(keep)
        px = chunk.real[p, None] - x0[b]
        py = chunk.imag[p, None] - y0[b]
        t = np.clip((px * dx[b] + py * dy[b]) / denom[b], 0.0, 1.0)
        d = np.hypot(px - t * dx[b], py - t * dy[b]).min(axis=1)
        out[lo : lo + _CHUNK] = np.minimum.reduceat(d, np.searchsorted(p, np.arange(chunk.size)))
    return out


class CurveRegion:
    """Region bounded by a closed Jordan curve, given by an exact margin.

    Parameters
    ----------
    margin:
        Signed margin of the region, vectorized over complex points:
        negative inside, positive outside, zero on the curve.
    anchor:
        A point known to lie inside the region.
    """

    def __init__(self, margin: Callable[[np.ndarray], np.ndarray], anchor: complex = 0.0):
        self.margin = margin
        self.anchor = complex(anchor)
        if not self.contains(np.array([self.anchor])):
            raise ValueError("anchor must lie strictly inside the curve")

    def classify(self, points: np.ndarray):
        """Classify points as strictly inside, with an ambiguity mask.

        Returns ``(inside, ambiguous)`` boolean arrays.  A point is
        ambiguous when its margin is at most ``BOUNDARY_TOL`` in absolute
        value; ambiguous points are not counted as inside.  NaN and
        infinite points are outside and not ambiguous.
        """
        m = self.margin(np.asarray(points, dtype=np.complex128).ravel())
        ambiguous = np.abs(m) <= BOUNDARY_TOL
        return (m < 0) & ~ambiguous, ambiguous

    def contains(self, points: np.ndarray) -> bool:
        """True when every point is strictly inside and none is ambiguous."""
        inside, ambiguous = self.classify(points)
        return bool(np.all(inside) and not np.any(ambiguous))


@functools.cache
def sinh_region() -> CurveRegion:
    """Cached region sinh(unit disk), anchored at 0."""
    return CurveRegion(sinh_margin, anchor=0.0)


@functools.cache
def sqrt_disk_region() -> CurveRegion:
    """Cached region sqrt(1 + unit disk), anchored at 1."""
    return CurveRegion(sqrt_disk_margin, anchor=1.0)
