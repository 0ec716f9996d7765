"""Closed-curve regions in the complex plane with exact containment.

The subordination targets used across the package are images of the unit
disk under a fixed univalent map; their boundaries are smooth Jordan curves.
Containment of sampled values is decided by an exact preimage test: each
region carries a signed margin, negative inside, positive outside and zero on
the curve (``sinh_margin``, ``sqrt_disk_margin``).  A dense polygon along the
boundary is kept for distances to the curve and for the anchor radii.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

DEFAULT_CURVE_SAMPLES = 4096

#: Samples whose margin is at most this in absolute value are ambiguous.
BOUNDARY_TOL = 1e-9

_CHUNK = 1024


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


class CurveRegion:
    """Region bounded by a closed Jordan curve, with an exact margin.

    Parameters
    ----------
    vertices:
        Complex vertices of the closed loop, without a repeated endpoint;
        used for distances to the curve and for the anchor radii.
    margin:
        Signed margin of the region, vectorized over complex points:
        negative inside, positive outside, zero on the curve.
    anchor:
        A point known to lie inside the region.
    """

    def __init__(self, vertices: np.ndarray, margin: Callable[[np.ndarray], np.ndarray],
                 anchor: complex = 0.0):
        v = np.asarray(vertices, dtype=np.complex128)
        if v.size < 8:
            raise ValueError("need at least 8 boundary vertices")
        self.vertices = v
        self.margin = margin
        self.anchor = complex(anchor)
        self._x0 = v.real
        self._y0 = v.imag
        nxt = np.roll(v, -1)
        self._x1 = nxt.real
        self._y1 = nxt.imag
        if not self.contains(np.array([self.anchor])):
            raise ValueError("anchor must lie strictly inside the curve")
        self._r_in = float(self.boundary_distance(np.array([self.anchor]))[0])
        self._r_out = float(np.max(np.abs(v - self.anchor)))

    @property
    def inner_radius(self) -> float:
        """Largest disk about the anchor contained in the polygon."""
        return self._r_in

    @property
    def outer_radius(self) -> float:
        """Smallest disk about the anchor containing the polygon."""
        return self._r_out

    @classmethod
    def from_boundary(cls, boundary, margin: Callable[[np.ndarray], np.ndarray],
                      samples: int = DEFAULT_CURVE_SAMPLES,
                      anchor: complex = 0.0) -> "CurveRegion":
        t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        return cls(boundary(t), margin, anchor=anchor)

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance from each query point to the polygonal boundary."""
        pts = np.asarray(points, dtype=np.complex128).ravel()
        out = np.empty(pts.size, dtype=float)
        for lo in range(0, pts.size, _CHUNK):
            chunk = pts[lo : lo + _CHUNK]
            ax, ay = self._x0[None, :], self._y0[None, :]
            dx = (self._x1 - self._x0)[None, :]
            dy = (self._y1 - self._y0)[None, :]
            px = chunk.real[:, None] - ax
            py = chunk.imag[:, None] - ay
            denom = dx * dx + dy * dy
            t = np.clip((px * dx + py * dy) / np.where(denom == 0, 1.0, denom), 0.0, 1.0)
            out[lo : lo + _CHUNK] = np.hypot(px - t * dx, py - t * dy).min(axis=1)
        return out

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
    return CurveRegion.from_boundary(sinh_boundary, sinh_margin, anchor=0.0)


@functools.cache
def sqrt_disk_region() -> CurveRegion:
    """Cached region sqrt(1 + unit disk), anchored at 1."""
    return CurveRegion.from_boundary(sqrt_disk_boundary, sqrt_disk_margin, anchor=1.0)
