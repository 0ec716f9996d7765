"""Closed-curve regions in the complex plane and winding-number containment.

The subordination targets used across the package are images of the unit
disk under a fixed univalent map; their boundaries are smooth Jordan curves.
Containment of sampled values is decided against a dense polygonal
discretization of the boundary by winding number, with annulus prefilters
around an interior anchor so that points far inside or far outside are
classified without touching the polygon.
"""

from __future__ import annotations

import functools

import numpy as np

DEFAULT_CURVE_SAMPLES = 4096

#: Samples closer than this to the discretized boundary are ambiguous.
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


class CurveRegion:
    """Region bounded by a closed Jordan curve, discretized as a polygon.

    Parameters
    ----------
    vertices:
        Complex vertices of the closed loop, without a repeated endpoint.
    anchor:
        A point known to lie inside the region; used for fast radial
        prefilters before any winding computation.
    """

    def __init__(self, vertices: np.ndarray, anchor: complex = 0.0):
        v = np.asarray(vertices, dtype=np.complex128)
        if v.size < 8:
            raise ValueError("need at least 8 boundary vertices")
        self.vertices = v
        self.anchor = complex(anchor)
        self._x0 = v.real
        self._y0 = v.imag
        nxt = np.roll(v, -1)
        self._x1 = nxt.real
        self._y1 = nxt.imag
        # radial prefilter bounds about the anchor
        self._r_in = float(self.boundary_distance(np.array([self.anchor]))[0])
        self._r_out = float(np.max(np.abs(v - self.anchor)))
        if self._r_in <= 0 or self.winding(np.array([self.anchor]))[0] == 0:
            raise ValueError("anchor must lie strictly inside the curve")

    @property
    def inner_radius(self) -> float:
        """Largest disk about the anchor contained in the region."""
        return self._r_in

    @property
    def outer_radius(self) -> float:
        """Smallest disk about the anchor containing the region."""
        return self._r_out

    @classmethod
    def from_boundary(cls, boundary, samples: int = DEFAULT_CURVE_SAMPLES,
                      anchor: complex = 0.0) -> "CurveRegion":
        t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        return cls(boundary(t), anchor=anchor)

    def winding(self, points: np.ndarray) -> np.ndarray:
        """Winding number of the polygon around each query point."""
        pts = np.asarray(points, dtype=np.complex128).ravel()
        out = np.zeros(pts.size, dtype=np.int64)
        for lo in range(0, pts.size, _CHUNK):
            chunk = pts[lo : lo + _CHUNK]
            px = chunk.real[:, None]
            py = chunk.imag[:, None]
            isleft = ((self._x1 - self._x0)[None, :] * (py - self._y0[None, :])
                      - (px - self._x0[None, :]) * (self._y1 - self._y0)[None, :])
            up = (self._y0[None, :] <= py) & (self._y1[None, :] > py) & (isleft > 0)
            down = (self._y0[None, :] > py) & (self._y1[None, :] <= py) & (isleft < 0)
            out[lo : lo + _CHUNK] = up.sum(axis=1) - down.sum(axis=1)
        return out

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

    def classify(self, points: np.ndarray, boundary_tol: float = BOUNDARY_TOL):
        """Classify points as strictly inside, with an ambiguity mask.

        Returns ``(inside, ambiguous)`` boolean arrays.  A point is
        ambiguous when it lies within ``boundary_tol`` of the discretized
        boundary; ambiguous points are not counted as inside.
        """
        pts = np.asarray(points, dtype=np.complex128).ravel()
        rad = np.abs(pts - self.anchor)
        inside = rad < self._r_in - boundary_tol
        outside = rad > self._r_out + boundary_tol
        ambiguous = np.zeros(pts.size, dtype=bool)
        band = ~(inside | outside)
        if np.any(band):
            band_pts = pts[band]
            wn = self.winding(band_pts) != 0
            dist = self.boundary_distance(band_pts)
            amb = dist <= boundary_tol
            ins = wn & ~amb
            inside[band] = ins
            ambiguous[band] = amb
        return inside, ambiguous

    def contains(self, points: np.ndarray, boundary_tol: float = BOUNDARY_TOL) -> bool:
        """True when every point is strictly inside and none is ambiguous."""
        inside, ambiguous = self.classify(points, boundary_tol)
        return bool(np.all(inside) and not np.any(ambiguous))


@functools.cache
def sinh_region() -> CurveRegion:
    """Cached region sinh(unit disk), anchored at 0."""
    return CurveRegion.from_boundary(sinh_boundary, anchor=0.0)


@functools.cache
def sqrt_disk_region() -> CurveRegion:
    """Cached region sqrt(1 + unit disk), anchored at 1."""
    return CurveRegion.from_boundary(sqrt_disk_boundary, anchor=1.0)
