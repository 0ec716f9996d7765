"""Members of the sinh-subordination class and the three membership tests.

A normalized function ``f(z) = z + a_2 z^2 + ...`` belongs to the class when
``z f'(z)/f(z) - 1`` is subordinate to ``sinh z``.  Members are constructed
from Schwarz-map witnesses via

    f(z) = z * exp( integral_0^z sinh(w(t))/t dt ),

and membership of an arbitrary candidate is probed three independent ways:

* a sufficient coefficient condition (a weighted coefficient sum staying
  below 1 for every boundary angle),
* nonvanishing of a convolution kernel on a polar grid for every angle,
* geometric containment of the values of ``z f'/f - 1`` in the sinh image
  of the disk.

A function holds its coefficients a_0..a_N as one read-only complex128
array, the representation of a truncated series in :mod:`gshlab.series`.
Grid evaluations use exact pointwise rational arithmetic on the stored
coefficients (never term-by-term division of truncated series), so the only
truncation effect is the tail of ``f`` itself.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import series as ts
from .caratheodory import SchwarzSample
from .refine import grid_golden_max, polish_coordinatewise
from .regions import sinh_boundary, sinh_boundary_max_distance, sinh_region


class PreconditionNotMet(ValueError):
    """An operation was invoked on inputs that fail its stated precondition."""


#: Kernel values with modulus at or below this count as vanishing.
ZERO_TOL = 1e-6

#: Relative size of the last term at which the sine-integral series stops.
SHI_TOL = 1e-18

#: Gauss-Legendre nodes of the sine-integral quadrature (exact to degree 31).
SHI_NODES = 16


@dataclass(frozen=True)
class PolarGrid:
    """Sampling grid: radii up to max_radius times a uniform angle grid."""

    theta_samples: int = 512
    radial_samples: int = 64
    max_radius: float = 0.995

    def __post_init__(self):
        if not 0.0 < self.max_radius < 1.0:
            raise ValueError("max_radius must lie in (0, 1)")
        if self.theta_samples < 4 or self.radial_samples < 1:
            raise ValueError("grid too small")

    def points(self) -> np.ndarray:
        radii = np.linspace(self.max_radius / self.radial_samples,
                            self.max_radius, self.radial_samples)
        angles = np.exp(2j * np.pi * np.arange(self.theta_samples) / self.theta_samples)
        return np.outer(radii, angles).ravel()


DEFAULT_GRID = PolarGrid()


@dataclass(frozen=True, eq=False)
class NormalizedFunction:
    """Candidate function with a_0 = 0 and a_1 = 1 exactly.

    ``coeffs`` is its read-only series a_0..a_order.  Functions compare by
    identity.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = self.coeffs
        if c.size < 2 or c[0] != 0 or c[1] != 1:
            raise ValueError("normalized function needs a_0 = 0 and a_1 = 1 exactly")

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def coeff(self, n: int) -> complex:
        return complex(self.coeffs[n])

    @classmethod
    def from_tail(cls, tail, order: int | None = None) -> "NormalizedFunction":
        """Build from the coefficients a_2, a_3, ... (a_0, a_1 implied)."""
        tail = list(tail)
        if order is None:
            order = len(tail) + 1
        coeffs = np.zeros(order + 1, dtype=np.complex128)
        coeffs[1] = 1.0
        coeffs[2 : 2 + len(tail)] = tail[: max(order - 1, 0)]
        return cls(ts.coefficients(coeffs))

    @classmethod
    def identity(cls, order: int = ts.DEFAULT_ORDER) -> "NormalizedFunction":
        return cls(ts.coefficients(ts.monomial(1, order)))

    @classmethod
    def koebe(cls, order: int = ts.DEFAULT_ORDER) -> "NormalizedFunction":
        """z/(1-z)^2, with coefficients a_n = n."""
        return cls(ts.coefficients(np.arange(order + 1, dtype=float)))

    def to_json(self) -> dict:
        return {"coeffs": ts.to_pairs(self.coeffs)}

    @classmethod
    def from_json(cls, obj: dict) -> "NormalizedFunction":
        return cls(ts.coefficients(ts.json_numbers(obj["coeffs"], "coeffs", pairs=True)))

    # pointwise helpers (exact in the stored coefficients); a 0-d z gives z[None]'s bits

    def over_z_values(self, z) -> np.ndarray:
        """Values of f(z)/z at the array z."""
        return ts.evaluate(self.coeffs[1:], z)

    def derivative_values(self, z) -> np.ndarray:
        """Values of f'(z) at the array z."""
        return ts.evaluate((self.coeffs * np.arange(self.order + 1))[1:], z)

    def ratio_values(self, z) -> np.ndarray:
        """Values of z f'(z)/f(z), computed as f'(z) / (f(z)/z)."""
        g = self.over_z_values(z)
        return self.derivative_values(z) / g


def kernel_beta(theta: float) -> complex:
    """(1 + sinh(e^(i theta)))/sinh(e^(i theta)); well defined for every angle."""
    s = cmath.sinh(cmath.exp(1j * theta))
    return (1.0 + s) / s


# -- construction ----------------------------------------------------------


def member_from_witness(omega: SchwarzSample | np.ndarray,
                        order: int = ts.DEFAULT_ORDER) -> NormalizedFunction:
    """Class member with z f'/f = 1 + sinh(w) for the witness map w.

    The witness may be a structured Schwarz sample or the coefficients of
    any truncated series with zero constant term (for instance the zero
    series, which yields the identity member); the latter are checked and
    padded or cut to ``order``.

    A non-finite value anywhere in the chain w -> sinh -> integral -> exp
    reaches the exp coefficients at its own power, so checking them all,
    the top one too (it falls off in the shift by z), rejects what a check
    after each step would.
    """
    w = omega.series(order) if isinstance(omega, SchwarzSample) else ts.coefficients(omega, order)
    g = ts.exp(ts.integrate_over_t(ts.sinh(w)))
    if not np.isfinite(g).all():
        raise ValueError("series coefficients must be finite")
    f = np.zeros(order + 1, dtype=np.complex128)
    f[1:] = g[:order]
    f.setflags(write=False)
    return NormalizedFunction(f)


#: Witnesses per block of :func:`member_rows`.
MEMBER_ROWS_BLOCK = 4096


def member_rows(witnesses: list[SchwarzSample], order: int) -> np.ndarray:
    """Approximate a_0..a_order of each Schwarz witness's member, one row per witness.

    The rows only rank witnesses and never report a number: a row agrees
    with ``member_from_witness(omega, order).coeffs`` to about 1e-16, not
    bit for bit.  One vectorized pass per block of ``MEMBER_ROWS_BLOCK``
    rows runs the power-series recurrences (Knuth, TAOCP vol. 2, 4.7): the
    Blaschke factors as truncated products, the sinh/cosh pair of w by
    k S_k = sum_j j w_j C_(k-j) and k C_k = sum_j j w_j S_(k-j), then
    g = exp(integral of S(t)/t) by k g_k = sum_j S_j g_(k-j), and f = z g.
    Column k reads only columns 0..k of its row, so the rows at a lower
    order are the leading columns of the rows at a higher one, bit for bit,
    whatever the block.  Non-finite values pass through.
    """
    rows = np.zeros((len(witnesses), order + 1), dtype=np.complex128)
    for lo in range(0, len(witnesses), MEMBER_ROWS_BLOCK):
        block = witnesses[lo : lo + MEMBER_ROWS_BLOCK]
        rows[lo : lo + len(block), 1:] = _member_tails(block, order)
    return rows


def _member_tails(block: list[SchwarzSample], n: int) -> np.ndarray:
    """g_0..g_(n-1) of f = z g for each witness of ``block``, as ``member_rows`` says."""
    counts = np.array([len(omega.zeros) for omega in block])
    zeros = np.zeros((len(block), counts.max()), dtype=np.complex128)
    for i, omega in enumerate(block):
        zeros[i, : counts[i]] = omega.zeros
    p = np.zeros((len(block), n), dtype=np.complex128)
    p[:, 0] = 1.0
    for j in range(zeros.shape[1]):
        # (z - b)/(1 - conj(b) z) is -b, then (1 - |b|^2) conj(b)^(k-1) at power k
        idx = np.flatnonzero(counts > j)
        b = zeros[idx, j, None]
        factor = np.repeat(b.conj(), n, axis=1)
        factor[:, :2] = np.concatenate([-b, 1.0 - b.conj() * b], axis=1)[:, :n]
        factor[:, 1:] = np.cumprod(factor[:, 1:], axis=1)
        q = p[idx]
        p[idx] = np.stack([(q[:, : k + 1] * factor[:, k::-1]).sum(axis=1) for k in range(n)], 1)
    w = np.zeros_like(p)
    w[:, 1:] = np.array([complex(omega.rotation) for omega in block])[:, None] * p[:, :-1]
    jw = w * np.arange(n)
    s, c, g = np.zeros_like(p), np.zeros_like(p), np.zeros_like(p)
    c[:, 0] = g[:, 0] = 1.0
    for k in range(1, n):
        s[:, k] = (jw[:, 1 : k + 1] * c[:, k - 1 :: -1]).sum(axis=1) / k
        c[:, k] = (jw[:, 1 : k + 1] * s[:, k - 1 :: -1]).sum(axis=1) / k
        g[:, k] = (s[:, 1 : k + 1] * g[:, k - 1 :: -1]).sum(axis=1) / k
    return g


def coeffs_from_caratheodory(c) -> tuple:
    """(a_2, ..., a_{k+1}) of the member induced by the k = 3 or 4 coefficients c_1..c_k.

    The c_n may be scalars or arrays of one shape.
    """
    c1, c2, c3, *c4 = c
    a2 = c1 / 2.0
    a3 = c2 / 4.0
    a4 = c1 ** 3 / 144.0 - c1 * c2 / 24.0 + c3 / 6.0
    if not c4:
        return a2, a3, a4
    (c4,) = c4
    a5 = (-5.0 * c1 ** 4 / 1152.0 + 5.0 * c1 ** 2 * c2 / 192.0
          - c1 * c3 / 24.0 - c2 ** 2 / 32.0 + c4 / 8.0)
    return a2, a3, a4, a5


# -- membership test 1: sufficient coefficient condition -------------------


@dataclass(frozen=True)
class SufficientVerdict:
    holds: bool
    statistic: float
    argmax_theta: float

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "inconclusive"

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "statistic": self.statistic,
                "argmax_theta": self.argmax_theta}


def _sufficient_statistic(f: NormalizedFunction, thetas: np.ndarray) -> np.ndarray:
    mods = np.abs(f.coeffs[2:])
    if mods.size == 0:
        return np.zeros(np.shape(thetas))
    n = np.arange(2, f.order + 1, dtype=float)
    s = sinh_boundary(np.atleast_1d(thetas))
    weights = np.abs((n[None, :] - 1.0 - s[:, None]) / s[:, None])
    return weights @ mods


def sufficient_membership(f: NormalizedFunction, theta_samples: int = 512) -> SufficientVerdict:
    """Sufficient test: sup over angles of the weighted coefficient sum below 1.

    The weighted sum uses the coefficients up to the truncation order; the
    condition is sufficient only, so a failure reads "inconclusive".
    """
    if theta_samples < 64:
        raise PreconditionNotMet("theta_samples must be >= 64")
    thetas = np.linspace(0.0, 2.0 * np.pi, theta_samples, endpoint=False)
    theta_star, s_star = grid_golden_max(lambda t: _sufficient_statistic(f, t), thetas,
                                         2.0 * np.pi / theta_samples)
    return SufficientVerdict(holds=s_star < 1.0, statistic=s_star,
                             argmax_theta=theta_star % (2.0 * math.pi))


# -- membership test 2: kernel nonvanishing --------------------------------


@dataclass(frozen=True)
class KernelVerdict:
    nonvanishing: bool
    min_modulus: float
    argmin_theta: float
    argmin_z: complex
    ratio_floor: float

    @property
    def verdict(self) -> str:
        return "nonvanishing" if self.nonvanishing else "zero-found"

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "min_modulus": self.min_modulus,
                "argmin_theta": self.argmin_theta,
                "argmin_z": [self.argmin_z.real, self.argmin_z.imag],
                "ratio_floor": self.ratio_floor}


#: Theta rows per block of the kernel sieve.  Any size gives the dense scan's
#: bits; 64 was the fastest over the benchmark's membership inputs at the
#: default grid (16 and 128 were slower).
_KERNEL_BLOCK = 64

#: Elements per temporary array of the kernel scan: a span of the sieve holds
#: the block-centre rows over this many grid points in all, its coarse pass as
#: many, and a chunk of the dense fallback as many whole rows as fit (at least
#: one).  Over the benchmark's membership inputs, run in one process, 2^14 and
#: 2^13 took about 140 minor page faults a job, 2^15 190-690 and 2^16 1,900;
#: 2^13 was no faster.
_KERNEL_SPAN = 2 ** 14

#: A grid point where |f'| + max|beta| |f' - f/z| reaches this may overflow the
#: kernel formula for some angle; the scan then evaluates every pair.
_KERNEL_SCALE_CAP = 2.0 ** 1020


def _kernel_grid_min(fp: np.ndarray, v: np.ndarray, betas: np.ndarray) -> tuple[float, int, int]:
    """First minimum of |fp - beta v| over the (beta, grid point) pairs in row-major order.

    Returns ``(value, row, column)``; row and column are -1 when no pair is
    below infinity.  The rows are cut into blocks of ``_KERNEL_BLOCK``
    betas.  With c the block's centre row and R = max |beta_i - beta_c| over
    it, the triangle inequality gives |fp - beta_i v| >= |fp - beta_c v| - R |v|.
    A coarse pass first evaluates the centre rows at every s-th grid point,
    s the least stride that keeps the pass within ``_KERNEL_SPAN`` elements;
    its least value is U.  The grid is then cut into spans of consecutive
    points, each as wide as keeps its centre rows within ``_KERNEL_SPAN``
    elements (the last span may be narrower).  In each span the centre rows
    are evaluated, and the least of U, of them and of the minimum found so
    far is a value the grid attains.  A block is evaluated at a point
    only where its bound does not exceed that value by more than a slack of
    1e-9 (|fp| + max|beta| |v|), far above the round-off of either side, so
    every pair left out is strictly above the minimum.  The pairs that are
    evaluated use the one formula of the dense scan with beta as the first
    factor, so each value has the bits the dense scan gives, and the least
    (value, row, column) is the dense scan's first minimum in whatever order
    the blocks are visited.  Where some pair could overflow (or the values
    are not finite) every pair is evaluated in the dense order, in chunks of
    whole rows, so a caller raising on overflow sees the dense scan's first
    failure.
    """
    rows, n = betas.size, fp.size
    best = (math.inf, -1, -1)

    def update(lo, hi, cols=None):
        nonlocal best
        sel = slice(None) if cols is None else cols
        e = np.abs(fp[None, sel] - betas[lo:hi, None] * v[None, sel])
        i, j = np.unravel_index(np.argmin(e), e.shape)
        best = min(best, (float(e[i, j]), lo + int(i), int(j if cols is None else cols[j])))

    with np.errstate(over="ignore", invalid="ignore"):
        av = np.abs(v)
        scale = np.abs(fp) + np.abs(betas).max() * av
    if not np.all(scale < _KERNEL_SCALE_CAP):
        chunk = max(1, _KERNEL_SPAN // max(n, 1))
        for lo in range(0, rows, chunk):
            update(lo, min(lo + chunk, rows))
        return best
    starts = np.arange(0, rows, _KERNEL_BLOCK)
    stops = np.minimum(starts + _KERNEL_BLOCK, rows)
    centres = (starts + stops) // 2
    radii = np.maximum.reduceat(np.abs(betas - np.repeat(betas[centres], stops - starts)), starts)
    width = max(1, _KERNEL_SPAN // starts.size)
    stride = -(-n // width)
    coarse = float(np.abs(fp[None, ::stride] - betas[centres, None] * v[None, ::stride]).min())
    for lo in range(0, n, width):
        cols = slice(lo, lo + width)
        ec = np.abs(fp[None, cols] - betas[centres, None] * v[None, cols])
        threshold = min(coarse, float(ec.min()), best[0]) + 1e-9 * scale[cols]
        keep = ~(ec - radii[:, None] * av[None, cols] > threshold)
        for b in np.flatnonzero(keep.any(axis=1)):
            update(starts[b], stops[b], lo + np.flatnonzero(keep[b]))
    return best


def grid_values(f: NormalizedFunction, grid: PolarGrid = DEFAULT_GRID
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, f'(z), f(z)/z) over the polar grid: the values both grid tests read.

    ``z`` runs ring by ring from the innermost, ``grid.theta_samples`` points
    a ring.  f' is evaluated first, so under a raising ``np.errstate`` an
    overflow fails where the kernel test's own grid pass failed.
    """
    z = grid.points()
    return z, f.derivative_values(z), f.over_z_values(z)


def kernel_nonvanishing(f: NormalizedFunction, values: tuple,
                        grid: PolarGrid = DEFAULT_GRID) -> KernelVerdict:
    """Scan (1/z)(z f' - beta (z f' - f)) over the polar grid for every angle.

    ``values`` is ``grid_values(f, grid)``; the angles theta of beta are the
    grid's ``theta_samples`` equally spaced ones.  The kernel value equals
    f'(z) - beta (f'(z) - f(z)/z), so no division is involved.  The grid
    minimum comes from a sieve over blocks of angles (``_kernel_grid_min``)
    that evaluates the formula only where a lower bound lets the minimum lie,
    and returns the first minimum of the dense scan with the same bits.  It
    is polished by coordinatewise golden-section descent in (theta, radius,
    angle) so that an actual kernel zero pulls the minimum below the
    tolerance even when it falls between grid points; each polish point takes
    f' and f/z from one two-lane Horner pass over the rows [n a_n, a_n], with
    the grid's bits.  The pass runs once per (radius, angle) the polish
    meets, keyed by their bits: steps along theta, and points that golden
    section or a later round visits again, reuse the values kept for them.
    The verdict also needs f(z)/z away from zero (the beta = 1 variant).
    """
    z, fp, g = values
    v = fp - g
    thetas = np.linspace(0.0, 2.0 * np.pi, grid.theta_samples, endpoint=False)
    betas = np.array([kernel_beta(t) for t in thetas])
    best, i, j = _kernel_grid_min(fp, v, betas)
    best_theta, best_z = (float(thetas[i]), complex(z[j])) if i >= 0 else (0.0, 0j)
    dtheta = dphi = 2.0 * math.pi / grid.theta_samples
    dr = grid.max_radius / grid.radial_samples
    r0, phi0 = abs(best_z), cmath.phase(best_z)
    c = f.coeffs
    lanes = np.stack([(c * np.arange(c.size))[1:], c[1:]], axis=1)
    seen = {}  # the bits of each (radius, angle) evaluated -> [f', f/z] there

    def objective(p):
        key = p[1:].tobytes()
        if key not in seen:
            r = min(max(p[1], 1e-9), grid.max_radius)
            seen[key] = ts.evaluate(lanes, r * cmath.exp(1j * p[2])).tolist()
        fpz, gz = seen[key]
        return -abs(fpz - kernel_beta(p[0]) * (fpz - gz))

    p, neg = polish_coordinatewise(
        objective, np.array([best_theta, r0, phi0]),
        [(best_theta - dtheta, best_theta + dtheta),
         (max(r0 - dr, 1e-9), min(r0 + dr, grid.max_radius)),
         (phi0 - dphi, phi0 + dphi)],
        rounds=3)
    if -neg < best:
        best = -neg
        best_theta = float(p[0]) % (2.0 * math.pi)
        best_z = min(max(p[1], 1e-9), grid.max_radius) * cmath.exp(1j * p[2])
    ratio_floor = float(np.min(np.abs(g)))
    return KernelVerdict(nonvanishing=bool(best > ZERO_TOL and ratio_floor > ZERO_TOL),
                         min_modulus=best, argmin_theta=best_theta,
                         argmin_z=best_z, ratio_floor=ratio_floor)


# -- membership test 3: geometric containment ------------------------------


@dataclass(frozen=True)
class GeometricVerdict:
    member: bool
    max_excursion: float
    boundary_margin: float
    outside_count: int
    ambiguous_count: int

    @property
    def verdict(self) -> str:
        return "member" if self.member else "non-member"

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "max_excursion": self.max_excursion,
                "boundary_margin": self.boundary_margin,
                "outside_count": self.outside_count,
                "ambiguous_count": self.ambiguous_count}


def winding_number(ring: np.ndarray) -> float:
    """Zeros inside a circle of a function analytic on its closed disk: the winding about 0
    of its values ``ring`` at equally spaced angles (exact while no step turns by pi)."""
    steps = np.diff(np.angle(ring), append=np.angle(ring[0]))
    return np.rint(np.sum((steps + math.pi) % (2.0 * math.pi) - math.pi) / (2.0 * math.pi))


def geometric_membership(values: tuple, grid: PolarGrid = DEFAULT_GRID) -> GeometricVerdict:
    """Geometric test: all sampled values of z f'/f - 1 inside the sinh image.

    ``values`` is ``grid_values(f, grid)``.  Containment is decided exactly,
    by |asinh w| < 1 (``regions.sinh_margin``).  Samples whose margin
    |asinh w| - 1 is within ``regions.BOUNDARY_TOL`` of 0 are ambiguous and
    conservatively force a non-member verdict (counted in the result).
    ``max_excursion`` is the largest distance of an outside sample to a dense
    polygonal discretization of the boundary curve.

    The rings never see a zero of f/z inside the innermost one, where z f'/f
    has a pole; ``winding_number`` of f/z along that ring counts those zeros,
    and a count other than 0 also forces a non-member verdict.
    """
    region = sinh_region()
    _, fp, g = values
    safe = np.abs(g) > 1e-12
    g_safe = np.where(safe, g, 1.0)
    far_outside = 2.0 * math.sinh(1.0)  # outside sinh(D): |sinh| <= sinh 1 on the disk
    w = np.where(safe, (fp - g_safe) / g_safe, far_outside)
    inside, ambiguous = region.classify(w)
    outside = ~inside & ~ambiguous
    member = bool(np.all(inside) and winding_number(g[: grid.theta_samples]) == 0)
    excursion = sinh_boundary_max_distance(w[outside]) if np.any(outside) else 0.0
    # conservative lower bound on the samples' distance to the curve: the disk
    # of radius sin 1, the least |sinh| on the unit circle, lies in sinh(D)
    margin = max(0.0, math.sin(1.0) - float(np.max(np.abs(w))))
    return GeometricVerdict(member=member,
                            max_excursion=excursion,
                            boundary_margin=margin,
                            outside_count=int(np.count_nonzero(outside)),
                            ambiguous_count=int(np.count_nonzero(ambiguous)))


# -- combined report --------------------------------------------------------


@dataclass(frozen=True)
class MembershipReport:
    sufficient: SufficientVerdict
    kernel: KernelVerdict
    geometric: GeometricVerdict

    @property
    def verdict(self) -> str:
        return self.geometric.verdict

    def to_json(self) -> dict:
        return {"sufficient": self.sufficient.to_json(),
                "kernel": self.kernel.to_json(),
                "geometric": self.geometric.to_json(),
                "verdict": self.verdict}


def membership_report(f: NormalizedFunction, grid: PolarGrid = DEFAULT_GRID) -> MembershipReport:
    """Run all three membership tests; the combined verdict is the geometric one.

    Each test samples ``grid.theta_samples`` angles, at least 64: the
    sufficient test on the boundary of sinh(D), the kernel test for beta.
    The grid values are computed once, after the sufficient test, and both
    grid tests read them.
    """
    sufficient = sufficient_membership(f, grid.theta_samples)
    values = grid_values(f, grid)
    return MembershipReport(
        sufficient=sufficient,
        kernel=kernel_nonvanishing(f, values, grid),
        geometric=geometric_membership(values, grid),
    )


# -- coefficient functionals -----------------------------------------------

#: The signed coefficient functionals as (read order, formula): the highest power
#: the formula reads, and the formula over coefficients ``a`` indexed by power
#: (``a[2]`` is a_2) and the Fekete-Szego parameter ``lam``.  Entries of ``a`` may
#: be scalars or arrays; callers take the modulus their own way, since the builtin
#: ``abs`` of a numpy scalar and ``np.abs`` of an array can differ in the last bit.
FUNCTIONALS = {
    "fs": (3, lambda a, lam: a[3] - lam * a[2] * a[2]),
    "t": (4, lambda a, lam: a[4] - a[2] * a[3]),
    "h22": (4, lambda a, lam: a[2] * a[4] - a[3] * a[3]),
    "h31": (5, lambda a, lam: (a[3] * FUNCTIONALS["h22"][1](a, lam)
                               - a[4] * FUNCTIONALS["t"][1](a, lam) + a[5] * (a[3] - a[2] * a[2]))),
}


def read_order(name: str) -> int:
    """Highest power of a member that the functional ``name`` reads; the one parser of names.

    That is n for the coefficient ``aN`` with n >= 2 (``a0`` and ``a1`` are
    rejected), and the read order beside each formula of :data:`FUNCTIONALS`.
    Member construction is truncation-consistent to the bit, so a member
    built at this order gives every value, tie and witness exactly as one
    built at any higher order.
    """
    if name in FUNCTIONALS:
        return FUNCTIONALS[name][0]
    if name.startswith("a") and name[1:].isdigit():
        if int(name[1:]) < 2:
            raise ValueError(f"coefficient functionals start at a2: n must be >= 2, got {name!r}")
        return int(name[1:])
    raise ValueError(f"unknown functional {name!r}")


def functional(name: str, a, lam: complex = 1.0):
    """Signed value of the coefficient ``aN`` or of a functional in :data:`FUNCTIONALS`."""
    if name in FUNCTIONALS:
        return FUNCTIONALS[name][1](a, complex(lam))
    return a[read_order(name)]


# -- growth, distortion and covering ----------------------------------------


def shi_series(x: float) -> float:
    """Hyperbolic sine integral by termwise integration of the sinh expansion."""
    x = float(x)
    total = 0.0
    term = x
    k = 0
    while True:
        contrib = term / (2 * k + 1)
        total += contrib
        if abs(contrib) < SHI_TOL * max(1.0, abs(total)):
            return total
        k += 1
        term *= x * x / ((2 * k) * (2 * k + 1))


def shi_quadrature(x: float) -> float:
    """Hyperbolic sine integral by Gauss-Legendre quadrature (independent route).

    The integrand sinh(t)/t is taken as 1 where a node underflows to t = 0.
    """
    nodes, weights = np.polynomial.legendre.leggauss(SHI_NODES)
    t = x * (nodes + 1.0) / 2.0
    integrand = np.divide(np.sinh(t), t, out=np.ones_like(t), where=t != 0.0)
    return x * float(np.dot(weights, integrand)) / 2.0


def _shi_checked(x: float) -> float:
    a = shi_series(x)
    b = shi_quadrature(x)
    if abs(a - b) > 1e-10:
        raise ArithmeticError(f"sine-integral routes disagree at {x}: {a} vs {b}")
    return a


def extremal_value(r: float) -> float:
    """Value of the extremal member at a real point r in (-1, 1)."""
    return r * math.exp(_shi_checked(abs(r)) * (1.0 if r >= 0 else -1.0))


@dataclass(frozen=True)
class GrowthRecord:
    r: float
    lower: float        # -f0(-r)
    upper: float        # f0(r)
    deriv_bound: float  # (1 + sinh r) f0(r) / r
    covering: float     # exp(-Shi(1)), radius of the covered disk

    def to_json(self) -> dict:
        return {"r": self.r, "lower": self.lower, "upper": self.upper,
                "deriv_bound": self.deriv_bound, "covering": self.covering}


@functools.cache
def covering_radius() -> float:
    """Radius exp(-Shi(1)) of the disk covered by every member's image, computed once."""
    return math.exp(-_shi_checked(1.0))


def growth_distortion(r: float) -> GrowthRecord:
    """Growth envelope, derivative bound and covering radius at |z| = r."""
    if not 0.0 < r < 1.0:
        raise PreconditionNotMet("r must lie in (0, 1)")
    upper = extremal_value(r)
    return GrowthRecord(
        r=float(r),
        lower=-extremal_value(-r),
        upper=upper,
        deriv_bound=(1.0 + math.sinh(r)) * upper / r,
        covering=covering_radius(),
    )
