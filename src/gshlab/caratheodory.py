"""Constructive sampling of positive-real-part functions and Schwarz maps.

A finite Herglotz combination ``k(z) = sum_j w_j (1 + eta_j z)/(1 - eta_j z)``
with nonnegative weights summing to 1 and nodes in the closed unit disk has
positive real part by construction, so it samples the normalized
positive-real-part class without rejection; its coefficients are
``c_n = 2 sum_j w_j eta_j^n`` and satisfy ``|c_n| <= 2``.

A Schwarz map is sampled as ``w(z) = rotation * z * prod_j (z - b_j)/(1 - conj(b_j) z)``
with ``|rotation| = 1`` and Blaschke zeros ``|b_j| < 1``; this guarantees
``w(0) = 0`` and ``|w(z)| <= |z|`` on the disk.

The module also provides the classical sharp coefficient inequalities for
the positive-real-part class, one formula each (the complex-parameter
Fekete-Szego bound also serves real parameters), used as calculators and as
an empirical regression suite over random samples.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import series as ts

#: Validation tolerances for sample invariants.
WEIGHT_SUM_TOL = 1e-12
NODE_MODULUS_TOL = 1e-12
WITNESS_MODULUS_TOL = 1e-9

#: Probability of drawing a boundary-type configuration (single atom or all
#: nodes on the unit circle); sharp bounds are attained there.
BOUNDARY_BIAS = 0.3

#: Most atoms in a sampled Herglotz combination.
MAX_ATOMS = 6

#: Unit-circle samples behind :meth:`SchwarzSample.boundary_max`.
BOUNDARY_SAMPLES = 1024

#: Largest modulus of a sampled Blaschke zero.
ZERO_MODULUS_CAP = 0.75

#: The inequality suite checks |c_n| <= 2 for n = 1..SUITE_MAX_ORDER.
SUITE_MAX_ORDER = 8


@dataclass(frozen=True)
class HerglotzSample:
    """Finite convex combination of half-plane kernels."""

    weights: tuple[float, ...]
    nodes: tuple[complex, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        n = np.asarray(self.nodes, dtype=complex)
        if w.size == 0 or w.size != n.size:
            raise ValueError("weights and nodes must be non-empty and equal length")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not np.all(np.isfinite(n)):
            raise ValueError("nodes must be finite")
        if not np.all(w >= -WEIGHT_SUM_TOL):
            raise ValueError("weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        if not np.all(np.abs(n) <= 1.0 + NODE_MODULUS_TOL):
            raise ValueError("nodes must lie in the closed unit disk")

    def coeffs(self, upto: int) -> np.ndarray:
        """Coefficients c_n = 2 sum_j w_j eta_j^n for n = 1..upto, as an array."""
        if upto < 1:
            raise ValueError("upto must be >= 1")
        w = np.asarray(self.weights, dtype=float)
        eta = np.asarray(self.nodes, dtype=np.complex128)
        powers = eta[None, :] ** np.arange(1, upto + 1)[:, None]
        return 2.0 * (powers * w[None, :]).sum(axis=1)

    def series(self, order: int = ts.DEFAULT_ORDER) -> np.ndarray:
        """Truncated series 1 + c_1 z + c_2 z^2 + ..."""
        out = np.zeros(order + 1, dtype=np.complex128)
        out[0] = 1.0
        if order >= 1:
            out[1:] = self.coeffs(order)
        return out

    def to_json(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "nodes": [[float(n.real), float(n.imag)] for n in map(complex, self.nodes)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HerglotzSample":
        return cls(weights=tuple(ts.json_numbers(obj["weights"], "weights")),
                   nodes=tuple(ts.json_numbers(obj["nodes"], "nodes", pairs=True)))


@dataclass(frozen=True)
class SchwarzSample:
    """Rotation times z times a finite Blaschke product."""

    rotation: complex = 1.0
    zeros: tuple[complex, ...] = ()

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not abs(abs(complex(self.rotation)) - 1.0) <= NODE_MODULUS_TOL:
            raise ValueError(f"rotation must be unimodular, got |{self.rotation}|")
        if not all(abs(complex(b)) < 1.0 for b in self.zeros):
            raise ValueError("Blaschke zeros must have modulus < 1")

    def series(self, order: int = ts.DEFAULT_ORDER) -> np.ndarray:
        """Truncated series of the map.  Each factor (z - b)/(1 - conj(b) z) has
        coefficients -b, 1 - conj(b) b, then conj(b) times the last: the steps of
        series division by 1 - conj(b) z, one nonzero product per dot, with its
        bits (a factor may differ in the sign of a zero; no convolution sum does)."""
        acc = np.zeros(order + 1, dtype=np.complex128)
        acc[0] = complex(self.rotation)
        for b in map(complex, self.zeros):
            factor, q = [-b], 1 - b.conjugate() * b
            for _ in range(order):
                factor.append(q)
                q *= b.conjugate()
            acc = np.convolve(acc, factor)[: order + 1]
        return np.concatenate(([0j], acc[:order]))

    def values(self, z) -> np.ndarray:
        """Pointwise rational evaluation of the map (no truncation error)."""
        z = np.asarray(z, dtype=np.complex128)
        out = complex(self.rotation) * z.astype(np.complex128)
        for b in self.zeros:
            b = complex(b)
            out = out * (z - b) / (1.0 - b.conjugate() * z)
        return out

    def boundary_max(self) -> float:
        """Max modulus on the unit circle; must not exceed 1 (up to 1e-10)."""
        t = np.linspace(0.0, 2.0 * np.pi, BOUNDARY_SAMPLES, endpoint=False)
        return float(np.max(np.abs(self.values(np.exp(1j * t)))))

    def to_json(self) -> dict:
        r = complex(self.rotation)
        return {
            "rotation": [float(r.real), float(r.imag)],
            "zeros": [[float(b.real), float(b.imag)] for b in map(complex, self.zeros)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SchwarzSample":
        return cls(rotation=ts.json_pair(obj["rotation"], "rotation"),
                   zeros=tuple(ts.json_numbers(obj["zeros"], "zeros", pairs=True)))

    @classmethod
    def monomial(cls, power: int) -> "SchwarzSample":
        """The witness z^power (power - 1 Blaschke zeros at the origin)."""
        if power < 1:
            raise ValueError("power must be >= 1")
        return cls(rotation=1.0, zeros=(0.0,) * (power - 1))


# -- coefficient-body witnesses -------------------------------------------


#: Divisors below this amplify coefficient round-off past the validity slack,
#: so the affected witness is flagged degenerate instead of reported as noise.
_CONDITIONING_FLOOR = 1e-5


def coeff_witnesses(c1: complex, c2: complex, c3: complex) -> dict:
    """Solve for the unit-disk (x, z) representation of (c2, c3) given c1.

    ``x`` reconstructs ``2 c2 = c1^2 + x (4 - c1^2)`` and ``z`` reconstructs
    ``4 c3 = c1^3 + 2 (4 - c1^2) c1 x - (4 - c1^2) c1 x^2
    + 2 (4 - c1^2)(1 - |x|^2) z``.  The identities hold with unit-disk
    witnesses when c1 is real in [0, 2] (rotate the function first for
    complex c1).  Degenerate when |c1| is 2 (both parameters undetermined),
    when |x| = 1 (only z undetermined), or when a solve divisor is too small
    to resolve the witness above coefficient round-off.

    The record's keys: ``x`` and ``z`` (None where undetermined),
    ``x_valid`` and ``z_valid`` (the parameter is determined and lies in the
    unit disk, with a 1e-9 slack) and ``degenerate``.
    """
    c1, c2, c3 = complex(c1), complex(c2), complex(c3)
    gap = 4.0 - c1 * c1
    if abs(abs(c1) - 2.0) <= WITNESS_MODULUS_TOL or abs(gap) <= _CONDITIONING_FLOOR:
        return {"x": None, "z": None, "x_valid": False, "z_valid": False, "degenerate": True}
    x = (2.0 * c2 - c1 * c1) / gap
    x_valid = abs(x) <= 1.0 + WITNESS_MODULUS_TOL
    slack = 1.0 - abs(x) ** 2
    if slack <= 1e-12 or 2.0 * abs(gap) * abs(slack) <= _CONDITIONING_FLOOR:
        return {"x": x, "z": None, "x_valid": x_valid, "z_valid": False, "degenerate": True}
    z = (4.0 * c3 - c1 ** 3 - 2.0 * gap * c1 * x + gap * c1 * x * x) / (2.0 * gap * slack)
    return {"x": x, "z": z, "x_valid": x_valid, "z_valid": abs(z) <= 1.0 + WITNESS_MODULUS_TOL,
            "degenerate": False}


def rotate_to_real_first(c: np.ndarray) -> np.ndarray:
    """Rotate coefficients so the first one is real and nonnegative.

    Applies c_n -> c_n e^(i n phi), the coefficient action of precomposing
    with a rotation of the disk; class membership is preserved.
    """
    c = np.asarray(c, dtype=np.complex128)
    if c.size == 0 or abs(c[0]) < 1e-15:
        return c
    phi = -np.angle(c[0])
    return c * np.exp(1j * np.arange(1, c.size + 1) * phi)


def coeffs_from_witnesses(c1: complex, x: complex, z: complex) -> tuple[complex, complex]:
    """Inverse direction: (c2, c3) from the unit-disk parameters (scalars or arrays)."""
    gap = 4.0 - c1 * c1
    c2 = (c1 * c1 + x * gap) / 2.0
    c3 = (c1 ** 3 + 2.0 * gap * c1 * x - gap * c1 * x * x
          + 2.0 * gap * (1.0 - abs(x) ** 2) * z) / 4.0
    return c2, c3


# -- sharp bound calculators ----------------------------------------------


def fekete_szego_bound_complex(lam: complex) -> float:
    """Sharp bound 2 max(1, |2 lam - 1|) for |c2 - lam c1^2|, complex lam.

    For real lam this is the piecewise 2 - 4 lam, 2, 4 lam - 2 (split at 0
    and 1), to the bit.
    """
    return 2.0 * max(1.0, abs(2.0 * complex(lam) - 1.0))


def cubic_combination_bound(a: complex, b: complex, d: complex) -> float:
    """Bound 2|a| + 2|b - 2a| + 2|a - b + d| for |a c1^3 - b c1 c2 + d c3|."""
    a, b, d = complex(a), complex(b), complex(d)
    return 2.0 * abs(a) + 2.0 * abs(b - 2.0 * a) + 2.0 * abs(a - b + d)


def quartic_combination_condition(l: float, r: float, m: float, n: float) -> bool:
    """Side condition under which |l c1^4 + r c2^2 + 2m c1 c3 - 1.5 n c1^2 c2 - c4| <= 2.

    Requires 0 < m < 1, 0 < r < 1 and
    8 r (1-r) ((m n - 2 l)^2 + (m (r + m) - n)^2) + m (1-m) (n - 2 r m)^2
    <= 4 m^2 (1-m)^2 r (1-r).
    """
    l, r, m, n = float(l), float(r), float(m), float(n)
    if not (0.0 < m < 1.0 and 0.0 < r < 1.0):
        return False
    lhs = (8.0 * r * (1.0 - r) * ((m * n - 2.0 * l) ** 2 + (m * (r + m) - n) ** 2)
           + m * (1.0 - m) * (n - 2.0 * r * m) ** 2)
    rhs = 4.0 * m * m * (1.0 - m) ** 2 * r * (1.0 - r)
    return lhs <= rhs


def quartic_combination_value(c: np.ndarray, l: float, r: float, m: float, n: float) -> float:
    """|l c1^4 + r c2^2 + 2m c1 c3 - 1.5 n c1^2 c2 - c4| for c = (c1..c4)."""
    c1, c2, c3, c4 = (complex(v) for v in c[:4])
    return abs(l * c1 ** 4 + r * c2 ** 2 + 2.0 * m * c1 * c3
               - 1.5 * n * c1 ** 2 * c2 - c4)


# -- random sampling -------------------------------------------------------


_MASK32 = 0xFFFFFFFF

#: The constants of numpy's ``SeedSequence`` hash and mix (NEP 19), and PCG64's multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_words(n: int) -> list[int]:
    """The 32-bit words, least significant first, that ``SeedSequence`` makes of an int."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pcg64_seeds(prefix: tuple[int, ...], start: int, stop: int) -> np.ndarray:
    """``SeedSequence((*prefix, i)).generate_state(4, np.uint64)`` for i in start..stop - 1,
    one row each, by uint32 array passes over all the rows whose entropy has the same
    number of words."""
    head = [w for x in prefix for w in _entropy_words(operator.index(x))]
    entropy = [head + _entropy_words(i) for i in range(start, stop)]
    pool = np.empty((len(entropy), 4), dtype=np.uint32)
    for size in set(map(len, entropy)):
        rows = [r for r, e in enumerate(entropy) if len(e) == size]
        pool[rows] = _mix_entropy(np.array([entropy[r] for r in rows], dtype=np.uint32))
    # generate_state: the pool's words in turn, each hashed, paired little end first
    words = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _hash_consts(_INIT_B, _MULT_B, 8))
    words = words.astype(np.uint64)
    return words[:, 0::2] | (words[:, 1::2] << 32)


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before the first of this many hash calls and after each."""
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & _MASK32)
    return np.array(h, dtype=np.uint32)


def _hashmix(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s hash of each value in v's last axis, the k-th with the hash
    constants h[k] and h[k + 1] of consecutive calls (uint32, wrapping)."""
    v = (v ^ h[:-1]) * h[1:]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s mix of a pool word x with a hashed word y (uint32, wrapping)."""
    v = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return v ^ (v >> 16)


def _mix_entropy(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s pool of 4 words for each row of uint32 entropy words: each word
    of a pool is hashed into the other three, then each word past the fourth into all
    four.  A word's updates of one pass use consecutive hash constants, so each pass
    is one array operation."""
    rows, size = entropy.shape
    h = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(size - 4, 0))
    pool = np.zeros((rows, 4), dtype=np.uint32)
    pool[:, :size] = entropy[:, :4]
    pool = _hashmix(pool, h[:5])
    k = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], h[k:k + 4]))
        k += 3
    for src in range(4, size):
        pool = _mix(pool, _hashmix(entropy[:, src, None], h[k:k + 5]))
        k += 4
    return pool


def streams(prefix: tuple[int, ...], start: int, stop: int):
    """The generators ``np.random.default_rng((*prefix, i))`` for i = start..stop - 1, as
    one reused ``np.random.Generator`` whose state is set before each is yielded; draw
    from it before asking for the next.

    ``default_rng`` seeds PCG64 from a ``SeedSequence`` of the entropy words of its
    tuple (NEP 19: a hash of the words into a pool of four, then ``generate_state``),
    and PCG64 seeds its 128-bit LCG from that state (O'Neill, "PCG", 2014: the
    ``srandom`` of pcg64).  Here the pools and states of all the rows come from a
    few uint32 array passes, and only the LCG seeding runs per row, in Python ints,
    so the draws are bit for bit those of the separate generators at a fraction of
    the cost of building them.  A negative int raises ``default_rng``'s ValueError.
    """
    if stop <= start:
        return
    seeds = _pcg64_seeds(prefix, start, stop).tolist()
    rng = np.random.Generator(np.random.PCG64(0))
    mask = (1 << 128) - 1
    for s0, s1, i0, i1 in seeds:
        inc = ((((i0 << 64) | i1) << 1) | 1) & mask
        state = ((inc + ((s0 << 64) | s1)) * _PCG64_MULT + inc) & mask
        rng.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


def sample_herglotz(rng: np.random.Generator) -> HerglotzSample:
    """Draw a random finite Herglotz combination of at most ``MAX_ATOMS`` atoms.

    With probability ``BOUNDARY_BIAS`` the draw is a boundary-type
    configuration (single atom, or all nodes on the unit circle), since the
    sharp coefficient bounds are attained there.
    """
    if rng.random() < BOUNDARY_BIAS:
        if rng.random() < 0.5:
            node = np.exp(2j * np.pi * rng.random())
            return HerglotzSample(weights=(1.0,), nodes=(complex(node),))
        atoms = int(rng.integers(2, MAX_ATOMS + 1))
        weights = rng.dirichlet(np.ones(atoms))
        nodes = np.exp(2j * np.pi * rng.random(atoms))
        return HerglotzSample(weights=tuple(weights), nodes=tuple(map(complex, nodes)))
    atoms = int(rng.integers(1, MAX_ATOMS + 1))
    weights = rng.dirichlet(np.ones(atoms))
    radii = np.sqrt(rng.random(atoms))
    nodes = radii * np.exp(2j * np.pi * rng.random(atoms))
    return HerglotzSample(weights=tuple(weights), nodes=tuple(map(complex, nodes)))


def sample_schwarz(rng: np.random.Generator, max_zeros: int = 4) -> SchwarzSample:
    """Draw a random Schwarz map (rotation times z times a Blaschke product).

    Zero moduli are capped at ``ZERO_MODULUS_CAP`` so that truncated series of
    derived functions keep usable decay near the boundary of the disk.
    """
    rotation = complex(np.exp(2j * np.pi * rng.random()))
    count = int(rng.integers(0, max_zeros + 1))
    radii = ZERO_MODULUS_CAP * np.sqrt(rng.random(count))
    zeros = radii * np.exp(2j * np.pi * rng.random(count))
    return SchwarzSample(rotation=rotation, zeros=tuple(map(complex, zeros)))


# -- empirical inequality suite -------------------------------------------


_SUITE_TOL = 1e-9


def inequality_suite(samples: int, seed: int) -> dict:
    """Check the sharp coefficient inequalities on random Herglotz samples.

    Violations are collected in the report (with the offending sample)
    rather than raised; the expected count is zero.  The report's keys:
    ``samples``, ``seed``, ``max_order`` (``SUITE_MAX_ORDER``), ``checks``
    (checks run, by name: every sample runs each check once, except the
    quartic one, which runs only where its side condition holds),
    ``violations`` (one record per failed check, with its kind and sample),
    ``quartic_condition_hits`` and ``degenerate_witnesses``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    violations = []
    quartic_hits = degenerate = 0

    def violation(kind, sample, **data):
        violations.append({
            "kind": kind, "sample": sample.to_json(),
            **{k: (v if not isinstance(v, complex) else [v.real, v.imag])
               for k, v in data.items()},
        })

    for rng in streams((seed,), 0, samples):
        sample = sample_herglotz(rng)
        c = sample.coeffs(SUITE_MAX_ORDER)

        worst = float(np.max(np.abs(c)))
        if worst > 2.0 + _SUITE_TOL:
            violation("modulus", sample, value=worst)

        lam = 2.0 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        val = abs(c[1] - lam * c[0] ** 2)
        if val > fekete_szego_bound_complex(lam) + _SUITE_TOL:
            violation("fekete_szego_complex", sample, lam=complex(lam), value=val)

        nu = float(rng.uniform(-1.5, 2.5))
        val = abs(c[1] - nu * c[0] ** 2)
        if val > fekete_szego_bound_complex(nu) + _SUITE_TOL:
            violation("fekete_szego_real", sample, nu=nu, value=val)

        a, b, d = (math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
                   for _ in range(3))
        val = abs(a * c[0] ** 3 - b * c[0] * c[1] + d * c[2])
        if val > cubic_combination_bound(a, b, d) + _SUITE_TOL:
            violation("cubic", sample, a=complex(a), b=complex(b), d=complex(d), value=val)

        # half the draws jitter a known admissible parameter point so the
        # side condition is exercised often, half probe the box uniformly
        if rng.random() < 0.5:
            l = 5.0 / 144.0 + rng.normal(0.0, 0.02)
            r = 0.25 + rng.normal(0.0, 0.05)
            m = 1.0 / 6.0 + rng.normal(0.0, 0.04)
            n = 5.0 / 36.0 + rng.normal(0.0, 0.04)
        else:
            l = float(rng.uniform(-0.5, 0.5))
            r = float(rng.uniform(0.0, 1.0))
            m = float(rng.uniform(0.0, 1.0))
            n = float(rng.uniform(-0.5, 0.5))
        if quartic_combination_condition(l, r, m, n):
            quartic_hits += 1
            val = quartic_combination_value(c, l, r, m, n)
            if val > 2.0 + _SUITE_TOL:
                violation("quartic", sample, l=l, r=r, m=m, n=n, value=val)

        # the witness identities assume a real nonnegative first coefficient
        cr = rotate_to_real_first(c[:3])
        wit = coeff_witnesses(cr[0], cr[1], cr[2])
        degenerate += wit["degenerate"]
        x, z = wit["x"], wit["z"]
        if (x is not None and not wit["x_valid"]) or (z is not None and not wit["z_valid"]):
            violation("witnesses", sample, x=0j if x is None else x, z=0j if z is None else z)
        if x is not None:
            resid = abs(2.0 * cr[1] - cr[0] ** 2 - x * (4.0 - cr[0] ** 2))
            if resid > 1e-10:
                violation("witness_reconstruction", sample, residual=resid)
    checks = dict.fromkeys(("cubic", "fekete_szego_complex", "fekete_szego_real", "modulus",
                            "quartic", "witnesses"), samples)
    checks["quartic"] = quartic_hits
    return {"samples": samples, "seed": seed, "max_order": SUITE_MAX_ORDER, "checks": checks,
            "violations": violations, "quartic_condition_hits": quartic_hits,
            "degenerate_witnesses": degenerate}
