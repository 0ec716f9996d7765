"""Randomized extremal search against the claimed sharp coefficient bounds.

Each scan confronts a claimed bound with an empirical maximum over two
families of admissible inputs:

* members built from random Schwarz witnesses (plus deterministic monomial
  anchors, which realize the known sharpness cases), and
* for functionals of a_2..a_4, a direct parametrization of the coefficient
  body (c in [0, 2], a unit-disk parameter x, a unimodular parameter z).

The larger empirical maximum wins; the best candidate is polished by
coordinatewise golden-section ascent.  Estimates carry a serialized witness
sufficient to reproduce the reported value, and a violation flag raised when
the empirical maximum exceeds the claimed bound beyond tolerance.  Scans are
seed-deterministic: sample i is drawn from the stream seeded by (seed, i), so
doubling the sample budget keeps every earlier sample and never lowers a
maximum.  Every scan builds its members at its functional's ``read_order``.
A battery (``default_scan_suite``) passes one witness batch to all its scans;
``scan`` builds its own, and nothing is kept between calls.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .caratheodory import ZERO_MODULUS_CAP, SchwarzSample, coeffs_from_witnesses, sample_schwarz
from .core import FUNCTIONALS, coeffs_from_caratheodory, functional, member_from_witness, read_order
from .refine import polish_coordinatewise

#: Most Blaschke zeros of a random witness (their modulus cap is
#: ``caratheodory.ZERO_MODULUS_CAP``).
MAX_ZEROS = 4

#: Direct-family grid: samples of c in [0, 2], of |x| in [0, 1] and of arg x.
DIRECT_C_SAMPLES = 41
DIRECT_Y_SAMPLES = 21
DIRECT_PHASE_SAMPLES = 12

#: Sweeps of the coordinatewise golden-section polish.
POLISH_ROUNDS = 2

#: Envelope grids: samples of c in [0, 2] and of y in [0, 1].
ENVELOPE_C_SAMPLES = 201
ENVELOPE_Y_SAMPLES = 101

#: The default battery: its coefficient indices and its Fekete-Szego parameters.
DEFAULT_COEFFICIENTS = (2, 3, 4, 5, 6)
DEFAULT_FS_LAMBDAS = (0.0, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class ScanConfig:
    """Budget, seed and violation tolerance of one extremal scan."""

    samples: int = 10_000
    seed: int = 0
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        # written so that NaN fails it
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True)
class BoundEstimate:
    """Empirical maximum of a functional against its claimed bound."""

    functional: str
    empirical_max: float
    witness: dict
    claimed_bound: float
    attained_ratio: float
    violation: bool

    def to_json(self) -> dict:
        return {"functional": self.functional,
                "empirical_max": self.empirical_max,
                "witness": self.witness,
                "claimed_bound": self.claimed_bound,
                "attained_ratio": self.attained_ratio,
                "violation": self.violation}


# -- functionals -------------------------------------------------------------


def functional_value(name: str, coeffs: np.ndarray, lam: complex = 1.0) -> float:
    """|functional| from the coefficient array (indexed by power, a[1] = 1)."""
    return float(abs(functional(name, coeffs, lam)))


def claimed_bound(name: str, lam: complex = 1.0) -> float:
    """The stated sharp bound (or conjectured value) for a functional."""
    if name not in FUNCTIONALS:
        return 1.0 / (read_order(name) - 1)
    return {
        "fs": 0.5 * max(1.0, abs(2.0 * complex(lam) - 1.0)),
        "t": 1.0 / 3.0,
        "h22": 1.0 / 36.0,
        "h31": 0.25,
    }[name]


# -- witness family -----------------------------------------------------------


def _member_coeffs(omega: SchwarzSample, order: int) -> np.ndarray:
    return member_from_witness(omega, order).coeffs


#: Always empty.  It stays only because the traced benchmark clears it
#: (``bench/run.py``, ``forget_scan_batches``); a benchmark-only change deletes both.
_BATCH_CACHE: dict = {}


def witness_batch(cfg: ScanConfig, order: int) -> tuple[list[SchwarzSample], np.ndarray]:
    """Witnesses for all sample indices of a config, and their members' a_0..a_order.

    Every call builds a new batch.  A scan reads the leading columns it
    needs, which are bitwise the members built at its own read order.
    Sample i is drawn from the stream seeded by (seed, i), so the batch of a
    smaller budget is a prefix of the batch of a larger one.
    """
    witnesses = []
    rows = np.empty((cfg.samples, order + 1), dtype=np.complex128)
    for i in range(cfg.samples):
        omega = sample_schwarz(np.random.default_rng((cfg.seed, i)), max_zeros=MAX_ZEROS)
        witnesses.append(omega)
        rows[i] = _member_coeffs(omega, order)
    return witnesses, rows


def _schwarz_params(omega: SchwarzSample):
    """Flatten a witness into (params, bounds) for coordinatewise polish."""
    params = [cmath.phase(complex(omega.rotation)) % (2.0 * math.pi)]
    bounds = [(0.0, 2.0 * math.pi)]
    for b in omega.zeros:
        b = complex(b)
        params.extend([abs(b), cmath.phase(b) % (2.0 * math.pi)])
        bounds.extend([(0.0, ZERO_MODULUS_CAP), (0.0, 2.0 * math.pi)])
    return np.array(params), bounds


def _schwarz_from_params(params: np.ndarray) -> SchwarzSample:
    p = params.tolist()
    return SchwarzSample(rotation=cmath.exp(1j * p[0]),
                         zeros=tuple(p[k] * cmath.exp(1j * p[k + 1]) for k in range(1, len(p), 2)))


def _witness_key(omega: SchwarzSample) -> bytes:
    """The rotation and zeros of a witness as complex128 bytes; -0.0 and 0.0 differ."""
    return np.array([omega.rotation, *omega.zeros], dtype=np.complex128).tobytes()


def witness_to_json(omega: SchwarzSample) -> dict:
    return {"family": "schwarz", **omega.to_json()}


def caratheodory_witness_to_json(c1: float, x: complex, z: complex) -> dict:
    return {"family": "caratheodory", "c1": float(c1),
            "x": [x.real, x.imag], "z": [z.real, z.imag]}


def evaluate_witness(witness: dict, functional: str, lam: complex = 1.0) -> float:
    """Recompute a functional value from a serialized witness alone.

    A Schwarz witness builds its member at ``read_order(functional)``, the
    order the scans read, so the value is the scan's to the bit.
    """
    if witness["family"] == "schwarz":
        omega = SchwarzSample.from_json(witness)
        return functional_value(functional, _member_coeffs(omega, read_order(functional)), lam)
    if witness["family"] == "caratheodory":
        return float(_direct_values(functional, witness["c1"], complex(*witness["x"]),
                                    complex(*witness["z"]), lam))
    raise ValueError(f"unknown witness family {witness.get('family')!r}")


# -- direct coefficient-body family ------------------------------------------

#: The parametrization fixes c1..c3, hence a2..a4 and what reads no further.
_DIRECT_FUNCTIONALS = tuple(n for n in ("a2", "a3", "a4", *FUNCTIONALS) if read_order(n) <= 4)


def _direct_coeffs(c1, x, z) -> tuple:
    """(a_0, ..., a_4) on the direct (c1, x, z) parametrization (scalars or arrays)."""
    c1 = np.asarray(c1, dtype=float)
    x = np.asarray(x, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    c2, c3 = coeffs_from_witnesses(c1, x, z)
    return (0.0, 1.0, *coeffs_from_caratheodory((c1, c2, c3)))


def _direct_values(name: str, c1, x, z, lam: complex = 1.0):
    """Vectorized |functional| on the direct (c1, x, z) parametrization."""
    if name not in _DIRECT_FUNCTIONALS:
        raise ValueError(f"functional {name!r} not covered by the direct family")
    return np.abs(functional(name, _direct_coeffs(c1, x, z), lam))


@functools.cache
def _direct_grid() -> tuple[tuple[np.ndarray, ...], tuple]:
    """The direct family's grid: the meshgrid (c1, |x|, arg x, z) and its a_0..a_4.

    It depends on neither the functional nor lambda, so it is built once, on
    first use, and its arrays are read-only.
    """
    cs = np.linspace(0.0, 2.0, DIRECT_C_SAMPLES)
    ys = np.linspace(0.0, 1.0, DIRECT_Y_SAMPLES)
    phases = np.linspace(0.0, 2.0 * np.pi, DIRECT_PHASE_SAMPLES, endpoint=False)
    zs = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False))
    axes = cc, yy, pp, zz = np.meshgrid(cs, ys, phases, zs, indexing="ij")
    coeffs = _direct_coeffs(cc, yy * np.exp(1j * pp), zz)
    for a in (*axes, *coeffs[2:]):
        a.flags.writeable = False
    return tuple(axes), coeffs


def _direct_family_max(name: str, lam: complex = 1.0):
    """Grid maximum of |name| over the direct family, polished coordinatewise.

    The grid and its coefficients come from ``_direct_grid``; a scan computes
    only the functional on them, its modulus and the argmax.  The polish
    looks up a point (c1, x, z) it has met before, by its exact bytes, as
    ``_scan`` does a witness.
    """
    (cc, yy, pp, zz), coeffs = _direct_grid()
    vals = np.abs(functional(name, coeffs, lam))
    idx = np.unravel_index(np.argmax(vals), vals.shape)
    x0 = np.array([cc[idx], yy[idx], pp[idx], cmath.phase(complex(zz[idx])) % (2 * math.pi)])

    seen: dict[bytes, float] = {}

    def score(p):
        c1, x, z = p[0], p[1] * cmath.exp(1j * p[2]), cmath.exp(1j * p[3])
        key = np.array([c1, x, z], dtype=np.complex128).tobytes()
        if key not in seen:
            seen[key] = float(_direct_values(name, c1, x, z, lam))
        return seen[key]

    bounds = [(0.0, 2.0), (0.0, 1.0), (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)]
    p, best = polish_coordinatewise(score, x0, bounds, rounds=POLISH_ROUNDS)
    witness = caratheodory_witness_to_json(p[0], p[1] * cmath.exp(1j * p[2]),
                                           cmath.exp(1j * p[3]))
    return best, witness


# -- scans --------------------------------------------------------------------


def _scan(name: str, cfg: ScanConfig, witnesses: list[SchwarzSample], rows: np.ndarray,
          lam: complex = 1.0) -> BoundEstimate:
    """Empirical maximum of |name| over the search families, against its claimed bound.

    The best of the monomial anchors (z^1..z^4 for a named functional,
    z^1..z^max(5, n) for a_n) and the batch ``witnesses`` is polished over
    its witness parameters.  The named functionals of a2..a4 also scan the
    direct family (the coefficient scans do not), and the larger maximum
    wins.  The monomials realize every known sharpness case.

    The anchors, the batch and the polish objective all read members built
    at ``read_order(name)``: of the batch's member coefficients ``rows``
    (``witness_batch``, at that order or higher), only a_0..a_read_order.

    The anchors and the polish objective share a table, local to the call,
    keyed by the exact bytes of the witness (``_witness_key``); the batch's
    best witness enters it with its batch value.  A witness met again, such
    as an anchor at the start of the polish, the phase of a Blaschke zero at
    the origin, or a second polish round that repeats a first one without
    gain, is looked up rather than built.  Member construction is
    deterministic, so every value is the one a build would give.
    """
    order = read_order(name)
    rows = rows[:, : order + 1]
    seen: dict[bytes, float] = {}

    def value(omega: SchwarzSample) -> float:
        key = _witness_key(omega)
        if key not in seen:
            seen[key] = functional_value(name, _member_coeffs(omega, order), lam)
        return seen[key]

    top = 4 if name in FUNCTIONALS else max(5, order)
    candidates = [SchwarzSample.monomial(k) for k in range(1, top + 1)]
    values = [value(w) for w in candidates]
    batch_vals = np.array([functional_value(name, row, lam) for row in rows])
    j = int(np.argmax(batch_vals))
    candidates.append(witnesses[j])
    values.append(seen.setdefault(_witness_key(witnesses[j]), float(batch_vals[j])))
    k = int(np.argmax(values))
    best_witness, best = candidates[k], float(values[k])
    params, bounds = _schwarz_params(best_witness)

    if len(params) > 1:
        params, polished = polish_coordinatewise(lambda p: value(_schwarz_from_params(p)),
                                                 params, bounds, rounds=POLISH_ROUNDS)
        if polished > best:
            best = polished
            best_witness = _schwarz_from_params(params)
    witness = witness_to_json(best_witness)
    if name in FUNCTIONALS and name in _DIRECT_FUNCTIONALS:
        direct_best, direct_witness = _direct_family_max(name, lam)
        if direct_best > best:
            best, witness = direct_best, direct_witness
    claim = claimed_bound(name, lam)
    return BoundEstimate(functional=f"fs({lam})" if name == "fs" else name,
                         empirical_max=best, witness=witness, claimed_bound=claim,
                         attained_ratio=best / claim,
                         violation=bool(best > claim + cfg.tolerance))


def scan(name: str, cfg: ScanConfig, lam: complex = 1.0) -> BoundEstimate:
    """``_scan`` of ``name`` on a witness batch of its own, built at ``read_order(name)``.

    ``name`` is ``aN`` (n >= 2), ``h22``, ``h31``, ``fs`` (Fekete-Szego,
    parameter ``lam``) or ``t`` (a4 - a2 a3); ``read_order`` checks it first.
    """
    return _scan(name, cfg, *witness_batch(cfg, read_order(name)), lam)


# -- the closed-form envelope of the h22 functional ---------------------------


def h22_envelope(c, y):
    """Triangle-inequality envelope of |a2 a4 - a3^2| over the direct family (scalars or arrays).

    The envelope is a polynomial in c in [0, 2] (the first coefficient of
    the positive-real-part function) and y in [0, 1] (the modulus of the
    unit-disk parameter x).  With the Libera-Zlotkiewicz c2, c3 of
    :func:`caratheodory.coeffs_from_witnesses` the terms linear in x cancel:

        288 (a2 a4 - a3^2) = -c^4/2 - (3/2)(c^2 + 12)(4 - c^2) x^2
                             + 12 c (4 - c^2)(1 - |x|^2) zeta,

    so the envelope is attained at x = y, zeta = -1, where the three terms
    are in phase.  Along y = 1 it is (72 - 12 c^2 - c^4)/288, and its
    maximum over the rectangle is 1/4 at (0, 1).
    """
    gap = 4.0 - c * c
    return (0.5 * c ** 4 + 1.5 * (c * c + 12.0) * gap * y * y
            + 12.0 * c * gap * (1.0 - y * y)) / 288.0


def h22_envelope_max() -> tuple[float, tuple[float, float]]:
    """(max, argmax) of the envelope over [0, 2] x [0, 1]: the grid argmax, polished as in a scan.

    The polish keeps the grid point unless it strictly gains.
    """
    cc, yy = np.meshgrid(np.linspace(0.0, 2.0, ENVELOPE_C_SAMPLES),
                         np.linspace(0.0, 1.0, ENVELOPE_Y_SAMPLES), indexing="ij")
    idx = np.unravel_index(np.argmax(h22_envelope(cc, yy)), cc.shape)
    (c, y), best = polish_coordinatewise(lambda p: float(h22_envelope(*p)),
                                         np.array([cc[idx], yy[idx]]),
                                         [(0.0, 2.0), (0.0, 1.0)], rounds=POLISH_ROUNDS)
    return best, (float(c), float(y))


def default_scan_suite(cfg: ScanConfig, coefficient_range: tuple[int, ...] = DEFAULT_COEFFICIENTS,
                       fs_lams: tuple[complex, ...] = DEFAULT_FS_LAMBDAS) -> list[BoundEstimate]:
    """The standard battery: coefficient bounds, Fekete-Szego values, t, h22, h31.

    Once ``read_order`` accepts every name of the battery, one witness batch
    is built at the highest read order (6 for the default one) and passed to
    every scan, which reads its leading columns; each estimate is its
    standalone ``scan``'s, bit for bit.
    """
    names = [*(f"a{n}" for n in coefficient_range), *FUNCTIONALS]
    batch = witness_batch(cfg, max(read_order(name) for name in names))
    out = [_scan(f"a{n}", cfg, *batch) for n in coefficient_range]
    out.extend(_scan("fs", cfg, *batch, lam) for lam in fs_lams)
    out.extend(_scan(kind, cfg, *batch) for kind in ("t", "h22", "h31"))
    return out
