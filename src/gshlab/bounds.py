"""Randomized extremal search against the claimed sharp coefficient bounds.

Each scan confronts a claimed bound with an empirical maximum over two
families of admissible inputs:

* members built from a witness batch: monomial anchors, which realize the
  known sharpness cases, then random Schwarz witnesses; and
* for functionals of a_2..a_4, a direct parametrization of the coefficient
  body (c in [0, 2], a unit-disk parameter x, a unimodular parameter z).

The larger empirical maximum wins; the best candidate is polished by
coordinatewise golden-section ascent.  Estimates carry a serialized witness
sufficient to reproduce the reported value, and a violation flag raised when
the empirical maximum exceeds the claimed bound beyond tolerance.  Scans are
seed-deterministic: sample i is drawn from the stream seeded by (seed, i), so
doubling the sample budget keeps every earlier sample and never lowers a
maximum.  The batch's coefficients are approximate (``core.member_rows``)
and only sieve it: every reported value comes from a member built exactly
(``member_from_witness``) at the functional's ``read_order``, and only the
rows that can hold the maximum are built.  A battery
(``default_scan_suite``) passes one witness batch, one table of the members
built and one of the direct-family points computed to all its scans;
``scan`` builds its own, and nothing is kept between calls.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .caratheodory import (ZERO_MODULUS_CAP, SchwarzSample, coeffs_from_witnesses, sample_schwarz,
                           streams)
from .core import (FUNCTIONALS, coeffs_from_caratheodory, functional, member_from_witness, member_rows,
                   read_order)
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
    """Anchors z^1..z^max(5, order), then a config's samples, and their members' a_0..a_order.

    The rows come from ``member_rows``: approximate coefficients that rank
    the batch and report no number (``_scan`` builds exactly each member
    that can hold a maximum).  A row whose approximate coefficients are not
    all finite is built exactly here, so a member that overflows raises
    ValueError.  Every call builds a new batch.  A scan reads the leading
    columns it needs, which are bitwise the rows at its own read order.
    Sample i is drawn from the stream seeded by (seed, i) (``streams``), so the
    batch of a smaller budget is a prefix of the batch of a larger one.
    """
    witnesses = [SchwarzSample.monomial(k) for k in range(1, max(5, order) + 1)]
    witnesses += [sample_schwarz(rng, max_zeros=MAX_ZEROS)
                  for rng in streams((cfg.seed,), 0, cfg.samples)]
    rows = member_rows(witnesses, order)
    for i in np.flatnonzero(~np.isfinite(rows).all(axis=1)):
        rows[i] = _member_coeffs(witnesses[i], order)
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


def _polish_witness(params: np.ndarray) -> tuple[complex, tuple[complex, ...]]:
    """The rotation and zeros of the witness at a polish point, as Python complex numbers."""
    p = params.tolist()
    return cmath.exp(1j * p[0]), tuple(p[k] * cmath.exp(1j * p[k + 1]) for k in range(1, len(p), 2))


def witness_to_json(omega: SchwarzSample) -> dict:
    return {"family": "schwarz", **omega.to_json()}


def caratheodory_witness_to_json(c1: float, x: complex, z: complex) -> dict:
    return {"family": "caratheodory", "c1": float(c1),
            "x": [x.real, x.imag], "z": [z.real, z.imag]}


def evaluate_witness(witness: dict, functional: str, lam: complex = 1.0) -> float:
    """Recompute a functional value from a serialized witness alone.

    A Schwarz witness builds its member at ``read_order(functional)``, the
    order the scans read, so the value is the scan's to the bit.  Its
    ``rotation`` and ``zeros`` must be JSON lists of JSON numbers, as
    ``SchwarzSample.to_json`` writes them; a tuple, an array or a numpy
    number there raises ValueError.
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


def _direct_family_max(name: str, lam: complex, points: dict):
    """Grid maximum of |name| over the direct family, polished coordinatewise.

    The grid and its coefficients come from ``_direct_grid``; a scan computes
    only the functional on them, its modulus and the argmax.  The polish
    reads a_0..a_4 at a point (c1, x, z) from ``points``, the battery's
    table keyed by the point's complex128 bytes, and computes them only on
    a miss; each scan then takes its own functional of them.
    """
    (cc, yy, pp, zz), coeffs = _direct_grid()
    vals = np.abs(functional(name, coeffs, lam))
    idx = np.unravel_index(np.argmax(vals), vals.shape)
    x0 = np.array([cc[idx], yy[idx], pp[idx], cmath.phase(complex(zz[idx])) % (2 * math.pi)])

    def score(p):
        c1, x, z = p[0], p[1] * cmath.exp(1j * p[2]), cmath.exp(1j * p[3])
        key = np.array([c1, x, z], dtype=np.complex128).tobytes()
        if key not in points:
            points[key] = _direct_coeffs(c1, x, z)
        return float(np.abs(functional(name, points[key], lam)))

    bounds = [(0.0, 2.0), (0.0, 1.0), (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)]
    p, best = polish_coordinatewise(score, x0, bounds, rounds=POLISH_ROUNDS)
    witness = caratheodory_witness_to_json(p[0], p[1] * cmath.exp(1j * p[2]),
                                           cmath.exp(1j * p[3]))
    return best, witness


# -- scans --------------------------------------------------------------------

#: The batch sieve of ``_scan`` builds every row whose approximate value is
#: within this margin, relative to 1 + U, of the exact value U of the
#: approximate argmax.  Approximate and exact coefficients differ by about
#: 1e-16, far below it.
SIEVE_MARGIN = 1e-9


def _scan(name: str, cfg: ScanConfig, witnesses: list[SchwarzSample], rows: np.ndarray,
          members: dict, points: dict, lam: complex = 1.0) -> dict:
    """Empirical maximum of |name| over the search families, against its claimed bound.

    The estimate's keys: ``functional`` (``name``, or ``fs(lam)`` for the
    Fekete-Szego functional), ``empirical_max``, ``witness`` (the serialized
    witness that ``evaluate_witness`` turns back into that maximum),
    ``claimed_bound``, ``attained_ratio`` (the maximum over the bound) and
    ``violation`` (the maximum exceeds the bound by more than ``cfg.tolerance``).

    The first best of the batch ``witnesses`` (``witness_batch``: the
    monomial anchors, then random witnesses) is polished over its witness
    parameters.  The named functionals of a2..a4 also scan the direct
    family (the coefficient scans do not), and the larger maximum wins.
    Every value is read from members built at ``read_order(name)``; an
    anchor z^k with k >= 5 (k >= n for a_n) scores exactly 0, as f/z is a
    series in z^k.

    The batch's approximate rows (``rows``, at that order or higher) only
    sieve it.  Let U be the exact value of the row whose approximate value
    is largest.  Every row whose approximate value is not below
    U - SIEVE_MARGIN (1 + U), a NaN included, is built exactly, and the
    first of them in row order with the largest exact value is the batch's
    best.  A row left out is strictly below U, which is at most the exact
    maximum, so the best is the first exact argmax of the whole batch.

    ``members`` and ``points`` are the battery's tables, shared by its
    scans.  ``members`` holds each member built, keyed by (order, rotation,
    *zeros) as Python complex numbers, so -0.0 and 0.0 are one key: the
    member pipeline only adds and multiplies, and divides by nonzero
    constants, so the sign of a zero part changes only the sign of a zero
    result, never |functional|.  The sieve and the polish objective read
    it, and build a member (and, for the polish, its ``SchwarzSample``)
    only on a miss.  ``points`` is ``_direct_family_max``'s.
    """
    order = read_order(name)

    def value(rotation: complex, zeros: tuple, omega: SchwarzSample | None = None) -> float:
        key = (order, rotation, *zeros)
        if key not in members:
            omega = omega or SchwarzSample(rotation=rotation, zeros=zeros)
            members[key] = _member_coeffs(omega, order)
        return functional_value(name, members[key], lam)

    def batch_value(i: int) -> float:
        omega = witnesses[i]
        return value(complex(omega.rotation), tuple(map(complex, omega.zeros)), omega)

    approx = np.abs(functional(name, rows.T, lam))
    top = batch_value(int(np.argmax(approx)))
    built = np.flatnonzero(~(approx < top - SIEVE_MARGIN * (1.0 + top)))
    values = [batch_value(i) for i in built]
    j = int(np.argmax(values))
    best_witness, best = witnesses[built[j]], values[j]

    params, bounds = _schwarz_params(best_witness)
    if len(params) > 1:
        params, polished = polish_coordinatewise(lambda p: value(*_polish_witness(p)),
                                                 params, bounds, rounds=POLISH_ROUNDS)
        if polished > best:
            best = polished
            best_witness = SchwarzSample(*_polish_witness(params))
    witness = witness_to_json(best_witness)
    if name in FUNCTIONALS and name in _DIRECT_FUNCTIONALS:
        direct_best, direct_witness = _direct_family_max(name, lam, points)
        if direct_best > best:
            best, witness = direct_best, direct_witness
    claim = claimed_bound(name, lam)
    return {"functional": f"fs({lam})" if name == "fs" else name, "empirical_max": best,
            "witness": witness, "claimed_bound": claim, "attained_ratio": best / claim,
            "violation": bool(best > claim + cfg.tolerance)}


def scan(name: str, cfg: ScanConfig, lam: complex = 1.0) -> dict:
    """``_scan`` of ``name`` on its own witness batch and tables, at ``read_order(name)``.

    ``name`` is ``aN`` (n >= 2), ``h22``, ``h31``, ``fs`` (Fekete-Szego,
    parameter ``lam``) or ``t`` (a4 - a2 a3); ``read_order`` checks it first.
    """
    return _scan(name, cfg, *witness_batch(cfg, read_order(name)), {}, {}, lam)


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
                       fs_lams: tuple[complex, ...] = DEFAULT_FS_LAMBDAS) -> list[dict]:
    """The standard battery: coefficient bounds, Fekete-Szego values, t, h22, h31.

    Once ``read_order`` accepts every name of the battery, one witness batch
    is built at the highest read order (6 for the default one) and passed to
    every scan, which reads its leading columns, with one member table and
    one direct-family table (``_scan``), so each member and each direct
    point is computed once per battery.  Each estimate is its standalone
    ``scan``'s, bit for bit.
    """
    names = [*(f"a{n}" for n in coefficient_range), *FUNCTIONALS]
    batch = (*witness_batch(cfg, max(read_order(name) for name in names)), {}, {})
    out = [_scan(f"a{n}", cfg, *batch) for n in coefficient_range]
    out.extend(_scan("fs", cfg, *batch, lam) for lam in fs_lams)
    out.extend(_scan(kind, cfg, *batch) for kind in ("t", "h22", "h31"))
    return out
