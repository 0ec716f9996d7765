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
maximum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .caratheodory import SchwarzSample, coeffs_from_witnesses, sample_schwarz
from .core import FUNCTIONALS, coeffs_from_caratheodory, functional, member_from_witness
from .refine import polish_coordinatewise, refine_grid_max, refine_grid_max_2d

#: Complexity caps of the random witnesses: Blaschke zeros and their modulus.
MAX_ZEROS = 4
ZERO_MODULUS_CAP = 0.75

#: Direct-family grid: samples of c in [0, 2], of |x| in [0, 1] and of arg x.
DIRECT_C_SAMPLES = 41
DIRECT_Y_SAMPLES = 21
DIRECT_PHASE_SAMPLES = 12

#: Coordinatewise golden-section polish: sweeps, and steps per coordinate.
POLISH_ROUNDS = 2
POLISH_ITERS = 40

#: Envelope grids: samples of c in [0, 2] and of y in [0, 1].
ENVELOPE_C_SAMPLES = 201
ENVELOPE_Y_SAMPLES = 101


@dataclass(frozen=True)
class ScanConfig:
    """Budget, seed, truncation order and violation tolerance of one extremal scan."""

    samples: int = 10_000
    seed: int = 0
    order: int = 16
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


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
    if name.startswith("a") and name[1:].isdigit():
        n = int(name[1:])
        if n < 2:
            raise ValueError("coefficient functionals start at a2")
        return 1.0 / (n - 1)
    return {
        "fs": 0.5 * max(1.0, abs(2.0 * complex(lam) - 1.0)),
        "t": 1.0 / 3.0,
        "h22": 1.0 / 36.0,
        "h31": 0.25,
    }[name]


# -- witness family -----------------------------------------------------------


def _member_coeffs(omega: SchwarzSample, order: int) -> np.ndarray:
    return member_from_witness(omega, order).series.coeffs


_BATCH_CACHE: dict[ScanConfig, tuple[list[SchwarzSample], np.ndarray]] = {}


def witness_batch(cfg: ScanConfig) -> tuple[list[SchwarzSample], np.ndarray]:
    """Members for all sample indices of a config (cached per config).

    Sample i is drawn from the stream seeded by (seed, i), so the batch of a
    smaller budget is a prefix of the batch of a larger one.
    """
    cached = _BATCH_CACHE.get(cfg)
    if cached is not None:
        return cached
    witnesses = []
    rows = np.empty((cfg.samples, cfg.order + 1), dtype=np.complex128)
    for i in range(cfg.samples):
        rng = np.random.default_rng((cfg.seed, i))
        omega = sample_schwarz(rng, max_zeros=MAX_ZEROS, zero_modulus_cap=ZERO_MODULUS_CAP)
        witnesses.append(omega)
        rows[i] = _member_coeffs(omega, cfg.order)
    if len(_BATCH_CACHE) > 8:
        _BATCH_CACHE.clear()
    _BATCH_CACHE[cfg] = (witnesses, rows)
    return witnesses, rows


def _anchor_witnesses(cfg: ScanConfig, highest_power: int) -> list[SchwarzSample]:
    """Monomial witnesses z^k; these realize every known sharpness case."""
    top = min(highest_power, cfg.order - 1)
    return [SchwarzSample.monomial(k) for k in range(1, top + 1)]


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
    rotation = cmath.exp(1j * params[0])
    zeros = tuple(params[k] * cmath.exp(1j * params[k + 1])
                  for k in range(1, len(params), 2))
    return SchwarzSample(rotation=rotation, zeros=zeros)


def witness_to_json(omega: SchwarzSample) -> dict:
    return {"family": "schwarz", **omega.to_json()}


def caratheodory_witness_to_json(c1: float, x: complex, z: complex) -> dict:
    return {"family": "caratheodory", "c1": float(c1),
            "x": [x.real, x.imag], "z": [z.real, z.imag]}


def evaluate_witness(witness: dict, functional: str, lam: complex = 1.0,
                     order: int = 16) -> float:
    """Recompute a functional value from a serialized witness alone."""
    if witness["family"] == "schwarz":
        omega = SchwarzSample.from_json(witness)
        return functional_value(functional, _member_coeffs(omega, order), lam)
    if witness["family"] == "caratheodory":
        return float(_direct_values(functional, witness["c1"], complex(*witness["x"]),
                                    complex(*witness["z"]), lam))
    raise ValueError(f"unknown witness family {witness.get('family')!r}")


# -- direct coefficient-body family ------------------------------------------

#: The parametrization fixes c1..c3, hence a2..a4 and their functionals.
_DIRECT_FUNCTIONALS = ("a2", "a3", "a4", "fs", "t", "h22")


def _direct_values(name: str, c1, x, z, lam: complex = 1.0):
    """Vectorized |functional| on the direct (c1, x, z) parametrization."""
    if name not in _DIRECT_FUNCTIONALS:
        raise ValueError(f"functional {name!r} not covered by the direct family")
    c1 = np.asarray(c1, dtype=float)
    x = np.asarray(x, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    c2, c3 = coeffs_from_witnesses(c1, x, z)
    return np.abs(functional(name, (0.0, 1.0, *coeffs_from_caratheodory((c1, c2, c3, 0.0))), lam))


def _direct_family_max(name: str, lam: complex = 1.0):
    cs = np.linspace(0.0, 2.0, DIRECT_C_SAMPLES)
    ys = np.linspace(0.0, 1.0, DIRECT_Y_SAMPLES)
    phases = np.linspace(0.0, 2.0 * np.pi, DIRECT_PHASE_SAMPLES, endpoint=False)
    zs = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False))
    cc, yy, pp, zz = np.meshgrid(cs, ys, phases, zs, indexing="ij")
    vals = _direct_values(name, cc, yy * np.exp(1j * pp), zz, lam)
    idx = np.unravel_index(np.argmax(vals), vals.shape)
    best = float(vals[idx])
    x0 = np.array([cc[idx], yy[idx], pp[idx], cmath.phase(complex(zz[idx])) % (2 * math.pi)])

    def score(p):
        return float(_direct_values(name, p[0], p[1] * cmath.exp(1j * p[2]),
                                    cmath.exp(1j * p[3]), lam))

    bounds = [(0.0, 2.0), (0.0, 1.0), (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)]
    p, best = polish_coordinatewise(score, x0, bounds, rounds=POLISH_ROUNDS, iters=POLISH_ITERS)
    witness = caratheodory_witness_to_json(p[0], p[1] * cmath.exp(1j * p[2]),
                                           cmath.exp(1j * p[3]))
    return best, witness


# -- scans --------------------------------------------------------------------


def _scan(name: str, cfg: ScanConfig, anchor_power: int, lam: complex = 1.0) -> BoundEstimate:
    """Empirical maximum of |name| over the search families, against its claimed bound.

    The best of the monomial anchors z^1..z^anchor_power and the random batch
    is polished over its witness parameters.  The named functionals of a2..a4
    also scan the direct family (the coefficient scans do not), and the larger
    maximum wins.

    The anchors and the polish objective build members only up to the highest
    power the functional reads: a_n for ``aN`` (at least a_5, at most the
    config order), a_5 for the named functionals.  Member construction is
    truncation-consistent to the bit (the order-m member equals the first
    m + 1 coefficients of any higher-order one), so values, ties and
    witnesses are exactly those of members built at ``cfg.order``.
    """
    read_order = 5 if name in FUNCTIONALS else min(cfg.order, max(5, int(name[1:])))
    witnesses, rows = witness_batch(cfg)
    candidates = _anchor_witnesses(cfg, anchor_power)
    values = [functional_value(name, _member_coeffs(w, read_order), lam) for w in candidates]
    batch_vals = np.array([functional_value(name, rows[i], lam)
                           for i in range(rows.shape[0])])
    if batch_vals.size:
        j = int(np.argmax(batch_vals))
        candidates.append(witnesses[j])
        values.append(float(batch_vals[j]))
    k = int(np.argmax(values))
    best_witness, best = candidates[k], float(values[k])
    params, bounds = _schwarz_params(best_witness)

    def score(p):
        return functional_value(name, _member_coeffs(_schwarz_from_params(p), read_order), lam)

    if len(params) > 1:
        params, polished = polish_coordinatewise(score, params, bounds,
                                                 rounds=POLISH_ROUNDS, iters=POLISH_ITERS)
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


def scan_coefficient_bound(n: int, cfg: ScanConfig) -> BoundEstimate:
    """Empirical maximum of |a_n| over witness-built members vs 1/(n-1)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if cfg.order < n:
        raise ValueError(f"scan order {cfg.order} cannot expose a_{n}")
    return _scan(f"a{n}", cfg, anchor_power=max(5, n))


def hankel_scan(kind: str, cfg: ScanConfig, lam: complex = 1.0) -> BoundEstimate:
    """Empirical maximum of a coefficient functional against its claimed bound.

    ``kind`` is one of ``h22``, ``h31``, ``fs`` (Fekete-Szego, parameter
    ``lam``) or ``t`` (the functional a4 - a2 a3).  Both search families run
    where applicable and the larger maximum wins.
    """
    if kind not in FUNCTIONALS:
        raise ValueError(f"unknown scan kind {kind!r}")
    if cfg.order < 5:
        raise ValueError("scan order must be at least 5")
    return _scan(kind, cfg, anchor_power=4, lam=lam)


# -- the closed-form envelope of the h22 functional ---------------------------


def h22_envelope(c: float, y: float) -> float:
    """Triangle-inequality envelope of |a2 a4 - a3^2| over the direct family.

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
    return float(_h22_envelope_array(np.asarray(c, float), np.asarray(y, float)))


def _h22_envelope_array(c, y):
    c = np.asarray(c, dtype=float)
    y = np.asarray(y, dtype=float)
    gap = 4.0 - c * c
    return (0.5 * c ** 4 + 1.5 * (c * c + 12.0) * gap * y * y
            + 12.0 * c * gap * (1.0 - y * y)) / 288.0


def h22_envelope_max() -> tuple[float, tuple[float, float]]:
    """Grid maximum of the envelope over [0, 2] x [0, 1] with local zoom."""
    return refine_grid_max_2d(_h22_envelope_array, (0.0, 2.0), (0.0, 1.0),
                              (ENVELOPE_C_SAMPLES, ENVELOPE_Y_SAMPLES))


@dataclass(frozen=True)
class EnvelopeProfile:
    """The envelope along y = 1, tabulated over [0, 2]."""

    cs: np.ndarray
    values: np.ndarray
    argmax_c: float
    max_value: float

    def to_json(self) -> dict:
        return {"c": [float(v) for v in self.cs],
                "value": [float(v) for v in self.values],
                "argmax_c": self.argmax_c, "max_value": self.max_value}


def h22_envelope_profile() -> EnvelopeProfile:
    """Tabulate the y = 1 section of the envelope and locate its maximum."""
    cs = np.linspace(0.0, 2.0, ENVELOPE_C_SAMPLES)
    values = _h22_envelope_array(cs, np.ones_like(cs))
    argmax_c, max_value = refine_grid_max(
        lambda x: _h22_envelope_array(x, np.ones_like(x)), 0.0, 2.0, ENVELOPE_C_SAMPLES)
    return EnvelopeProfile(cs=cs, values=values, argmax_c=argmax_c, max_value=max_value)


def default_scan_suite(cfg: ScanConfig, coefficient_range: tuple[int, ...] = (2, 3, 4, 5, 6),
                       fs_lams: tuple[complex, ...] = (0.0, 0.5, 1.0, 2.0)) -> list[BoundEstimate]:
    """The standard battery: coefficient bounds, Fekete-Szego values, t, h22, h31."""
    out = [scan_coefficient_bound(n, cfg) for n in coefficient_range]
    out.extend(hankel_scan("fs", cfg, lam) for lam in fs_lams)
    out.append(hankel_scan("t", cfg))
    out.append(hankel_scan("h22", cfg))
    out.append(hankel_scan("h31", cfg))
    return out
