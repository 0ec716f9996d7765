"""Differential-subordination implications with a Janowski premise.

Four operator premises are covered, each paired with an angular threshold on
|alpha| built from the values of |sinh| and |cosh| on the unit circle:

    kind 1:  1 + alpha z f'(z)
    kind 2:  1 + alpha z f'(z)/f(z)
    kind 3:  1 + alpha z^2 f'(z)/f(z)^2
    kind 4:  1 + alpha z^3 f'(z)/f(z)^3

When the operator is subordinate to a Janowski map (1 + A z)/(1 + B z) and
|alpha| clears the kind's threshold, the claimed conclusion is that f(z)/z
lies under 1 + sinh z (for kind 3 a square-root target is also printed in
the source material; both targets are evaluated and reported).  The harness
samples candidate functions, tests the premise by the Janowski deviation of
the operator values on one circle, tests the conclusion geometrically,
and counts counterexamples (premise true, conclusion false); it also
reports when a configuration's premise is unsatisfiable at the scanned
alpha, which happens whenever the identity's deviation already reaches 1.

By the open mapping theorem a function analytic on the closed disk |z| <=
0.995 maps it into a Jordan domain (the Janowski disk, sinh(D), sqrt(1 + D))
exactly when it maps the circle |z| = 0.995 there.  Kinds 2-4 divide by f/z,
so a zero of f/z inside the circle (``core.winding_number``) fails the
premise.  Candidates failing it are halved toward the identity step by step.

The harness (``run_config``, which gives the proofs) decides its candidates
in blocks that draw exactly what one-at-a-time sampling would.  The
configurations of one kind read prefixes of one candidate table
(``_Candidates``), whose streams are seeded in one pass
(``caratheodory.streams``); a job's tables grow together, with one
``core.member_rows`` call for their Schwarz members and one Horner pass for
their values on the circle.
The steps that a certificate (``_certified_from``) does not clear run in
one batch (``_uncertified_batch``), which is replayed one step at a time, in
candidate order, only when it records a floating-point error that the caller
does not ignore; the certified steps are probed at 4 of the circle's 64
points, which can only fail a step, and the whole circle decides the rest.
One batched builder (``_records``) then makes a decided block's kept records;
``verify_implication`` is its one-row case.

"Premise holds" means that the operator's image of the disk lies inside the
Janowski disk, not that the operator is subordinate to the Janowski map: a
subordination needs the value 1 at the origin, and for kinds 2-4 the coded
operator equals 1 + alpha there for every normalized f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import series as ts
from .caratheodory import SchwarzSample, sample_schwarz, streams
from .core import NormalizedFunction, PolarGrid, PreconditionNotMet, member_rows, winding_number
from .refine import grid_golden_max
from .regions import sinh_boundary, sinh_region, sqrt_disk_region

#: Deviations must stay below 1 by at least this margin for the premise to hold.
PREMISE_MARGIN = 1e-6

#: Times a candidate failing the premise is rescaled toward the identity.
SHRINK_STEPS = 24


class ZeroDivisorOnGrid(ValueError):
    """f(z)/z vanished on the evaluation grid where the operator divides by it."""


@dataclass(frozen=True)
class JanowskiParams:
    """Target map (1 + A z)/(1 + B z) with -1 <= B < A <= 1."""

    a: float
    b: float

    def __post_init__(self):
        if not (-1.0 <= self.b < self.a <= 1.0):
            raise ValueError(f"need -1 <= B < A <= 1, got A={self.a}, B={self.b}")


class OperatorKind(IntEnum):
    Z_FPRIME = 1
    RATIO = 2
    RATIO_SQUARED = 3
    RATIO_CUBED = 4


@dataclass(frozen=True)
class ImplicationCase:
    kind: OperatorKind
    alpha: complex
    janowski: JanowskiParams

    def __post_init__(self):
        # written so that NaN fails it
        if not 0.0 < abs(complex(self.alpha)) < math.inf:
            raise ValueError("alpha must be finite and nonzero")


# -- extrema of |sinh| and |cosh| on the unit circle -------------------------


def circle_sinh_abs(theta):
    return np.abs(sinh_boundary(theta))


def circle_cosh_abs(theta):
    return np.abs(np.cosh(np.exp(1j * np.asarray(theta, dtype=float))))


def trig_extrema(theta_samples: int = 2048) -> dict:
    """Extrema of |sinh e^(i theta)| and |cosh e^(i theta)| on [-pi, pi].

    Grid scan with golden-section refinement; the extrema equal sin 1,
    sinh 1, cos 1 and cosh 1, attained at angles 0, +-pi and +-pi/2.  The
    record's keys: ``sinh_min``, ``sinh_max``, ``cosh_min`` and ``cosh_max``,
    and the angle of each, ``sinh_argmin`` and so on.
    """
    if theta_samples < 1024:
        raise ValueError("theta_samples must be >= 1024")
    thetas = np.linspace(-math.pi, math.pi, theta_samples)
    step = 2.0 * math.pi / (theta_samples - 1)

    def refined(fn, sign):
        x, v = grid_golden_max(lambda t: sign * fn(t), thetas, step)
        return x, sign * v

    out = {}
    for name, fn in (("sinh", circle_sinh_abs), ("cosh", circle_cosh_abs)):
        for end, sign in (("max", 1.0), ("min", -1.0)):
            out[f"{name}_arg{end}"], out[f"{name}_{end}"] = refined(fn, sign)
    return out


# -- thresholds ---------------------------------------------------------------


def alpha_threshold(kind: OperatorKind | int, params: JanowskiParams) -> float | None:
    """Angular threshold on |alpha| for the given operator kind.

    Kind 1 uses |B| in its denominator while kinds 2..4 use B as printed in
    the source formulas; ``None`` is returned when the denominator is not
    positive (the derivation implicitly assumes it is).
    """
    kind = OperatorKind(kind)
    a, b = params.a, params.b
    base = 1.0 + math.cos(1.0) - math.sin(1.0)
    growth = 1.0 + math.sinh(1.0) + math.cosh(1.0)
    if kind is OperatorKind.Z_FPRIME:
        den = base - abs(b) * growth
        num = a - b
    else:
        den = base - b * growth
        num = (a - b) * (1.0 + math.sinh(1.0)) ** (int(kind) - 1)
    if den <= 0.0:
        return None
    return num / den


def threshold_b_form_differs(kind: OperatorKind | int, params: JanowskiParams) -> bool:
    """True when B < 0 makes the |B| and bare-B threshold variants differ."""
    return OperatorKind(kind) is not OperatorKind.Z_FPRIME and params.b < 0.0


# -- premise ------------------------------------------------------------------


def janowski_deviation(values, params: JanowskiParams) -> float:
    """sup |(v - 1)/(A - B v)| over the sampled operator values.

    Infinite when some denominator vanishes.  The premise of an implication
    holds when this deviation stays below 1 - margin.
    """
    return float(_row_deviations(np.asarray(values, dtype=np.complex128).ravel(), params))


def _row_deviations(v: np.ndarray, params: JanowskiParams) -> np.ndarray:
    """``janowski_deviation`` of each row of v (its last axis): inf for a row with a
    denominator |A - B v| < 1e-300, whose quotients are not computed."""
    den = params.a - params.b * v
    finite = ~(np.abs(den) < 1e-300).any(axis=-1)
    if finite.all():
        return np.abs((v - 1.0) / den).max(axis=-1)
    out = np.full(v.shape[:-1], math.inf)
    out[finite] = np.abs((v[finite] - 1.0) / den[finite]).max(axis=-1)
    return out


def operator_values(f: NormalizedFunction, kind: OperatorKind | int,
                    alpha: complex, z: np.ndarray) -> np.ndarray:
    """Pointwise values of the kind's operator at the grid points z."""
    kind = OperatorKind(kind)
    fp = f.derivative_values(z)
    g = None
    if kind is not OperatorKind.Z_FPRIME:
        g = f.over_z_values(z)
        if np.any(_vanishes(g)):
            raise ZeroDivisorOnGrid("f(z)/z vanishes on the grid")
    return _operator(kind, alpha, z, fp, g)


def _vanishes(g: np.ndarray) -> np.ndarray:
    """Rows of g = f(z)/z (last axis on the grid) where |f/z| <= 1e-8 somewhere."""
    return np.abs(g).min(axis=-1) <= 1e-8


def _operator(kind: OperatorKind, alpha: complex, z: np.ndarray, fp: np.ndarray,
              g: np.ndarray | None) -> np.ndarray:
    """The kind's operator from fp = f'(z) and g = f(z)/z (unused by kind 1; not vanishing)."""
    if kind is OperatorKind.Z_FPRIME:
        return 1.0 + alpha * z * fp
    return 1.0 + alpha * fp / g ** (int(kind) - 1)


# -- single-case verification -------------------------------------------------

#: The harness's one circle, which decides every verdict for its disk (module docstring).
HARNESS_GRID = PolarGrid(theta_samples=64, radial_samples=1, max_radius=0.995)


def _conclusions(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both conclusion verdicts for each row of g = f(z)/z: g - 1 in sinh(D), g in sqrt(1 + D)."""
    return sinh_region().contains(g - 1.0), sqrt_disk_region().contains(g)


def _pole_inside(case: ImplicationCase, g: np.ndarray) -> bool:
    """True when the operator divides by f/z, whose values g on a circle wind about 0."""
    return case.kind != OperatorKind.Z_FPRIME and winding_number(g) != 0


def _alpha_pair(alpha: complex) -> list[float]:
    return [complex(alpha).real, complex(alpha).imag]


def _records(case: ImplicationCase, c: np.ndarray, dp: np.ndarray,
             dg: np.ndarray) -> list[dict]:
    """Record of each row of coefficients c on ``HARNESS_GRID``, given the row's f' - 1
    and f/z - 1 there (dp and dg, as ``_tail_values`` gives them); raises
    ``ZeroDivisorOnGrid`` where a kind 2-4 row's f/z vanishes there, as
    ``operator_values`` does.

    A record's keys: the case's ``kind``, ``A``, ``B`` and ``alpha`` ([re, im]);
    ``deviation``; ``premise_holds`` (deviation below 1 - ``PREMISE_MARGIN``
    and, for kinds 2-4, no zero of f/z inside the circle) and ``vacuous``, its
    negation; ``conclusion_sinh`` (f/z - 1 in sinh(D)), also written as
    ``conclusion_holds``; ``conclusion_sqrt`` (f/z in sqrt(1 + D)); and
    ``function``, the JSON of the row's function.
    """
    z = HARNESS_GRID.points()
    deviation, vanishes = _step_rows(case, z, dp, dg, 1.0)
    if vanishes.any():
        raise ZeroDivisorOnGrid("f(z)/z vanishes on the grid")
    g = dg + 1.0
    premise = deviation < 1.0 - PREMISE_MARGIN
    if case.kind is not OperatorKind.Z_FPRIME:
        premise[premise] = winding_number(g[premise]) == 0
    sinh_ok, sqrt_ok = _conclusions(g)
    kind, a, b = int(case.kind), case.janowski.a, case.janowski.b
    return [{"kind": kind, "A": a, "B": b, "alpha": _alpha_pair(case.alpha), "deviation": dev,
             "premise_holds": ok, "conclusion_holds": sinh, "conclusion_sinh": sinh,
             "conclusion_sqrt": sqrt, "vacuous": not ok,
             "function": NormalizedFunction(row).to_json()}
            for dev, ok, sinh, sqrt, row in zip(deviation.tolist(), premise.tolist(),
                                                sinh_ok.tolist(), sqrt_ok.tolist(), c)]


def verify_implication(f: NormalizedFunction, case: ImplicationCase) -> dict:
    """Premise and conclusions of one implication case for f on ``HARNESS_GRID``: the
    one-row case of ``_records``, from f's own Horner pass, so a kept harness record is
    ``verify_implication`` of its function and case."""
    c = f.coeffs[None]
    return _records(case, c, *_tail_values(c, HARNESS_GRID.points()))[0]


# -- harness ------------------------------------------------------------------


DEFAULT_CONFIGS = ((1.0, 0.0), (0.5, -0.5), (0.8, 0.2))


#: Truncation order of the harness's candidate functions.
CANDIDATE_ORDER = 8


def _sample_candidate(rng: np.random.Generator) -> NormalizedFunction | SchwarzSample:
    """One harness candidate drawn from rng, unbuilt: with probability 1/2 the polynomial
    z + a_2 z^2 + ... + a_d z^d (d = 2..6, a_n = (x + iy)/n with x, y normal of deviation
    0.15), else a Schwarz witness with at most two zeros, whose member ``_candidate_rows``
    builds."""
    if rng.random() < 0.5:
        degree = int(rng.integers(2, 7))
        x = rng.normal(0.0, 0.15, 2 * degree - 2).tolist()  # the scalar draws, in order
        tail = [(x[2 * n - 4] + 1j * x[2 * n - 3]) / n for n in range(2, degree + 1)]
        return NormalizedFunction.from_tail(tail, order=CANDIDATE_ORDER)
    return sample_schwarz(rng, max_zeros=2)


def _candidate_rows(drawn: list[NormalizedFunction | SchwarzSample]) -> np.ndarray:
    """Coefficients a_0..a_CANDIDATE_ORDER of each drawn candidate, one row each: a
    function's own, and the members of all the Schwarz witnesses from one
    ``member_rows`` call, whose rows are not checked to be finite."""
    rows = np.zeros((len(drawn), CANDIDATE_ORDER + 1), dtype=np.complex128)
    witnesses = []
    for i, d in enumerate(drawn):
        if isinstance(d, SchwarzSample):
            witnesses.append(i)
        else:
            rows[i] = d.coeffs
    if witnesses:
        rows[witnesses] = member_rows([drawn[i] for i in witnesses], CANDIDATE_ORDER)
    return rows


class _Candidates:
    """The harness candidates of one seed, one table per kind, in draw order: candidate i
    of a kind is drawn from ``default_rng((seed, kind, i))`` (``caratheodory.streams``),
    whatever the configuration, so every configuration of a kind reads a prefix of
    its kind's table.

    A table holds each row's coefficients and its f' - 1 and f/z - 1 on the points
    z of ``HARNESS_GRID`` (``_tail_values``, run with floating-point errors
    ignored).  A block that reads past the end of its kind's table grows it to the
    block's end, and the first growth also fills each kind's table to
    ``reserve[kind]`` rows: the tables grow together, with one ``member_rows`` call
    and one Horner pass."""

    def __init__(self, seed: int):
        self.seed, self.reserve, self.z = seed, {}, HARNESS_GRID.points()
        c = np.empty((0, CANDIDATE_ORDER + 1), dtype=np.complex128)
        v = np.empty((0, self.z.size), dtype=np.complex128)
        self.tables = dict.fromkeys(OperatorKind, (c, v, v))

    def block(self, kind: OperatorKind, start: int,
              stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only coefficients, f' - 1 and f/z - 1 of rows start..stop - 1 of the kind's
        table.  Raises ``member_from_witness``'s ValueError when a row's coefficients
        are not finite."""
        if stop > len(self.tables[kind][0]):
            self.reserve[kind] = max(self.reserve.get(kind, 0), stop)
            self._grow()
        c, dp, dg = (a[start:stop] for a in self.tables[kind])
        if not np.isfinite(c).all():
            raise ValueError("series coefficients must be finite")
        return c, dp, dg

    def _grow(self):
        """Grow each table to its reserve, all in one build, and clear the reserves."""
        drawn, grown = [], []
        for kind, size in self.reserve.items():
            have = len(self.tables[kind][0])
            drawn += [_sample_candidate(rng) for rng in streams((self.seed, int(kind)), have, size)]
            grown.append((kind, max(size - have, 0)))
        self.reserve = {}
        c = _candidate_rows(drawn)
        with np.errstate(all="ignore"):
            dp, dg = _tail_values(c, self.z)
        at = 0
        for kind, rows in grown:
            new = (a[at:at + rows] for a in (c, dp, dg))
            self.tables[kind] = tuple(np.concatenate(pair) for pair in zip(self.tables[kind], new))
            for a in self.tables[kind]:
                a.setflags(write=False)
            at += rows


def _config_floor(case: ImplicationCase, z: np.ndarray) -> float:
    """Deviation of the identity candidate, a practical lower bound over f.

    For kinds 2..4 the operator tends to 1 + alpha at the origin for every
    normalized f, and for kind 1 the identity is deviation-minimal among
    normalized functions, so a floor at or above 1 certifies that the
    premise cannot hold at this alpha.
    """
    f = NormalizedFunction.identity(order=4)
    return janowski_deviation(operator_values(f, case.kind, case.alpha, z), case.janowski)


#: Largest certified bound on |v - 1| for operator values v of a shrink step.
_CERTIFIED_SPREAD = 2.0 ** 20

#: Most candidates that ``run_config`` draws and decides as one block.
_BLOCK_ROWS = 256

#: Certified steps are first probed at every this many-th circle point.
_PROBE_STRIDE = 16


def _tail_values(c: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f'(z) - 1 and f(z)/z - 1 on z for each row of candidate coefficients c, f' first,
    each by one Horner pass over a_2, a_3, ... with the rows as lanes."""
    def lanes(a):
        return a[:, 2:].T[:, :, None]

    dp = ts.evaluate(lanes(c * np.arange(c.shape[1])), z) * z
    dg = ts.evaluate(lanes(c), z) * z
    return dp, dg


def _certified_from(case: ImplicationCase, z: np.ndarray, dp: np.ndarray,
                    dg: np.ndarray) -> np.ndarray:
    """First step of the certified suffix of each row's shrink ladder (SHRINK_STEPS + 1 if none).

    Step k (s = 2^-k) is certified when s max|dg| <= 1/2, so that |f/z| >= 1/2 on
    the grid, and when, with a relative slack of 1e-9, a bound on |v - 1| for
    the step's operator values v is at most 2^20: |alpha| max|z| (1 + s max|dp|)
    for kind 1, and |alpha| (1 + s max|dp|)/(1 - s max|dg|)^(kind - 1) for kinds
    2..4.  A NaN or infinite max or alpha fails both tests, so it certifies no step.
    """
    s = np.ldexp(1.0, -np.arange(SHRINK_STEPS + 1))
    with np.errstate(all="ignore"):
        m_p = np.max(np.abs(dp), axis=-1, keepdims=True)
        m_g = np.max(np.abs(dg), axis=-1, keepdims=True)
        alpha = abs(complex(case.alpha))
        if case.kind is OperatorKind.Z_FPRIME:
            bound = alpha * np.max(np.abs(z)) * (1.0 + s * m_p)
        else:
            bound = alpha * (1.0 + s * m_p) / (1.0 - s * m_g) ** (int(case.kind) - 1)
        certified = (s * m_g <= 0.5) & (bound * (1.0 + 1e-9) <= _CERTIFIED_SPREAD)
    last_uncertified = SHRINK_STEPS - np.argmax(~certified[:, ::-1], axis=1)
    return np.where(certified.all(axis=1), 0, last_uncertified + 1)


def _step_rows(case: ImplicationCase, z: np.ndarray, dp: np.ndarray, dg: np.ndarray,
               s) -> tuple[np.ndarray, np.ndarray]:
    """Janowski deviations of shrink steps, one per row of dp and dg (last axis on z),
    and the mask of the rows where f/z vanishes (``_vanishes``).

    The step with scale s (a number, or an array that broadcasts against the rows)
    has f' = s dp + 1 and f/z = s dg + 1.  A row where f/z vanishes gets deviation
    inf without its operator values being computed, so it raises nothing.
    """
    fp = s * dp + 1.0
    if case.kind is OperatorKind.Z_FPRIME:
        v = _operator(case.kind, case.alpha, z, fp, None)
        return _row_deviations(v, case.janowski), np.zeros(fp.shape[:-1], dtype=bool)
    g = s * dg + 1.0
    vanishes = _vanishes(g)
    if not vanishes.any():
        return _row_deviations(_operator(case.kind, case.alpha, z, fp, g), case.janowski), vanishes
    keep = ~vanishes
    deviation = np.full(vanishes.shape, math.inf)
    deviation[keep] = _row_deviations(_operator(case.kind, case.alpha, z, fp[keep], g[keep]),
                                      case.janowski)
    return deviation, vanishes


def _uncertified_batch(case: ImplicationCase, z: np.ndarray, dp: np.ndarray, dg: np.ndarray,
                       k0: np.ndarray, first: np.ndarray) -> bool:
    """Decide every row's steps below k0 in one batch, writing each row's first passing
    step into first; False, with nothing written, when a row of dp or dg is not finite
    or the batch records a floating-point error.  The batch runs under the caller's
    ``np.errstate``, except that each error it does not ignore is recorded by a
    ``"call"`` handler instead of being reported."""
    counts = np.minimum(k0, SHRINK_STEPS + 1)
    rows = np.repeat(np.arange(len(k0)), counts)
    if not rows.size:
        return True
    if not (np.isfinite(dp).all() and np.isfinite(dg).all()):
        return False
    steps = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    s = np.ldexp(1.0, -steps)[:, None]
    errors = []
    record = {name: "ignore" if mode == "ignore" else "call" for name, mode in np.geterr().items()}
    with np.errstate(call=lambda kind, flag: errors.append(kind), **record):
        deviation, _ = _step_rows(case, z, dp[rows], dg[rows], s)
        passed = deviation < 1.0 - PREMISE_MARGIN
        if case.kind is not OperatorKind.Z_FPRIME:
            passed[passed] = winding_number(s[passed] * dg[rows[passed]] + 1.0) == 0
    if errors:
        return False
    decided, at = np.unique(rows[passed], return_index=True)
    first[decided] = steps[passed][at]
    return True


def _shrink_block(case: ImplicationCase, z: np.ndarray, c: np.ndarray, dp: np.ndarray,
                  dg: np.ndarray) -> np.ndarray:
    """First passing step of each candidate (row of coefficients c, with f' - 1 and
    f/z - 1 on z in dp and dg), SHRINK_STEPS + 1 where no step passes.  The steps
    below the certified suffix go in one batch (``_uncertified_batch``), replayed one
    at a time in candidate order when the batch cannot decide them; then the
    certified steps of the candidates left are probed, all at once, and the steps
    the probe leaves open are tried on the whole circle, in step order, one batch
    per round.  See ``run_config``."""
    cut = 1.0 - PREMISE_MARGIN
    k0 = _certified_from(case, z, dp, dg)
    first = np.full(len(c), SHRINK_STEPS + 1)
    if not _uncertified_batch(case, z, dp, dg, k0, first):
        finite = np.isfinite(dp).all(axis=1) & np.isfinite(dg).all(axis=1)
        for i in range(len(c)):  # what can raise, in candidate order
            row = slice(i, i + 1)
            if not finite[i]:
                _tail_values(c[row], z)  # the row's own pass, which raises what it raises
            for k in range(min(int(k0[i]), SHRINK_STEPS + 1)):
                dev, _ = _step_rows(case, z, dp[row], dg[row], 2.0 ** -k)
                if dev[0] < cut and not _pole_inside(case, 2.0 ** -k * dg[i] + 1.0):
                    first[i] = k
                    break
    # the certified steps of the rows left: a probe fails steps, the whole circle passes one
    rows = np.flatnonzero((first > SHRINK_STEPS) & (k0 <= SHRINK_STEPS))
    steps = np.arange(SHRINK_STEPS + 1)
    with np.errstate(all="ignore"):
        probe, _ = _step_rows(case, z[::_PROBE_STRIDE], dp[rows, None, ::_PROBE_STRIDE],
                              dg[rows, None, ::_PROBE_STRIDE], np.ldexp(1.0, -steps)[:, None])
        open_steps = (steps >= k0[rows, None]) & ~(probe >= cut * (1.0 + 1e-9))
        while True:
            undecided = open_steps.any(axis=1)
            rows, open_steps = rows[undecided], open_steps[undecided]
            if not rows.size:
                break
            k = np.argmax(open_steps, axis=1)
            dev, _ = _step_rows(case, z, dp[rows], dg[rows], np.ldexp(1.0, -k)[:, None])
            passed = dev < cut
            first[rows[passed]] = k[passed]
            open_steps[np.arange(rows.size), k] = False
            rows, open_steps = rows[~passed], open_steps[~passed]
    return first


def _attempts_cap(floor: float, max_attempts: int) -> int:
    """Most attempts of a configuration with this deviation floor (``run_config``)."""
    return max_attempts if floor < 1.0 - PREMISE_MARGIN else min(max_attempts, 25)


def run_config(kind: OperatorKind, params: JanowskiParams, alpha: complex,
               threshold: float, seed: int, target_non_vacuous: int = 50,
               max_attempts: int = 400,
               keep_records: bool = True) -> tuple[dict, list[dict]]:
    """Sample candidates for one configuration until enough premise-true cases.

    Returns the configuration's summary and its kept records (``_records``;
    none unless ``keep_records``).  The summary's keys: ``kind``, ``A``,
    ``B``, ``alpha`` ([re, im]) and ``threshold``; ``attempts``,
    ``non_vacuous`` (premise-true attempts), ``counterexamples`` and
    ``counterexamples_sqrt`` (premise-true attempts whose sinh or sqrt
    conclusion fails); ``floor_deviation`` (``_config_floor``); and
    ``premise_feasible``, false when that floor reaches the cut-off
    1 - ``PREMISE_MARGIN``, in which case at most 25 attempts are made.

    Candidates failing the premise are rescaled toward the identity (tail
    coefficients halved) up to ``SHRINK_STEPS`` times; if the premise still
    fails the attempt is vacuous.  Its kept record holds the candidate of the
    last step (halved ``SHRINK_STEPS`` times).

    Candidates are drawn and decided in blocks of m = min(attempts left,
    premise-true cases still wanted, ``_BLOCK_ROWS``).  An attempt adds at
    most one premise-true case, so the one-at-a-time loop reaches every
    candidate of a block: the draws, the counts and the records are the same.
    Candidate i is drawn from the stream ``default_rng((seed, kind, i))``
    (``_sample_candidate``), whatever (A, B); ``caratheodory.streams`` deals
    these streams from one generator, state for state.  So the candidates come
    from one table per kind (``_Candidates``; ``run_config`` alone makes its
    own), of which a configuration reads a prefix, and a block is built when
    the tables grow (``_candidate_rows``): their Schwarz witnesses' members
    come from one ``core.member_rows`` call, which agrees with
    ``member_from_witness`` to round-off, not bit for bit, and whose rows do
    not depend on the batch.  A row that is not finite raises
    ``member_from_witness``'s ValueError when a block reads it, before the
    block's first step, as a build at each draw would: drawing raises
    nothing.  The bounded draws and their members raise no floating-point
    error (a Schwarz witness's coefficients have modulus at most 1), so no
    exception moves, also where a table grows past the block.

    A block's f'(z) - 1 and f/z - 1 come from the table's one Horner pass
    each over a_2, a_3, ..., the candidates as lanes (``_tail_values``), whose
    lanes do not depend on the batch either; step k scales them by 2**-k and
    adds 1.  That is bit for bit the Horner sum of the
    k-times halved candidate, because every Horner step commutes with a
    power-of-two scale while no value on the way is subnormal, and adding 1
    makes the sign of a zero part the same.

    A step passes when its deviation on the circle is below the cut-off and,
    for kinds 2..4, its f/z has no zero inside the circle (``_pole_inside``).
    The outcome, its bits and any exception are those of evaluating every
    step of every candidate in order, except that an underflow in a batch is
    not reported (the CLI raises on overflow, invalid and divide only):

    - The table's Horner pass runs with floating-point errors ignored.  A
      non-finite value stays non-finite through Horner, so a row that is
      not all finite is exactly a row whose own pass would raise; a block
      with such a row has its uncertified steps replayed (below), and the
      row's pass runs again alone, under the caller's ``np.errstate``, at
      its turn.
    - Certificate (``_certified_from``): on a certified step |f/z| >= 1/2, so
      f/z does not vanish on the grid, and |v - 1| <= 2^20.  Then no
      operation of the step can overflow, divide by zero or be invalid: the
      deviation divides only by denominators of modulus >= 1e-300, and
      numpy's complex division (Smith's method) gives a reciprocal factor of
      at most sqrt(2) 1e300, times a numerator of at most 2^21.  The bound
      falls with the step, so the certified steps are a suffix k0..24.  They
      need no count of zeros: 2^-k max|f/z - 1| <= 1/2 on the circle, so
      f/z = 1 + 2^-k (f/z - 1) has no zero in its disk.
    - The steps below k0 of all the block's candidates are evaluated in one
      batch, their zero counts too where the deviation passes, under the
      caller's ``np.errstate`` with each category it does not ignore set to
      ``"call"`` and a handler that only records.
      The batch's elementwise operations and row maxima give the bits of
      one-step calls, and it evaluates every step and count that one step at
      a time would, and more, so a batch that records nothing shows that the
      one-at-a-time loop raises, warns and logs nothing.  Then each
      candidate's first step that passes is taken.  Otherwise, or when a row
      is not finite, the steps below k0 are replayed one by one, candidate
      by candidate, under the caller's ``np.errstate``, so an exception they
      raise is raised where it was.  A step where f/z vanishes on the grid
      fails.
    - The certified steps of the candidates still undecided are probed at
      every 16th circle point, all steps at once.  A step whose probe
      deviation is at least (1 - ``PREMISE_MARGIN``)(1 + 1e-9) fails: its
      deviation on the whole circle is a maximum over a superset of those
      values, from the same formula on the same inputs, and the slack covers
      any rounding by another code path.  Then each candidate's first step
      left open is evaluated on the whole circle, all such candidates in one
      batch, whose row maxima are the steps' deviations bit for bit; it
      passes when that deviation is below the cut-off, and otherwise the
      candidate's next open step is tried.

    The counts read the conclusions of the premise-true attempts only, from
    g = 2**-k (f/z - 1) + 1 at each one's step k, in one ``classify`` call
    per region.  When records are kept, every candidate of the block is
    recorded at its step (step 24 for a vacuous one): its tail is halved that
    many times, and ``_records`` reads the block's f' - 1 and f/z - 1 scaled
    by the same power of two, which by the Horner argument are the halved
    candidate's own Horner sums once 1 is added (a drawn candidate's sums
    are finite: its tail is bounded).  So the records' deviations and
    verdicts are the decided ones (a certified step has no zero of f/z
    inside), and each record is ``verify_implication`` of its function.
    Neither conclusion batch raises: g - 1 = 2**-k (f/z - 1), and max|f/z - 1|
    on the grid stays below 2 for ``_sample_candidate``'s bounded tails (a
    Tier-1 test draws 2,000), far below the |w| of about 1e154 where
    ``arcsinh(w)`` or ``w * w - 1`` in the margins overflows.  The record's
    JSON only copies finite numbers.

    So only a kept vacuous candidate whose step-24 f/z vanishes on the grid
    moves an exception: ``_records`` raises ``ZeroDivisorOnGrid`` after the
    whole block is decided, so an error of a later candidate comes first.  No
    drawn candidate does: max|f/z - 1| < 2 keeps its step-24 f/z within 2^-23 of 1.
    """
    case = ImplicationCase(kind=kind, alpha=alpha, janowski=params)
    candidates = _Candidates(seed)
    return _run_config(case, threshold, _config_floor(case, candidates.z), candidates,
                       target_non_vacuous, max_attempts, keep_records)


def _run_config(case: ImplicationCase, threshold: float, floor: float,
                candidates: _Candidates, target_non_vacuous: int, max_attempts: int,
                keep_records: bool) -> tuple[dict, list[dict]]:
    """``run_config`` of case, given its deviation floor and the seed's candidates."""
    z = candidates.z
    records = []
    attempts = non_vacuous = counterexamples = counterexamples_sqrt = 0
    attempts_cap = _attempts_cap(floor, max_attempts)
    while attempts < attempts_cap and non_vacuous < target_non_vacuous:
        m = min(attempts_cap - attempts, target_non_vacuous - non_vacuous, _BLOCK_ROWS)
        c, dp, dg = candidates.block(case.kind, attempts, attempts + m)
        first = _shrink_block(case, z, c, dp, dg)
        passed = first <= SHRINK_STEPS
        sinh_ok, sqrt_ok = _conclusions(np.ldexp(1.0, -first[passed])[:, None] * dg[passed] + 1.0)
        attempts += m
        non_vacuous += int(np.count_nonzero(passed))
        counterexamples += int(np.count_nonzero(~sinh_ok))
        counterexamples_sqrt += int(np.count_nonzero(~sqrt_ok))
        if keep_records:
            scale = np.ldexp(1.0, -np.minimum(first, SHRINK_STEPS))[:, None]
            kept = c.copy()
            kept[:, 2:] *= scale
            kept.setflags(write=False)
            records += _records(case, kept, scale * dp, scale * dg)
    params = case.janowski
    summary = {"kind": int(case.kind), "A": params.a, "B": params.b,
               "alpha": _alpha_pair(case.alpha), "threshold": threshold, "attempts": attempts,
               "non_vacuous": non_vacuous, "counterexamples": counterexamples,
               "counterexamples_sqrt": counterexamples_sqrt, "floor_deviation": floor,
               "premise_feasible": floor < 1.0 - PREMISE_MARGIN}
    return summary, records


def implication_harness(seed: int = 0, alpha_factor: float = 1.05,
                        target_non_vacuous: int = 50, max_attempts: int = 400,
                        keep_records: bool = False) -> dict:
    """Run every kind on each ``DEFAULT_CONFIGS`` pair whose threshold is defined.

    Every scanned alpha (``alpha_factor`` times a threshold) is checked to be
    finite before any configuration runs.  The report's keys: ``summaries``
    (``run_config``'s, in config then kind order), ``undefined_thresholds``
    (the ``kind``, ``A`` and ``B`` of each pair skipped), ``counterexamples``
    (their sum over the summaries) and, only when ``keep_records``, ``cases``
    (every kept record, in the summaries' order).

    The configurations share one ``_Candidates``, whose first block fills each
    kind's table with as many rows as the largest first block of the kind's
    configurations; so a default job draws each candidate once and builds them
    all in one ``member_rows`` call.  That needs every configuration's deviation
    floor before the first runs.  For the default pairs a floor reports no
    floating-point error but an underflow, which the CLI ignores: the identity's
    operator values v = 1 + alpha z or 1 + alpha are finite for a finite alpha, B
    is 0 (A = 1) or -1/2 (A = 1/2), and so |v - 1|/|A - B v| is at most |v - 1|
    or, where |A - B v| >= 1e-300, 2 + 2e300.  So only an underflow can be
    reported before an earlier configuration's own errors.
    """
    summaries, records, undefined = [], [], []
    runs = []
    for a, b in DEFAULT_CONFIGS:
        params = JanowskiParams(a, b)
        for kind in OperatorKind:
            threshold = alpha_threshold(kind, params)
            if threshold is None:
                undefined.append({"kind": int(kind), "A": a, "B": b})
                continue
            alpha = alpha_factor * threshold
            if not math.isfinite(alpha):
                raise PreconditionNotMet(
                    f"alpha = {alpha_factor!r} x {threshold!r} is not finite")
            runs.append((ImplicationCase(kind=kind, alpha=alpha, janowski=params), threshold))
    candidates = _Candidates(seed)
    floors = [_config_floor(case, candidates.z) for case, _ in runs]
    for (case, _), floor in zip(runs, floors):
        first_block = min(_attempts_cap(floor, max_attempts), target_non_vacuous, _BLOCK_ROWS)
        candidates.reserve[case.kind] = max(candidates.reserve.get(case.kind, 0), first_block)
    for (case, threshold), floor in zip(runs, floors):
        summary, kept = _run_config(case, threshold, floor, candidates,
                                    target_non_vacuous, max_attempts, keep_records)
        summaries.append(summary)
        records.extend(kept)
    report = {"summaries": summaries, "undefined_thresholds": undefined,
              "counterexamples": sum(s["counterexamples"] for s in summaries)}
    if keep_records:
        report["cases"] = records
    return report


# -- the log-derivative identity ----------------------------------------------


def log_derivative_identity_residual(g: NormalizedFunction, order: int = 16) -> float:
    """Max coefficient residual of z l' = (z^2 g'/g)(2 + z g''/g' - z g'/g).

    The identity lets a condition on g be read as an implication theorem
    applied to the normalized function f = l = z^2 g'/g.  g is padded to
    order + 2, and the factor 2 + z g''/g' - z g'/g has order ``order``.
    """
    work = ts.coefficients(g.coeffs, order + 2)
    gp = ts.derivative(work)
    ratio = ts.div(gp, ts.shift_down(work))  # z g'/g
    size = order + 1
    factor = (ts.constant(2.0, order) + ts.div(ts.shift_up(ts.derivative(gp)), gp)[:size]
              - ratio[:size])
    l = ts.shift_up(ratio)
    lhs = ts.shift_up(ts.derivative(l))[:size]
    return float(np.max(np.abs(lhs - ts.mul(l, factor))))
