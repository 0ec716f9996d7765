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
the operator values on a polar grid, tests the conclusion geometrically,
and counts counterexamples (premise true, conclusion false); it also
reports when a configuration's premise is unsatisfiable at the scanned
alpha, which happens whenever the deviation floor at the grid origin
already reaches 1.

Each candidate failing the premise is halved toward the identity step by
step.  The harness evaluates a step on the full grid only where a probe on
the grid's innermost and outermost rings cannot prove that it fails; the
probe runs only on steps certified to raise no exception, so the sieve keeps
the bits, verdicts and exceptions of evaluating every step.  Conclusions are
computed only for premise-true attempts, and per-attempt records only when kept.

"Premise holds" means that the operator's image on the grid lies inside the
Janowski disk, not that the operator is subordinate to the Janowski map: a
subordination needs the value 1 at the origin, and for kinds 2-4 the coded
operator equals 1 + alpha there for every normalized f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from . import series as ts
from .caratheodory import sample_schwarz
from .core import (DEFAULT_GRID, NormalizedFunction, PolarGrid, PreconditionNotMet,
                   member_from_witness)
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
        if abs(complex(self.alpha)) == 0.0:
            raise ValueError("alpha must be nonzero")


# -- extrema of |sinh| and |cosh| on the unit circle -------------------------


@dataclass(frozen=True)
class TrigExtrema:
    sinh_min: float
    sinh_max: float
    cosh_min: float
    cosh_max: float
    sinh_argmin: float
    sinh_argmax: float
    cosh_argmin: float
    cosh_argmax: float


def circle_sinh_abs(theta):
    return np.abs(sinh_boundary(theta))


def circle_cosh_abs(theta):
    return np.abs(np.cosh(np.exp(1j * np.asarray(theta, dtype=float))))


def trig_extrema(theta_samples: int = 2048) -> TrigExtrema:
    """Extrema of |sinh e^(i theta)| and |cosh e^(i theta)| on [-pi, pi].

    Grid scan with golden-section refinement; the extrema equal sin 1,
    sinh 1, cos 1 and cosh 1, attained at angles 0, +-pi and +-pi/2.
    """
    if theta_samples < 1024:
        raise ValueError("theta_samples must be >= 1024")
    thetas = np.linspace(-math.pi, math.pi, theta_samples)
    step = 2.0 * math.pi / (theta_samples - 1)

    def refined(fn, sign):
        x, v = grid_golden_max(lambda t: sign * fn(t), thetas, step)
        return x, sign * v

    s_argmax, s_max = refined(circle_sinh_abs, 1.0)
    s_argmin, s_min = refined(circle_sinh_abs, -1.0)
    c_argmax, c_max = refined(circle_cosh_abs, 1.0)
    c_argmin, c_min = refined(circle_cosh_abs, -1.0)
    return TrigExtrema(sinh_min=s_min, sinh_max=s_max, cosh_min=c_min, cosh_max=c_max,
                       sinh_argmin=s_argmin, sinh_argmax=s_argmax,
                       cosh_argmin=c_argmin, cosh_argmax=c_argmax)


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
    v = np.asarray(values, dtype=np.complex128).ravel()
    den = params.a - params.b * v
    bad = np.abs(den) < 1e-300
    if np.any(bad):
        return math.inf
    return float(np.max(np.abs((v - 1.0) / den)))


def operator_values(f: NormalizedFunction, kind: OperatorKind | int,
                    alpha: complex, z: np.ndarray) -> np.ndarray:
    """Pointwise values of the kind's operator at the grid points z."""
    kind = OperatorKind(kind)
    fp = f.derivative_values(z)
    g = None if kind is OperatorKind.Z_FPRIME else f.over_z_values(z)
    return _operator(kind, alpha, z, fp, g)


def _operator(kind: OperatorKind, alpha: complex, z: np.ndarray, fp: np.ndarray,
              g: np.ndarray | None) -> np.ndarray:
    """The kind's operator from fp = f'(z) and g = f(z)/z (unused by kind 1)."""
    if kind is OperatorKind.Z_FPRIME:
        return 1.0 + alpha * z * fp
    if float(np.min(np.abs(g))) <= 1e-8:
        raise ZeroDivisorOnGrid("f(z)/z vanishes on the grid")
    return 1.0 + alpha * fp / g ** (int(kind) - 1)


# -- single-case verification -------------------------------------------------


@dataclass(frozen=True)
class ImplicationRecord:
    case: ImplicationCase
    deviation: float
    premise_holds: bool
    conclusion_sinh: bool
    conclusion_sqrt: bool
    vacuous: bool
    function: dict

    def to_json(self) -> dict:
        return {"kind": int(self.case.kind), "A": self.case.janowski.a,
                "B": self.case.janowski.b,
                "alpha": [complex(self.case.alpha).real, complex(self.case.alpha).imag],
                "deviation": self.deviation,
                "premise_holds": self.premise_holds,
                "conclusion_holds": self.conclusion_sinh,
                "conclusion_sinh": self.conclusion_sinh,
                "conclusion_sqrt": self.conclusion_sqrt,
                "vacuous": self.vacuous,
                "function": self.function}


def _conclusions(g: np.ndarray) -> tuple[bool, bool]:
    """Both conclusion verdicts from g = f(z)/z: g - 1 in sinh(D), g in sqrt(1 + D)."""
    return sinh_region().contains(g - 1.0), sqrt_disk_region().contains(g)


def _record(f: NormalizedFunction, case: ImplicationCase, deviation: float,
            conclusions: tuple[bool, bool]) -> ImplicationRecord:
    """Premise verdict from ``deviation``, with the conclusion verdicts of ``_conclusions``."""
    premise = deviation < 1.0 - PREMISE_MARGIN
    return ImplicationRecord(case=case, deviation=deviation, premise_holds=premise,
                             conclusion_sinh=conclusions[0], conclusion_sqrt=conclusions[1],
                             vacuous=not premise, function=f.to_json())


def verify_implication(f: NormalizedFunction, case: ImplicationCase,
                       grid: PolarGrid = DEFAULT_GRID) -> ImplicationRecord:
    """Test premise and conclusion of one implication case on the grid."""
    z = grid.points()
    deviation = janowski_deviation(operator_values(f, case.kind, case.alpha, z), case.janowski)
    return _record(f, case, deviation, _conclusions(f.over_z_values(z)))


# -- harness ------------------------------------------------------------------


@dataclass
class ConfigSummary:
    kind: int
    a: float
    b: float
    alpha: complex
    threshold: float
    attempts: int = 0
    non_vacuous: int = 0
    counterexamples: int = 0
    counterexamples_sqrt: int = 0
    floor_deviation: float = 0.0

    @property
    def premise_feasible(self) -> bool:
        """False when even the identity candidate's deviation floor reaches 1."""
        return self.floor_deviation < 1.0 - PREMISE_MARGIN

    def to_json(self) -> dict:
        return {"kind": self.kind, "A": self.a, "B": self.b,
                "alpha": [complex(self.alpha).real, complex(self.alpha).imag],
                "threshold": self.threshold,
                "attempts": self.attempts, "non_vacuous": self.non_vacuous,
                "counterexamples": self.counterexamples,
                "counterexamples_sqrt": self.counterexamples_sqrt,
                "floor_deviation": self.floor_deviation,
                "premise_feasible": self.premise_feasible}


@dataclass
class HarnessReport:
    summaries: list[ConfigSummary] = field(default_factory=list)
    records: list[ImplicationRecord] = field(default_factory=list)
    undefined: list[dict] = field(default_factory=list)

    @property
    def counterexample_count(self) -> int:
        return sum(s.counterexamples for s in self.summaries)

    def to_json(self, include_cases: bool = False) -> dict:
        out = {"summaries": [s.to_json() for s in self.summaries],
               "undefined_thresholds": self.undefined,
               "counterexamples": self.counterexample_count}
        if include_cases:
            out["cases"] = [r.to_json() for r in self.records]
        return out


DEFAULT_CONFIGS = ((1.0, 0.0), (0.5, -0.5), (0.8, 0.2))

#: Grid used by the harness; coarser than the membership default because
#: hundreds of candidate functions are scanned per configuration.
HARNESS_GRID = PolarGrid(theta_samples=64, radial_samples=16, max_radius=0.995)


#: Truncation order of the harness's candidate functions.
CANDIDATE_ORDER = 8


def _sample_candidate(rng: np.random.Generator) -> NormalizedFunction:
    if rng.random() < 0.5:
        degree = int(rng.integers(2, 7))
        tail = [(rng.normal(0.0, 0.15) + 1j * rng.normal(0.0, 0.15)) / n
                for n in range(2, degree + 1)]
        return NormalizedFunction.from_tail(tail, order=CANDIDATE_ORDER)
    return member_from_witness(sample_schwarz(rng, max_zeros=2), order=CANDIDATE_ORDER)


def _config_floor(case: ImplicationCase, z: np.ndarray) -> float:
    """Deviation of the identity candidate, a practical lower bound over f.

    For kinds 2..4 the operator tends to 1 + alpha at the origin for every
    normalized f, and for kind 1 the identity is deviation-minimal among
    normalized functions, so a floor at or above 1 certifies that the
    premise cannot hold at this alpha.
    """
    f = NormalizedFunction.identity(order=4)
    return janowski_deviation(operator_values(f, case.kind, case.alpha, z), case.janowski)


#: Indices of HARNESS_GRID's innermost and outermost rings, where the sieve probes a step.
_PROBE_POINTS = np.r_[:HARNESS_GRID.theta_samples, -HARNESS_GRID.theta_samples:0]

#: A probed step fails when some probe point's deviation reaches this: the premise
#: cut-off with a relative slack for round-off between the probe and the full step.
_PROBE_CUT = (1.0 - PREMISE_MARGIN) * (1.0 + 1e-9)

#: Largest certified bound on |v - 1| for operator values v of a shrink step.
_CERTIFIED_SPREAD = 2.0 ** 20


def _step_values(case: ImplicationCase, z: np.ndarray, dp: np.ndarray, dg: np.ndarray,
                 s) -> np.ndarray:
    """Operator values of the shrink step with scale s at z: f' and f/z are s dp + 1, s dg + 1."""
    fp = s * dp + 1.0
    g = None if case.kind is OperatorKind.Z_FPRIME else s * dg + 1.0
    return _operator(case.kind, case.alpha, z, fp, g)


def _step_deviation(case: ImplicationCase, z: np.ndarray, dp: np.ndarray, dg: np.ndarray,
                    k: int) -> float:
    """Janowski deviation of shrink step k on the grid z."""
    return janowski_deviation(_step_values(case, z, dp, dg, 2.0 ** -k), case.janowski)


def _certified_from(case: ImplicationCase, z: np.ndarray, dp: np.ndarray,
                    dg: np.ndarray) -> int:
    """First step of the certified suffix of the shrink ladder (SHRINK_STEPS + 1 if none).

    Step k (s = 2^-k) is certified when s max|dg| <= 1/2, so that |f/z| >= 1/2 on
    the grid, and when, with a relative slack of 1e-9, a bound on |v - 1| for
    the step's operator values v is at most 2^20: |alpha| max|z| (1 + s max|dp|)
    for kind 1, and |alpha| (1 + s max|dp|)/(1 - s max|dg|)^(kind - 1) for kinds
    2..4.  A NaN or infinite max or alpha fails both tests, so it certifies no step.
    """
    s = np.ldexp(1.0, -np.arange(SHRINK_STEPS + 1))
    with np.errstate(all="ignore"):
        m_p = np.max(np.abs(dp))
        m_g = np.max(np.abs(dg))
        alpha = abs(complex(case.alpha))
        if case.kind is OperatorKind.Z_FPRIME:
            bound = alpha * np.max(np.abs(z)) * (1.0 + s * m_p)
        else:
            bound = alpha * (1.0 + s * m_p) / (1.0 - s * m_g) ** (int(case.kind) - 1)
        certified = (s * m_g <= 0.5) & (bound * (1.0 + 1e-9) <= _CERTIFIED_SPREAD)
    uncertified = np.flatnonzero(~certified)
    return int(uncertified[-1]) + 1 if uncertified.size else 0


def _probe_deviations(case: ImplicationCase, z: np.ndarray, dp: np.ndarray, dg: np.ndarray,
                      k0: int) -> np.ndarray:
    """Per-point deviations of steps k0..SHRINK_STEPS at the ``_PROBE_POINTS`` of z.

    One row per step, each the step's own operator and deviation expressions at
    those points; inf where the denominator A - B v is below the 1e-300 at which
    ``janowski_deviation`` returns inf.  Run without floating-point errors raised.
    """
    s = np.ldexp(1.0, -np.arange(k0, SHRINK_STEPS + 1))[:, None]
    with np.errstate(all="ignore"):
        v = _step_values(case, z[_PROBE_POINTS], dp[_PROBE_POINTS], dg[_PROBE_POINTS], s)
        den = case.janowski.a - case.janowski.b * v
        return np.where(np.abs(den) < 1e-300, math.inf, np.abs((v - 1.0) / den))


def _shrink(case: ImplicationCase, z: np.ndarray, dp: np.ndarray,
            dg: np.ndarray) -> tuple[int, bool, float | None]:
    """First passing step, True and its deviation; else SHRINK_STEPS, False and step 24's
    deviation, None where the probe skipped step 24."""
    k0 = _certified_from(case, z, dp, dg)
    deviation = math.inf
    for k in range(SHRINK_STEPS + 1):
        if k == k0:
            fails = _probe_deviations(case, z, dp, dg, k0).max(axis=1) >= _PROBE_CUT
        if k >= k0 and fails[k - k0]:
            continue
        try:
            deviation = _step_deviation(case, z, dp, dg, k)
        except ZeroDivisorOnGrid:
            continue
        if deviation < 1.0 - PREMISE_MARGIN:
            return k, True, deviation
    return SHRINK_STEPS, False, None if k0 <= SHRINK_STEPS and fails[-1] else deviation


def run_config(kind: OperatorKind, params: JanowskiParams, alpha: complex,
               threshold: float, seed: int, target_non_vacuous: int = 50,
               max_attempts: int = 400,
               keep_records: bool = True) -> tuple[ConfigSummary, list[ImplicationRecord]]:
    """Sample candidates for one configuration until enough premise-true cases.

    Candidates failing the premise are rescaled toward the identity (tail
    coefficients halved) up to ``SHRINK_STEPS`` times; if the premise still
    fails the attempt is vacuous.  Its kept record holds the candidate of the
    last step (halved ``SHRINK_STEPS`` times) with its deviation and conclusions.

    An attempt computes only what its output reads: the conclusions for a
    premise-true attempt, from g = 2**-k (f/z - 1) + 1 at its step k, and
    the ``ImplicationRecord`` only when records are kept.  Skipping the
    conclusions of a vacuous attempt drops no exception: there g - 1 =
    2**-24 (f/z - 1), and max|f/z - 1| on the grid stays below 2 for
    ``_sample_candidate``'s bounded tails (over 10^4 seeded draws), far below
    the |w| of about 1e154 where ``arcsinh(w)`` or ``w * w - 1`` in the
    margins overflows.  The record's JSON only copies finite numbers.

    Each candidate's f'(z) - 1 and f/z - 1 are evaluated by one Horner pass
    over a_2, a_3, ...; step k scales them by 2**-k and adds 1.  That is
    bit for bit the Horner sum of the k-times halved candidate, because every
    Horner step commutes with a power-of-two scale while no value on the way
    is subnormal, and adding 1 makes the sign of a zero part the same.

    The steps are sieved: a step is evaluated on the full grid only where a
    cheap probe cannot prove that it fails, and the outcome, its bits and
    any exception are those of evaluating every step in order.

    - Certificate (``_certified_from``): on a certified step |f/z| >= 1/2, so
      ``ZeroDivisorOnGrid`` cannot be raised, and |v - 1| <= 2^20.  Then no
      operation of the step can overflow, divide by zero or be invalid: the
      deviation divides only by denominators of modulus >= 1e-300, and
      numpy's complex division (Smith's method) gives a reciprocal factor of
      at most sqrt(2) 1e300, times a numerator of at most 2^21.  The bound
      falls with the step, so the certified steps are a suffix k0..24, and
      skipping one drops no exception.
    - Steps below k0 are evaluated in order on the full grid, as without the
      sieve, so an exception they raise is raised where it was.
    - Probe (``_probe_deviations``): the certified steps are evaluated at
      once on the innermost and the outermost ring of the grid.  For kinds
      2..4 the deviation near the origin sits at the floor |alpha|/|A -
      B(1 + alpha)|, and for kind 1 |alpha z f'| peaks on the outer ring.
      The probe applies the step's own elementwise expressions to the same
      values, so its points carry the full step's bits, and a step whose
      probe deviation reaches the premise cut-off (with a slack of 1e-9)
      cannot pass.  It is skipped; the others are evaluated on the full
      grid, in order.
    - If no step passes, a kept record holds the deviation of step 24, the
      last step evaluated without the sieve; only the record path evaluates
      it on the full grid if the probe skipped it.
    """
    case = ImplicationCase(kind=kind, alpha=alpha, janowski=params)
    z = HARNESS_GRID.points()
    summary = ConfigSummary(kind=int(kind), a=params.a, b=params.b, alpha=alpha,
                            threshold=threshold, floor_deviation=_config_floor(case, z))
    records: list[ImplicationRecord] = []
    attempts_cap = max_attempts if summary.premise_feasible else min(max_attempts, 25)
    for i in range(attempts_cap):
        if summary.non_vacuous >= target_non_vacuous:
            break
        rng = np.random.default_rng((seed, int(kind), i))
        c = _sample_candidate(rng).series.coeffs
        dp = ts.evaluate_coeffs((c * np.arange(c.size))[2:], z) * z
        dg = ts.evaluate_coeffs(c[2:], z) * z
        k, passed, deviation = _shrink(case, z, dp, dg)
        summary.attempts += 1
        if not passed and not keep_records:
            continue
        conclusions = _conclusions(2.0 ** -k * dg + 1.0)
        if passed:
            summary.non_vacuous += 1
            summary.counterexamples += not conclusions[0]
            summary.counterexamples_sqrt += not conclusions[1]
        if keep_records:
            if deviation is None:
                deviation = _step_deviation(case, z, dp, dg, SHRINK_STEPS)
            coeffs = c.copy()
            coeffs[2:] *= 2.0 ** -k
            records.append(_record(NormalizedFunction(ts.TruncatedSeries(coeffs)), case,
                                   deviation, conclusions))
    return summary, records


def implication_harness(seed: int = 0, alpha_factor: float = 1.05,
                        target_non_vacuous: int = 50, max_attempts: int = 400,
                        keep_records: bool = False) -> HarnessReport:
    """Run every kind on each ``DEFAULT_CONFIGS`` pair whose threshold is defined.

    Every scanned alpha (``alpha_factor`` times a threshold) is checked to be
    finite before any configuration runs.
    """
    report = HarnessReport()
    runs = []
    for a, b in DEFAULT_CONFIGS:
        params = JanowskiParams(a, b)
        for kind in OperatorKind:
            threshold = alpha_threshold(kind, params)
            if threshold is None:
                report.undefined.append({"kind": int(kind), "A": a, "B": b})
                continue
            alpha = alpha_factor * threshold
            if not math.isfinite(alpha):
                raise PreconditionNotMet(
                    f"alpha = {alpha_factor!r} x {threshold!r} is not finite")
            runs.append((kind, params, alpha, threshold))
    for kind, params, alpha, threshold in runs:
        summary, records = run_config(kind, params, alpha, threshold,
                                      seed=seed, target_non_vacuous=target_non_vacuous,
                                      max_attempts=max_attempts, keep_records=keep_records)
        report.summaries.append(summary)
        report.records.extend(records)
    return report


# -- operator identities for derived conditions -------------------------------


def _log_derivative_parts(g: NormalizedFunction, order: int):
    """g/z and g' (constant 1), the factor 2 + z g''/g' - z g'/g and l = z^2 g'/g.

    g is padded to order + 2; the factor has order ``order``.
    """
    work = g.series.truncate(order + 2)
    h = ts.shift_down(work)
    gp = ts.derivative(work)
    factor = (ts.constant(2.0, order) + ts.div(ts.shift_up(ts.derivative(gp)), gp)
              - ts.div(gp, h))
    return h, gp, factor, ts.shift_up(ts.div(gp, h))


def log_derivative_transform(g: NormalizedFunction, order: int) -> ts.TruncatedSeries:
    """Series of l = z^2 g'(z)/g(z), the substitution reducing derived conditions."""
    return _log_derivative_parts(g, order)[3].truncate(min(order + 1, g.order))


def log_derivative_identity_residual(g: NormalizedFunction, order: int = 16) -> float:
    """Max coefficient residual of z l' = (z^2 g'/g)(2 + z g''/g' - z g'/g)."""
    _, _, factor, l = _log_derivative_parts(g, order)
    return _identity_residual(factor, l, order)


def _identity_residual(factor: ts.TruncatedSeries, l: ts.TruncatedSeries, order: int) -> float:
    lhs = ts.shift_up(ts.derivative(l)).truncate(order)
    rhs = ts.mul(l, factor)
    n = min(lhs.order, rhs.order)
    return float(np.max(np.abs(lhs.coeffs[: n + 1] - rhs.coeffs[: n + 1])))


def membership_operator_series(g: NormalizedFunction, kind: OperatorKind | int,
                               alpha: complex, order: int = 16) -> ts.TruncatedSeries:
    """Series of the derived operator whose Janowski subordination forces membership.

    The four kinds substitute l = z^2 g'/g into the base operators:

        kind 1:  1 + alpha (z^2 g'/g)(2 + z g''/g' - z g'/g)
        kind 2:  1 + alpha (2 + z g''/g' - z g'/g)
        kind 3:  1 + alpha (g/(z g'))(2 + z g''/g' - z g'/g)
        kind 4:  1 + alpha (g^2/(z^2 g'^2))(2 + z g''/g' - z g'/g)

    Division guards raise when g' or g/z lose their unit constant term.  The
    defining identity z l' = (z^2 g'/g)(2 + ...) is checked on every call.
    """
    kind = OperatorKind(kind)
    h, gp, factor, l = _log_derivative_parts(g, order)
    residual = _identity_residual(factor, l, order)
    if residual > 1e-10:
        raise ArithmeticError(f"operator identity residual {residual:.3e} exceeds 1e-10")
    if kind is OperatorKind.Z_FPRIME:
        core = ts.mul(l, factor)
    elif kind is OperatorKind.RATIO:
        core = factor
    elif kind is OperatorKind.RATIO_SQUARED:
        core = ts.mul(ts.div(h, gp).truncate(order), factor)
    else:
        hh = ts.mul(h, h)
        gpgp = ts.mul(gp, gp)
        core = ts.mul(ts.div(hh, gpgp).truncate(order), factor)
    return (ts.constant(1.0, core.order) + alpha * core).truncate(order)
