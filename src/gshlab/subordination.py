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
from .core import DEFAULT_GRID, NormalizedFunction, PolarGrid, member_from_witness
from .refine import golden_max
from .regions import sinh_region, sqrt_disk_region

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

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in
                ("sinh_min", "sinh_max", "cosh_min", "cosh_max",
                 "sinh_argmin", "sinh_argmax", "cosh_argmin", "cosh_argmax")}


def circle_sinh_abs(theta):
    return np.abs(np.sinh(np.exp(1j * np.asarray(theta, dtype=float))))


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
        vals = sign * fn(thetas)
        i = int(np.argmax(vals))
        x, v = golden_max(lambda t: float(sign * fn(np.array([t]))[0]),
                          thetas[i] - step, thetas[i] + step)
        if vals[i] > v:
            x, v = float(thetas[i]), float(vals[i])
        return float(x), float(sign * v)

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
    if kind is OperatorKind.Z_FPRIME:
        return 1.0 + alpha * z * fp
    g = f.over_z_values(z)
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

    @property
    def counterexample(self) -> bool:
        return self.premise_holds and not self.conclusion_sinh

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


def _deviation(f: NormalizedFunction, case: ImplicationCase, z: np.ndarray) -> float:
    return janowski_deviation(operator_values(f, case.kind, case.alpha, z), case.janowski)


def _record(f: NormalizedFunction, case: ImplicationCase, z: np.ndarray,
            deviation: float) -> ImplicationRecord:
    """Premise verdict from ``deviation`` and both conclusion verdicts of f on z."""
    premise = deviation < 1.0 - PREMISE_MARGIN
    g = f.over_z_values(z)
    return ImplicationRecord(case=case, deviation=deviation, premise_holds=premise,
                             conclusion_sinh=sinh_region().contains(g - 1.0),
                             conclusion_sqrt=sqrt_disk_region().contains(g),
                             vacuous=not premise, function=f.to_json())


def verify_implication(f: NormalizedFunction, case: ImplicationCase,
                       grid: PolarGrid = DEFAULT_GRID) -> ImplicationRecord:
    """Test premise and conclusion of one implication case on the grid."""
    z = grid.points()
    return _record(f, case, z, _deviation(f, case, z))


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


def _scale_tail(f: NormalizedFunction, factor: float) -> NormalizedFunction:
    coeffs = f.series.coeffs.copy()
    coeffs[2:] *= factor
    return NormalizedFunction(ts.TruncatedSeries(coeffs))


def _sample_candidate(rng: np.random.Generator, order: int = 8) -> NormalizedFunction:
    if rng.random() < 0.5:
        degree = int(rng.integers(2, 7))
        tail = [(rng.normal(0.0, 0.15) + 1j * rng.normal(0.0, 0.15)) / n
                for n in range(2, degree + 1)]
        return NormalizedFunction.from_tail(tail, order=order)
    return member_from_witness(sample_schwarz(rng, max_zeros=2), order=order)


def _config_floor(case: ImplicationCase, z: np.ndarray) -> float:
    """Deviation of the identity candidate, a practical lower bound over f.

    For kinds 2..4 the operator tends to 1 + alpha at the origin for every
    normalized f, and for kind 1 the identity is deviation-minimal among
    normalized functions, so a floor at or above 1 certifies that the
    premise cannot hold at this alpha.
    """
    return _deviation(NormalizedFunction.identity(order=4), case, z)


def run_config(kind: OperatorKind, params: JanowskiParams, alpha: complex,
               threshold: float, seed: int, target_non_vacuous: int = 50,
               max_attempts: int = 400,
               keep_records: bool = True) -> tuple[ConfigSummary, list[ImplicationRecord]]:
    """Sample candidates for one configuration until enough premise-true cases.

    Candidates failing the premise are rescaled toward the identity (tail
    coefficients halved) up to ``SHRINK_STEPS`` times; if the premise still
    fails the attempt is recorded as vacuous, with the last rescaled candidate
    and the last deviation computed.
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
        f = _sample_candidate(rng)
        deviation = math.inf
        for _ in range(SHRINK_STEPS + 1):
            try:
                deviation = _deviation(f, case, z)
            except ZeroDivisorOnGrid:
                f = _scale_tail(f, 0.5)
                continue
            if deviation < 1.0 - PREMISE_MARGIN:
                break
            f = _scale_tail(f, 0.5)
        record = _record(f, case, z, deviation)
        summary.attempts += 1
        if record.premise_holds:
            summary.non_vacuous += 1
            if not record.conclusion_sinh:
                summary.counterexamples += 1
            if not record.conclusion_sqrt:
                summary.counterexamples_sqrt += 1
        if keep_records:
            records.append(record)
    return summary, records


def implication_harness(seed: int = 0, alpha_factor: float = 1.05,
                        target_non_vacuous: int = 50, max_attempts: int = 400,
                        keep_records: bool = False) -> HarnessReport:
    """Run every kind on each ``DEFAULT_CONFIGS`` pair whose threshold is defined."""
    report = HarnessReport()
    for a, b in DEFAULT_CONFIGS:
        params = JanowskiParams(a, b)
        for kind in OperatorKind:
            threshold = alpha_threshold(kind, params)
            if threshold is None:
                report.undefined.append({"kind": int(kind), "A": a, "B": b})
                continue
            summary, records = run_config(kind, params, alpha_factor * threshold, threshold,
                                          seed=seed, target_non_vacuous=target_non_vacuous,
                                          max_attempts=max_attempts,
                                          keep_records=keep_records)
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
    residual = log_derivative_identity_residual(g, order)
    if residual > 1e-10:
        raise ArithmeticError(f"operator identity residual {residual:.3e} exceeds 1e-10")
    h, gp, factor, l = _log_derivative_parts(g, order)
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
