"""Numerical laboratory for the class of normalized analytic functions whose
log-derivative deviation z f'/f - 1 is subordinate to sinh z.

The package builds members from Schwarz-map witnesses, tests membership
three independent ways, scans the sharp coefficient bounds empirically, and
verifies the differential-subordination implications and their thresholds.
"""

from .series import (
    DEFAULT_ORDER,
    NearZeroConstantTerm,
    NonUnitConstant,
    NonzeroInnerConstant,
    SeriesError,
    TruncatedSeries,
    compose,
    derivative,
    div,
    evaluate,
    integrate_ratio,
    mul,
    transcend,
)
from .caratheodory import (
    CoeffWitnesses,
    HerglotzSample,
    SchwarzSample,
    SuiteReport,
    caratheodory_coeffs,
    coeff_witnesses,
    cubic_combination_bound,
    fekete_szego_bound,
    fekete_szego_bound_complex,
    from_schwarz,
    inequality_suite,
    quartic_combination_condition,
    sample_herglotz,
    sample_schwarz,
)
from .core import (
    ComboSpec,
    GrowthRecord,
    HankelReport,
    MembershipReport,
    NormalizedFunction,
    PolarGrid,
    PreconditionNotMet,
    coeffs_from_caratheodory,
    convex_combination_check,
    covering_radius,
    extremal_fn,
    geometric_membership,
    growth_distortion,
    hankel_report,
    kernel_beta,
    kernel_nonvanishing,
    member_from_witness,
    membership_report,
    ratio_series,
    shi_quadrature,
    shi_series,
    sufficient_membership,
)
from .bounds import (
    BoundEstimate,
    EnvelopeProfile,
    ScanConfig,
    claimed_bound,
    default_scan_suite,
    evaluate_witness,
    functional_value,
    h22_envelope,
    h22_envelope_max,
    h22_envelope_profile,
    hankel_scan,
    scan_coefficient_bound,
)
from .subordination import (
    ImplicationCase,
    ImplicationRecord,
    JanowskiParams,
    OperatorKind,
    TrigExtrema,
    ZeroDivisorOnGrid,
    alpha_threshold,
    implication_harness,
    janowski_deviation,
    log_derivative_identity_residual,
    membership_operator_series,
    trig_extrema,
    verify_implication,
)
from .regions import CurveRegion, sinh_boundary, sinh_region, sqrt_disk_region

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
