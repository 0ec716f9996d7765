import math

import numpy as np
import pytest

from gshlab import caratheodory as cara
from gshlab import subordination as sub
from gshlab.core import NormalizedFunction, PolarGrid, member_from_witness


# -- circle extrema of |sinh| and |cosh| ---------------------------------------


def test_trig_extrema_closed_forms():
    ext = sub.trig_extrema(2048)
    assert ext.sinh_min == pytest.approx(math.sin(1.0), abs=1e-8)
    assert ext.sinh_max == pytest.approx(math.sinh(1.0), abs=1e-8)
    assert ext.cosh_min == pytest.approx(math.cos(1.0), abs=1e-8)
    assert ext.cosh_max == pytest.approx(math.cosh(1.0), abs=1e-8)


def test_trig_extrema_argmins_at_axis_angles():
    ext = sub.trig_extrema(4096)
    half_pi = math.pi / 2
    assert min(abs(abs(ext.sinh_argmin) - half_pi), abs(ext.sinh_argmin)) < 1e-4
    assert min(abs(ext.sinh_argmax), abs(abs(ext.sinh_argmax) - math.pi)) < 1e-4
    assert abs(abs(ext.cosh_argmin) - half_pi) < 1e-4
    assert min(abs(ext.cosh_argmax), abs(abs(ext.cosh_argmax) - math.pi)) < 1e-4


def test_trig_profiles_even():
    t = np.linspace(0.0, math.pi, 257)
    assert np.max(np.abs(sub.circle_sinh_abs(t) - sub.circle_sinh_abs(-t))) < 1e-12
    assert np.max(np.abs(sub.circle_cosh_abs(t) - sub.circle_cosh_abs(-t))) < 1e-12


def test_trig_extrema_needs_enough_samples():
    with pytest.raises(ValueError):
        sub.trig_extrema(512)


# -- thresholds -----------------------------------------------------------------


def reference_threshold(kind: int, a: float, b: float):
    """Independent re-evaluation of the four printed threshold formulas."""
    base = 1 + math.cos(1) - math.sin(1)
    growth = 1 + math.sinh(1) + math.cosh(1)
    if kind == 1:
        den = base - abs(b) * growth
        num = a - b
    else:
        den = base - b * growth
        num = (a - b) * (1 + math.sinh(1)) ** (kind - 1)
    return None if den <= 0 else num / den


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
@pytest.mark.parametrize("ab", [(1.0, 0.0), (0.5, -0.5), (0.8, 0.2), (1.0, -1.0)])
def test_thresholds_match_reference(kind, ab):
    got = sub.alpha_threshold(kind, sub.JanowskiParams(*ab))
    want = reference_threshold(kind, *ab)
    if want is None:
        assert got is None
    else:
        assert got == pytest.approx(want, abs=1e-10)


def test_threshold_values_at_unit_interval():
    p = sub.JanowskiParams(1.0, 0.0)
    base = 1 + math.cos(1) - math.sin(1)
    assert sub.alpha_threshold(1, p) == pytest.approx(1 / base, abs=1e-12)
    assert sub.alpha_threshold(2, p) == pytest.approx((1 + math.sinh(1)) / base,
                                                      abs=1e-12)
    assert sub.alpha_threshold(1, sub.JanowskiParams(1.0, -1.0)) is None


def test_threshold_monotone_in_a():
    for kind in (1, 2, 3, 4):
        for b in (-0.5, 0.0):
            values = [sub.alpha_threshold(kind, sub.JanowskiParams(a, b))
                      for a in np.linspace(b + 0.05, 1.0, 12)]
            values = [v for v in values if v is not None]
            assert np.all(np.diff(values) > 0)


def test_threshold_b_form_flag():
    assert sub.threshold_b_form_differs(2, sub.JanowskiParams(0.5, -0.5))
    assert not sub.threshold_b_form_differs(1, sub.JanowskiParams(0.5, -0.5))
    assert not sub.threshold_b_form_differs(3, sub.JanowskiParams(1.0, 0.0))


def test_janowski_params_validated():
    with pytest.raises(ValueError):
        sub.JanowskiParams(0.5, 0.5)
    with pytest.raises(ValueError):
        sub.JanowskiParams(1.2, 0.0)


# -- deviation ---------------------------------------------------------------------


def test_deviation_at_target_center():
    assert sub.janowski_deviation([1.0], sub.JanowskiParams(1.0, 0.0)) == 0.0


def test_deviation_constant_offset():
    assert sub.janowski_deviation([1.3], sub.JanowskiParams(1.0, 0.0)) == \
        pytest.approx(0.3)


def test_deviation_on_circle():
    t = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    values = 1.0 + 0.5 * np.exp(1j * t)
    assert sub.janowski_deviation(values, sub.JanowskiParams(1.0, 0.0)) == \
        pytest.approx(0.5, abs=1e-12)


# -- operators ----------------------------------------------------------------------


def test_operator_values_kinds():
    f = NormalizedFunction.identity(8)
    z = np.array([0.5, 0.25j])
    assert np.allclose(sub.operator_values(f, 1, 2.0, z), 1.0 + 2.0 * z)
    for kind in (2, 3, 4):
        assert np.allclose(sub.operator_values(f, kind, 2.0, z), 3.0)


def test_operator_zero_divisor_guard():
    grid = PolarGrid(64, 16)
    r0 = float(np.abs(grid.points()[0]))  # smallest sampled radius, angle 0
    f = NormalizedFunction.from_tail([-1.0 / r0], order=8)  # f/z zero on the grid
    with pytest.raises(sub.ZeroDivisorOnGrid):
        sub.operator_values(f, 2, 1.0, grid.points())


def test_verify_implication_identity_case():
    case = sub.ImplicationCase(kind=sub.OperatorKind.RATIO, alpha=0.3,
                               janowski=sub.JanowskiParams(1.0, 0.0))
    record = sub.verify_implication(NormalizedFunction.identity(8), case)
    assert record.premise_holds
    assert record.deviation == pytest.approx(0.3, abs=1e-12)
    assert record.conclusion_sinh
    assert not record.vacuous


def test_verify_implication_vacuous_for_extremal(
        ):
    f0 = member_from_witness(cara.SchwarzSample.monomial(1), 16)
    params = sub.JanowskiParams(1.0, 0.0)
    alpha = sub.alpha_threshold(2, params)
    case = sub.ImplicationCase(kind=sub.OperatorKind.RATIO, alpha=alpha,
                               janowski=params)
    record = sub.verify_implication(f0, case, PolarGrid(64, 16))
    assert record.vacuous and not record.premise_holds
    assert record.deviation > 1.0


# -- harness ------------------------------------------------------------------------


def test_harness_feasibility_floors():
    report = sub.implication_harness(seed=3, target_non_vacuous=10, max_attempts=40)
    by_key = {(s.kind, s.a, s.b): s for s in report.summaries}
    # at alpha = 1.05 x threshold the (1, 0) premises cannot hold for any
    # normalized function: the operator already deviates past 1 at the origin
    for kind in (1, 2, 3, 4):
        s = by_key[(kind, 1.0, 0.0)]
        assert not s.premise_feasible
        assert s.non_vacuous == 0
    assert not by_key[(4, 0.5, -0.5)].premise_feasible
    assert by_key[(2, 0.5, -0.5)].premise_feasible
    assert by_key[(3, 0.5, -0.5)].premise_feasible
    # undefined thresholds are skipped, not run
    assert {(u["kind"], u["A"], u["B"]) for u in report.undefined} == {
        (1, 0.5, -0.5), (1, 0.8, 0.2), (2, 0.8, 0.2), (3, 0.8, 0.2), (4, 0.8, 0.2)}


def test_harness_collects_nonvacuous_cases_where_feasible():
    params = sub.JanowskiParams(0.5, -0.5)
    thr = sub.alpha_threshold(3, params)
    summary, records = sub.run_config(sub.OperatorKind.RATIO_SQUARED, params,
                                      1.05 * thr, thr, seed=5,
                                      target_non_vacuous=25, max_attempts=200)
    assert summary.non_vacuous >= 25
    assert summary.counterexamples == 0


def test_harness_detects_genuine_counterexample():
    # at kind 2, (A, B) = (0.5, -0.5), alpha = 1.05 x threshold, functions
    # exist whose operator stays inside the Janowski disk while f/z leaves
    # the sinh image; the harness must find and report them
    params = sub.JanowskiParams(0.5, -0.5)
    thr = sub.alpha_threshold(2, params)
    alpha = 1.05 * thr
    summary, records = sub.run_config(sub.OperatorKind.RATIO, params, alpha, thr,
                                      seed=3, target_non_vacuous=50,
                                      max_attempts=400, keep_records=True)
    bad = [r for r in records if r.premise_holds and not r.conclusion_sinh]
    assert summary.counterexamples == len(bad) > 0
    # verify one counterexample rigorously: the deviation is analytic on the
    # closed disk (no poles), so its supremum sits on |z| = 1, and the
    # conclusion failure is confirmed by the inverse-map oracle well inside
    f = NormalizedFunction.from_json(bad[0].function)
    t = np.linspace(0, 2 * np.pi, 20000, endpoint=False)
    boundary = np.exp(1j * t)
    dev = sub.janowski_deviation(sub.operator_values(f, 2, alpha, boundary), params)
    assert dev < 1.0 - sub.PREMISE_MARGIN
    inner = f.over_z_values(0.9 * boundary) - 1.0
    assert float(np.max(np.abs(np.arcsinh(inner)))) > 1.0 + 1e-3


def test_harness_reports_sqrt_target_verdicts():
    params = sub.JanowskiParams(0.5, -0.5)
    thr = sub.alpha_threshold(3, params)
    summary, records = sub.run_config(sub.OperatorKind.RATIO_SQUARED, params,
                                      1.05 * thr, thr, seed=7,
                                      target_non_vacuous=10, max_attempts=80,
                                      keep_records=True)
    assert any(r.premise_holds for r in records)
    for r in records:
        assert isinstance(r.conclusion_sqrt, bool)
        assert r.to_json()["conclusion_sqrt"] == r.conclusion_sqrt


def test_harness_summaries_in_config_then_kind_order():
    # DEFAULT_CONFIGS outer, OperatorKind inner; undefined thresholds skipped
    report = sub.implication_harness(seed=2, target_non_vacuous=2, max_attempts=4)
    assert [(s.kind, s.a, s.b) for s in report.summaries] == [
        (1, 1.0, 0.0), (2, 1.0, 0.0), (3, 1.0, 0.0), (4, 1.0, 0.0),
        (2, 0.5, -0.5), (3, 0.5, -0.5), (4, 0.5, -0.5)]


def test_harness_deterministic():
    a = sub.implication_harness(seed=11, target_non_vacuous=5, max_attempts=20)
    b = sub.implication_harness(seed=11, target_non_vacuous=5, max_attempts=20)
    assert a.to_json() == b.to_json()


# -- derived operator identities -------------------------------------------------


def test_operator_series_identity_kind_one():
    g = NormalizedFunction.identity(20)
    out = sub.membership_operator_series(g, 1, 0.5, order=16)
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.5)
    assert np.max(np.abs(out.coeffs[2:])) < 1e-14


def test_log_derivative_identity_residuals():
    rng = np.random.default_rng(61)
    candidates = [NormalizedFunction.identity(20),
                  member_from_witness(cara.SchwarzSample.monomial(1), 20),
                  NormalizedFunction.koebe(20)]
    candidates += [member_from_witness(cara.sample_schwarz(rng), 20)
                   for _ in range(5)]
    for g in candidates:
        assert sub.log_derivative_identity_residual(g, 16) <= 1e-10


def test_operator_series_matches_pointwise_operator():
    # the derived kind-k series is the base operator applied to l = z^2 g'/g
    rng = np.random.default_rng(67)
    g = member_from_witness(cara.sample_schwarz(rng), 24)
    order = 12
    z = 0.2 * np.exp(2j * np.pi * np.arange(16) / 16)
    l_series = sub.log_derivative_transform(g, 20)
    l_fn = NormalizedFunction(l_series.truncate(18))
    for kind in (1, 2, 3, 4):
        derived = sub.membership_operator_series(g, kind, 0.7, order=order)
        direct = sub.operator_values(l_fn, kind, 0.7, z)
        series_vals = np.polyval(derived.coeffs[::-1], z)
        assert np.max(np.abs(series_vals - direct)) < 1e-7
