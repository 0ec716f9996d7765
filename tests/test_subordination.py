import cmath
import json
import math

import numpy as np
import pytest
from conftest import harness_candidate_row
from hypothesis import example, given, settings, strategies as st

from gshlab import caratheodory as cara
from gshlab import subordination as sub
from gshlab.core import NormalizedFunction, PolarGrid, member_from_witness, winding_number
from gshlab.regions import sinh_region, sqrt_disk_region
from gshlab.series import coefficients


# -- circle extrema of |sinh| and |cosh| ---------------------------------------


def test_trig_extrema_closed_forms():
    ext = sub.trig_extrema(2048)
    assert ext["sinh_min"] == pytest.approx(math.sin(1.0), abs=1e-8)
    assert ext["sinh_max"] == pytest.approx(math.sinh(1.0), abs=1e-8)
    assert ext["cosh_min"] == pytest.approx(math.cos(1.0), abs=1e-8)
    assert ext["cosh_max"] == pytest.approx(math.cosh(1.0), abs=1e-8)


def test_trig_extrema_argmins_at_axis_angles():
    ext = sub.trig_extrema(4096)
    half_pi = math.pi / 2
    assert min(abs(abs(ext["sinh_argmin"]) - half_pi), abs(ext["sinh_argmin"])) < 1e-4
    assert min(abs(ext["sinh_argmax"]), abs(abs(ext["sinh_argmax"]) - math.pi)) < 1e-4
    assert abs(abs(ext["cosh_argmin"]) - half_pi) < 1e-4
    assert min(abs(ext["cosh_argmax"]), abs(abs(ext["cosh_argmax"]) - math.pi)) < 1e-4


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


@pytest.mark.parametrize("alpha", [math.nan, complex(math.nan, 0.0), math.inf,
                                   complex(0.0, -math.inf), 0.0])
def test_implication_case_rejects_an_alpha_that_is_not_finite_and_nonzero(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and nonzero"):
        sub.ImplicationCase(kind=sub.OperatorKind.RATIO, alpha=alpha,
                            janowski=sub.JanowskiParams(1.0, 0.0))


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


def test_deviation_is_infinite_where_the_denominator_vanishes():
    # A - B v = 0.5 - 0.5 = 0 exactly at v = -1; the guard returns inf before dividing
    params = sub.JanowskiParams(0.5, -0.5)
    with np.errstate(all="raise"):
        assert sub.janowski_deviation([0.5, -1.0], params) == math.inf
        assert sub.janowski_deviation([0.5], params) == pytest.approx(0.5 / 0.75)


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


def oracle_record(f, case, grid=sub.HARNESS_GRID):
    """``verify_implication``'s record of f on a polar grid, from the scalar route:
    ``operator_values``, ``janowski_deviation``, ``over_z_values``, a winding count of
    f/z along the outer ring and the two regions' ``contains``."""
    z = grid.points()
    deviation = sub.janowski_deviation(sub.operator_values(f, case.kind, case.alpha, z),
                                       case.janowski)
    g = f.over_z_values(z)
    premise = bool(deviation < 1.0 - sub.PREMISE_MARGIN
                   and (case.kind == 1 or winding_number(g[-grid.theta_samples:]) == 0))
    sinh_ok = bool(sinh_region().contains(g - 1.0))
    alpha = complex(case.alpha)
    return {"kind": int(case.kind), "A": case.janowski.a, "B": case.janowski.b,
            "alpha": [alpha.real, alpha.imag], "deviation": deviation, "premise_holds": premise,
            "conclusion_holds": sinh_ok, "conclusion_sinh": sinh_ok,
            "conclusion_sqrt": bool(sqrt_disk_region().contains(g)), "vacuous": not premise,
            "function": f.to_json()}


def test_verify_implication_identity_case():
    case = sub.ImplicationCase(kind=sub.OperatorKind.RATIO, alpha=0.3,
                               janowski=sub.JanowskiParams(1.0, 0.0))
    record = sub.verify_implication(NormalizedFunction.identity(8), case)
    assert record["premise_holds"]
    assert record["deviation"] == pytest.approx(0.3, abs=1e-12)
    assert record["conclusion_sinh"]
    assert not record["vacuous"]


def test_verify_implication_vacuous_for_extremal(
        ):
    f0 = member_from_witness(cara.SchwarzSample.monomial(1), 16)
    params = sub.JanowskiParams(1.0, 0.0)
    alpha = sub.alpha_threshold(2, params)
    case = sub.ImplicationCase(kind=sub.OperatorKind.RATIO, alpha=alpha,
                               janowski=params)
    for record in (sub.verify_implication(f0, case), oracle_record(f0, case, PolarGrid(64, 16))):
        assert record["vacuous"] and not record["premise_holds"]
        assert record["deviation"] > 1.0


def large_tail(rng):
    """A candidate with a_2 near 40, so that max|f/z - 1| is about 40 on the circle."""
    a2, a3 = 40.0 + rng.normal(0.0, 1.0), rng.normal(0.0, 2.0) + 1j * rng.normal(0.0, 2.0)
    return NormalizedFunction.from_tail([a2, a3], order=sub.CANDIDATE_ORDER)


def zero_inside(coeffs) -> bool:
    """f/z = 1 + a_2 z + a_3 z^2 + ... has a zero in |z| < 0.995, by ``np.roots``.

    The highest-power coefficients of modulus below 1e-300 are dropped first:
    ``np.roots`` divides by the top coefficient, and a subnormal one gives its
    companion matrix infinite entries.  Such a term cannot move a zero across
    |z| = 0.995 for the inputs here, whose planted zeros lie at |z0| <= 0.9 and
    |1/b| >= 2.
    """
    c = coeffs[:0:-1]
    c = c[np.argmax(np.abs(c) >= 1e-300):]
    return bool(np.any(np.abs(np.roots(c)) < sub.HARNESS_GRID.max_radius))


def test_verify_implication_fails_the_premise_where_f_over_z_has_a_zero_inside():
    # kind 2 at (0.5, -0.5), alpha = 0.5 x threshold: the operator values of this
    # f on the circle and on a 64 x 16 polar grid lie inside the Janowski disk,
    # but f/z has a zero at about -0.025, where the operator has a pole
    params = sub.JanowskiParams(0.5, -0.5)
    case = sub.ImplicationCase(kind=sub.OperatorKind.RATIO,
                               alpha=0.5 * sub.alpha_threshold(2, params), janowski=params)
    f = large_tail(np.random.default_rng((0, 2, 0)))
    assert zero_inside(f.coeffs)
    for record in (sub.verify_implication(f, case), oracle_record(f, case, PolarGrid(64, 16))):
        assert record["deviation"] < 1.0 - sub.PREMISE_MARGIN
        assert not record["premise_holds"] and record["vacuous"]
        assert not record["conclusion_sinh"]


# -- harness ------------------------------------------------------------------------


def test_harness_feasibility_floors():
    report = sub.implication_harness(seed=3, target_non_vacuous=10, max_attempts=40)
    by_key = {(s["kind"], s["A"], s["B"]): s for s in report["summaries"]}
    # at alpha = 1.05 x threshold the (1, 0) premises cannot hold for any
    # normalized function: the operator already deviates past 1 at the origin
    for kind in (1, 2, 3, 4):
        s = by_key[(kind, 1.0, 0.0)]
        assert not s["premise_feasible"]
        assert s["non_vacuous"] == 0
    assert not by_key[(4, 0.5, -0.5)]["premise_feasible"]
    assert by_key[(2, 0.5, -0.5)]["premise_feasible"]
    assert by_key[(3, 0.5, -0.5)]["premise_feasible"]
    # undefined thresholds are skipped, not run
    assert {(u["kind"], u["A"], u["B"]) for u in report["undefined_thresholds"]} == {
        (1, 0.5, -0.5), (1, 0.8, 0.2), (2, 0.8, 0.2), (3, 0.8, 0.2), (4, 0.8, 0.2)}


def test_harness_collects_nonvacuous_cases_where_feasible():
    params = sub.JanowskiParams(0.5, -0.5)
    thr = sub.alpha_threshold(3, params)
    summary, records = sub.run_config(sub.OperatorKind.RATIO_SQUARED, params,
                                      1.05 * thr, thr, seed=5,
                                      target_non_vacuous=25, max_attempts=200)
    assert summary["non_vacuous"] >= 25
    assert summary["counterexamples"] == 0


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
    bad = [r for r in records if r["premise_holds"] and not r["conclusion_sinh"]]
    assert summary["counterexamples"] == len(bad) > 0
    # verify one counterexample rigorously: the deviation is analytic on the
    # closed disk (no poles), so its supremum sits on |z| = 1, and the
    # conclusion failure is confirmed by the inverse-map oracle well inside
    f = NormalizedFunction.from_json(bad[0]["function"])
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
    assert any(r["premise_holds"] for r in records)
    for r in records:
        assert isinstance(r["conclusion_sqrt"], bool)
        assert r["conclusion_holds"] is r["conclusion_sinh"]
        assert json.loads(json.dumps(r)) == r


def test_harness_summaries_in_config_then_kind_order():
    # DEFAULT_CONFIGS outer, OperatorKind inner; undefined thresholds skipped
    report = sub.implication_harness(seed=2, target_non_vacuous=2, max_attempts=4)
    assert [(s["kind"], s["A"], s["B"]) for s in report["summaries"]] == [
        (1, 1.0, 0.0), (2, 1.0, 0.0), (3, 1.0, 0.0), (4, 1.0, 0.0),
        (2, 0.5, -0.5), (3, 0.5, -0.5), (4, 0.5, -0.5)]


def test_harness_deterministic():
    a = sub.implication_harness(seed=11, target_non_vacuous=5, max_attempts=20)
    b = sub.implication_harness(seed=11, target_non_vacuous=5, max_attempts=20)
    assert a == b


# -- shrink ladder ------------------------------------------------------------------


def halving_loop(kind, params, alpha, threshold, seed, target_non_vacuous, max_attempts):
    """Reference harness: ``operator_values`` on each candidate, its tail halved in place
    before each step after the first; a vacuous record keeps the last step's candidate.

    For kinds 2-4 a step passes only when ``np.roots`` finds no zero of f/z inside
    the circle, where the operator has a pole."""
    case = sub.ImplicationCase(kind=kind, alpha=alpha, janowski=params)
    z = sub.HARNESS_GRID.points()
    floor = sub._config_floor(case, z)
    feasible = floor < 1.0 - sub.PREMISE_MARGIN
    summary = {"kind": int(kind), "A": params.a, "B": params.b, "alpha": [alpha, 0.0],
               "threshold": threshold, "attempts": 0, "non_vacuous": 0, "counterexamples": 0,
               "counterexamples_sqrt": 0, "floor_deviation": floor, "premise_feasible": feasible}
    records = []
    cap = max_attempts if feasible else min(max_attempts, 25)
    for i in range(cap):
        if summary["non_vacuous"] >= target_non_vacuous:
            break
        rng = np.random.default_rng((seed, int(kind), i))
        coeffs = harness_candidate_row(rng)
        deviation, premise = math.inf, False
        for step in range(sub.SHRINK_STEPS + 1):
            if step:
                coeffs[2:] *= 0.5
            f = NormalizedFunction(coefficients(coeffs.copy()))
            try:
                deviation = sub.janowski_deviation(sub.operator_values(f, kind, alpha, z),
                                                   params)
            except sub.ZeroDivisorOnGrid:
                pass
            else:
                premise = (deviation < 1.0 - sub.PREMISE_MARGIN
                           and not (kind != 1 and zero_inside(coeffs)))
                if premise:
                    break
        f = NormalizedFunction(coefficients(coeffs))
        g = f.over_z_values(z)
        sinh_ok = sinh_region().contains(g - 1.0)
        record = {"kind": int(kind), "A": params.a, "B": params.b, "alpha": [alpha, 0.0],
                  "deviation": deviation, "premise_holds": premise, "conclusion_holds": sinh_ok,
                  "conclusion_sinh": sinh_ok, "conclusion_sqrt": sqrt_disk_region().contains(g),
                  "vacuous": not premise, "function": f.to_json()}
        summary["attempts"] += 1
        if premise:
            summary["non_vacuous"] += 1
            summary["counterexamples"] += not record["conclusion_sinh"]
            summary["counterexamples_sqrt"] += not record["conclusion_sqrt"]
        records.append(record)
    return summary, records


def summary_path_matches(args, expected_summary):
    """``run_config`` without kept records: the oracle's summary and no records."""
    return sub.run_config(*args, keep_records=False) == (expected_summary, [])


def tail_values(c, z):
    """f' - 1 and f/z - 1 of the coefficients c on z, by ``np.polyval``."""
    return (np.polyval((c * np.arange(c.size))[:1:-1], z) * z, np.polyval(c[:1:-1], z) * z)


def step_deviation(case, dp, dg, k):
    """Deviation of shrink step k of one candidate on the harness circle, and whether
    its f/z vanishes there; dp and dg are its f' - 1 and f/z - 1 on the circle."""
    deviation, vanishes = sub._step_rows(case, sub.HARNESS_GRID.points(), dp[None], dg[None],
                                         2.0 ** -k)
    return deviation[0], vanishes[0]


DEFINED_CONFIGS = [(kind, sub.JanowskiParams(a, b)) for a, b in sub.DEFAULT_CONFIGS
                   for kind in sub.OperatorKind
                   if sub.alpha_threshold(kind, sub.JanowskiParams(a, b)) is not None]


CONFIG_IDS = [f"{int(k)}-{p.a}-{p.b}" for k, p in DEFINED_CONFIGS]


@pytest.mark.parametrize("budget", [(1, 1), (3, 7), (50, 25), (50, 400)],
                         ids=lambda b: f"{b[0]}-of-{b[1]}")
@pytest.mark.parametrize("factor, seed", [(1.05, 0), (0.5, 1), (3.0, 2), (1e7, 3)])
@pytest.mark.parametrize("kind, params", DEFINED_CONFIGS, ids=CONFIG_IDS)
def test_shrink_ladder_matches_halving_loop(kind, params, factor, seed, budget, monkeypatch):
    # same summary, deviations, verdicts and functions, compared exactly; the
    # default budget holds enough premise-true cases to catch a last-bit change.
    # At factor 1e7, |alpha| > 2^20 and no shrink step is certified.  Blocks of 1
    # and 7 candidates put block edges everywhere: a block must end on the
    # attempt or premise-true budget exactly where the one-at-a-time loop stops
    thr = sub.alpha_threshold(kind, params)
    args = (kind, params, factor * thr, thr, seed, *budget)
    expected = halving_loop(*args)
    for rows in (sub._BLOCK_ROWS, 1, 7):
        monkeypatch.setattr(sub, "_BLOCK_ROWS", rows)
        assert sub.run_config(*args, keep_records=True) == expected
        assert summary_path_matches(args, expected[0])


def near_cut_alpha(kind, params):
    """An alpha whose deviation floor lies 1e-4 below the premise cut-off."""
    t = 1.0 - sub.PREMISE_MARGIN - 1e-4
    if kind is sub.OperatorKind.Z_FPRIME:  # the identity's floor |alpha z|/A peaks at |z| = 0.995
        return t * params.a / 0.995
    return t * (params.a - params.b) / (1.0 + t * params.b)  # |alpha|/|A - B(1 + alpha)| = t


@pytest.mark.parametrize("kind, params", DEFINED_CONFIGS, ids=CONFIG_IDS)
def test_shrink_ladder_near_the_premise_cut_matches_halving_loop(kind, params):
    # candidates pass only when nearly halved to the identity, with a deviation
    # just below the cut-off, so a cut-off off by round-off would skip the passing step
    alpha = near_cut_alpha(kind, params)
    case = sub.ImplicationCase(kind=kind, alpha=alpha, janowski=params)
    floor = sub._config_floor(case, sub.HARNESS_GRID.points())
    assert 1.0 - sub.PREMISE_MARGIN - 2e-4 < floor < 1.0 - sub.PREMISE_MARGIN
    args = (kind, params, alpha, 1.0, 4, 20, 60)
    summary, records = sub.run_config(*args, keep_records=True)
    assert (summary, records) == halving_loop(*args)
    assert summary_path_matches(args, summary)
    assert summary["non_vacuous"] > 0


@pytest.mark.parametrize("kind, params", DEFINED_CONFIGS, ids=CONFIG_IDS)
def test_shrink_ladder_with_certified_suffix_mid_ladder_matches_halving_loop(
        kind, params, monkeypatch):
    # a_2 near 40 makes max|f/z - 1| about 40 on the grid, so the certificate
    # (2^-k max|f/z - 1| <= 1/2) first holds at step 7.  The early steps' f/z
    # has a zero inside the circle, so those steps fail: their operator has a
    # pole there, even where its values on the circle lie in the Janowski disk
    monkeypatch.setattr(sub, "_sample_candidate", large_tail)
    z = sub.HARNESS_GRID.points()
    thr = sub.alpha_threshold(kind, params)
    for factor, seed in ((0.5, 0), (1.05, 1)):
        case = sub.ImplicationCase(kind=kind, alpha=factor * thr, janowski=params)
        c = large_tail(np.random.default_rng((seed, int(kind), 0))).coeffs
        dp, dg = tail_values(c, z)
        assert 6 <= sub._certified_from(case, z, dp[None], dg[None])[0] <= 9
        args = (kind, params, factor * thr, thr, seed, 10, 30)
        expected = halving_loop(*args)
        assert sub.run_config(*args, keep_records=True) == expected
        assert summary_path_matches(args, expected[0])
        assert not any(r["premise_holds"] and zero_inside(NormalizedFunction.from_json(
            r["function"]).coeffs) for r in expected[1])


@pytest.mark.parametrize("factor", [1e305, 1e307])
@pytest.mark.parametrize("kind, params", DEFINED_CONFIGS, ids=CONFIG_IDS)
def test_shrink_ladder_under_raising_errstate_matches_halving_loop(kind, params, factor):
    # as under the CLI: both return the same result or raise the same error.  At
    # 1e307 some steps overflow; at seed 1 the first kind-4 (1, 0) candidate has
    # max|f/z - 1| < 1/2, so a certificate ignoring |alpha| would skip them
    thr = sub.alpha_threshold(kind, params)

    def outcome(run):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                return run()
            except FloatingPointError as exc:
                return str(exc)

    for seed in (0, 1):
        args = (kind, params, factor * thr, thr, seed, 2, 3)
        expected = outcome(lambda: halving_loop(*args))
        summary = expected if isinstance(expected, str) else expected[0]
        for rows in (256, 1, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sub, "_BLOCK_ROWS", rows)
                assert outcome(lambda: sub.run_config(*args, keep_records=True)) == expected
                assert outcome(lambda: sub.run_config(*args, keep_records=False)[0]) == summary


def test_an_error_the_uncertified_batch_records_is_raised_by_the_one_at_a_time_replay(
        monkeypatch):
    # at 1e307 the kind-2 (1, 0) batch records an overflow; the replay raises it where
    # the halving loop does, and blocks whose batch records nothing are decided by it
    outcomes = []
    batch = sub._uncertified_batch

    def spy(*args):
        outcomes.append(batch(*args))
        return outcomes[-1]

    monkeypatch.setattr(sub, "_uncertified_batch", spy)
    params = sub.JanowskiParams(1.0, 0.0)
    thr = sub.alpha_threshold(2, params)
    args = (sub.OperatorKind.RATIO, params, 1e307 * thr, thr, 0, 50, 25)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(FloatingPointError) as expected:
            halving_loop(*args)
        with pytest.raises(FloatingPointError) as got:
            sub.run_config(*args, keep_records=False)
    assert str(got.value) == str(expected.value) == "overflow encountered in multiply"
    assert outcomes == [False]
    outcomes.clear()
    sub.implication_harness(seed=0)
    assert outcomes == [True] * 7


def test_a_default_job_draws_each_candidate_once_and_decides_in_few_batches(monkeypatch):
    # machine-independent work counts of one default job at seed 1, under the CLI's
    # errstate: 150 draws (the kinds' largest first blocks 25, 50, 50 and 25; the seven
    # configurations' blocks sum to 225), one member_rows call for all of them, and 21
    # _step_rows calls (the uncertified batch, the probe and the full-circle rounds)
    calls = dict.fromkeys(("_sample_candidate", "member_rows", "_step_rows"), 0)
    for name in calls:
        def counted(*args, _name=name, _f=getattr(sub, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(sub, name, counted)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        report = sub.implication_harness(seed=1)
    assert sum(s["attempts"] for s in report["summaries"]) == 225
    assert calls == {"_sample_candidate": 150, "member_rows": 1, "_step_rows": 21}


@pytest.mark.parametrize("factor, seed", [(1.05, 3), (0.5, 4), (2.0, 5), (1e7, 6)])
def test_configurations_sharing_a_kind_table_report_what_they_report_alone(factor, seed):
    # a kind's configurations read prefixes of one candidate table; each reads the
    # candidates, and reports the summary and records, of its own run_config
    report = sub.implication_harness(seed=seed, alpha_factor=factor, target_non_vacuous=30,
                                     keep_records=True)
    alone = [sub.run_config(sub.OperatorKind(s["kind"]), sub.JanowskiParams(s["A"], s["B"]),
                            factor * s["threshold"], s["threshold"], seed, 30, 400)
             for s in report["summaries"]]
    assert report["summaries"] == [summary for summary, _ in alone]
    assert report["cases"] == [r for _, records in alone for r in records]


SAMPLE_CANDIDATE = sub._sample_candidate


def attempt_of(rng, seed=0):
    """The attempt i < 32 whose harness stream ``default_rng((seed, kind, i))`` rng is at
    (None if none), read from its state before it draws: the harness deals every draw
    from one reused generator (``caratheodory.streams``), whose seed sequence names no
    attempt."""
    state = rng.bit_generator.state["state"]
    return next((i for i in range(32) for kind in sub.OperatorKind
                 if np.random.default_rng((seed, int(kind), i)).bit_generator.state["state"]
                 == state), None)


def huge_at_attempt_2(rng):
    """``_sample_candidate``, except that attempt 2 gets a_2 = ... = a_8 = 1e307, whose
    Horner sum of f' overflows in an add on the circle."""
    if attempt_of(rng) == 2:
        return NormalizedFunction.from_tail([1e307] * 7, order=sub.CANDIDATE_ORDER)
    return SAMPLE_CANDIDATE(rng)


@pytest.mark.parametrize("kind, params", DEFINED_CONFIGS, ids=CONFIG_IDS)
def test_an_overflow_in_the_block_horner_pass_is_raised_at_its_attempt(
        kind, params, monkeypatch):
    # the block's Horner pass ignores errors; the overflowing row is evaluated
    # again at its turn, after attempts 0 and 1, and raises halving_loop's error
    monkeypatch.setattr(sub, "_sample_candidate", huge_at_attempt_2)
    thr = sub.alpha_threshold(kind, params)
    args = (kind, params, 0.5 * thr, thr, 0, 50, 5)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(FloatingPointError) as expected:
            halving_loop(*args)
        assert str(expected.value) == "overflow encountered in add"
        for rows in (sub._BLOCK_ROWS, 1, 7):
            monkeypatch.setattr(sub, "_BLOCK_ROWS", rows)
            for keep_records in (True, False):
                with pytest.raises(FloatingPointError) as got:
                    sub.run_config(*args, keep_records=keep_records)
                assert str(got.value) == str(expected.value)


def test_shrink_ladder_keeps_an_overflow_only_the_first_step_raises(monkeypatch):
    # B = 1e-300 puts the pole of the Janowski deviation at v = 1e300.  Step 0 of
    # f = z + z^2/4 reaches v = 1 + 1e300 at z = 0.995, where (v - 1)/(A - B v)
    # overflows; later steps stay away from the pole, and every step fails.
    # |alpha| is far past 2^20, so no step may be skipped
    monkeypatch.setattr(sub, "_sample_candidate",
                        lambda rng: NormalizedFunction.from_tail([0.25], order=8))
    kind, params = sub.OperatorKind.Z_FPRIME, sub.JanowskiParams(1.0, 1e-300)
    alpha = 1e300 / (0.995 * 1.4975)
    z = sub.HARNESS_GRID.points()
    dp, dg = 0.5 * z, 0.25 * z  # f' - 1 and f/z - 1
    case = sub.ImplicationCase(kind=kind, alpha=alpha, janowski=params)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(FloatingPointError):
            step_deviation(case, dp, dg, 0)
        assert step_deviation(case, dp, dg, 1)[0] > 1.0
        assert step_deviation(case, dp, dg, sub.SHRINK_STEPS)[0] > 1.0
        args = (kind, params, alpha, 1.0, 0, 1, 1)
        with pytest.raises(FloatingPointError, match="overflow encountered in divide"):
            halving_loop(*args)
        for keep_records in (True, False):
            with pytest.raises(FloatingPointError, match="overflow encountered in divide"):
                sub.run_config(*args, keep_records=keep_records)


def certified_sweep():
    """(case, coefficients, dp, dg, k0) of seeded candidates, scaled by 1, 8 and 30, at
    five alphas per defined configuration, where some step of the shrink ladder is
    certified."""
    z = sub.HARNESS_GRID.points()
    rng = np.random.default_rng(83)
    for kind, params in DEFINED_CONFIGS:
        thr = sub.alpha_threshold(kind, params)
        for alpha in (0.5 * thr, 1.05 * thr, 3.0 * thr, -1.05 * thr,
                      near_cut_alpha(kind, params)):
            case = sub.ImplicationCase(kind=kind, alpha=alpha, janowski=params)
            for scale in (1.0, 1.0, 8.0, 30.0):
                c = harness_candidate_row(rng)
                c[2:] *= scale
                dp, dg = tail_values(c, z)
                k0 = int(sub._certified_from(case, z, dp[None], dg[None])[0])
                if k0 <= sub.SHRINK_STEPS:
                    yield case, c, dp, dg, k0


def test_certified_step_rows_are_the_halved_candidates_own_deviations():
    # one batch of certified steps, its rows' maxima each the deviation of the
    # halved candidate from operator_values, bit for bit; and every step that
    # the probe at every 16th circle point fails has a deviation at the cut or above
    z = sub.HARNESS_GRID.points()
    cut = 1.0 - sub.PREMISE_MARGIN
    passed = failed = probe_failed = 0
    for case, c, dp, dg, k0 in certified_sweep():
        steps = np.arange(k0, sub.SHRINK_STEPS + 1)
        s = np.ldexp(1.0, -steps)[:, None]
        with np.errstate(all="ignore"):
            rows, vanishes = sub._step_rows(case, z, dp[None], dg[None], s)
            probe, _ = sub._step_rows(case, z[::16], dp[None, ::16], dg[None, ::16], s)
        assert rows.shape == probe.shape == (sub.SHRINK_STEPS + 1 - k0,)
        assert not vanishes.any()
        for k, row in zip(steps, rows):
            halved = c.copy()
            halved[2:] *= 2.0 ** -int(k)
            f = NormalizedFunction(coefficients(halved))
            assert np.array_equal(row, sub.janowski_deviation(
                sub.operator_values(f, case.kind, case.alpha, z), case.janowski))
        fails = probe >= cut * (1.0 + 1e-9)
        assert np.all(rows[fails] >= cut)
        passed += int(np.count_nonzero(rows < cut))
        failed += int(np.count_nonzero(rows >= cut))
        probe_failed += int(np.count_nonzero(fails))
    assert passed > 0 and probe_failed > 0 and failed > 0


def test_certified_steps_have_no_zero_of_f_over_z_inside_the_circle():
    # 2^-k max|f/z - 1| <= 1/2 on the circle keeps f/z in Re w >= 1/2
    steps = 0
    for case, _, dp, dg, k0 in certified_sweep():
        for k in range(k0, sub.SHRINK_STEPS + 1):
            assert winding_number(2.0 ** -k * dg + 1.0) == 0
            steps += 1
    assert steps > 0


def quartic_bump(a):
    """f = z + a z^5, so that on |z| = r, f' - 1 = 5 a r^4 e^(4 i theta): the same at the
    probe points theta = 0, pi/2, pi, 3 pi/2, and of the other sign at theta = pi/4."""
    return NormalizedFunction.from_tail([0.0, 0.0, 0.0, a], order=sub.CANDIDATE_ORDER)


def test_a_step_failing_only_between_the_probe_points_fails(monkeypatch):
    # kind 1 at (1, 0): |v - 1| = |alpha| r |1 - 2^-k e^(4 i theta)/2| for 5 a r^4 = -1/2,
    # least at the probe points and largest at theta = pi/4.  Steps 0-2 are certified
    # and fail only between the probe points; step 3 passes
    r = sub.HARNESS_GRID.max_radius
    f = quartic_bump(-0.1 / r ** 4)
    monkeypatch.setattr(sub, "_sample_candidate", lambda rng: f)
    kind, params, alpha = sub.OperatorKind.Z_FPRIME, sub.JanowskiParams(1.0, 0.0), 0.9
    case = sub.ImplicationCase(kind=kind, alpha=alpha, janowski=params)
    z = sub.HARNESS_GRID.points()
    dp, dg = tail_values(f.coeffs, z)
    cut = 1.0 - sub.PREMISE_MARGIN
    assert sub._certified_from(case, z, dp[None], dg[None])[0] == 0
    for k in range(3):
        probe, _ = sub._step_rows(case, z[::16], dp[None, ::16], dg[None, ::16], 2.0 ** -k)
        assert probe[0] < cut <= step_deviation(case, dp, dg, k)[0]
    args = (kind, params, alpha, 1.0, 0, 1, 1)
    summary, records = sub.run_config(*args, keep_records=True)
    assert (summary, records) == halving_loop(*args)
    assert summary_path_matches(args, summary)
    assert records[0]["premise_holds"]
    assert records[0]["function"]["coeffs"][5] == [-0.1 / r ** 4 / 8, 0.0]


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_a_probe_value_within_the_slack_of_the_cut_is_decided_on_the_whole_circle(
        monkeypatch, side):
    # 5 a r^4 = 1/2 puts the largest |v - 1| = |alpha| r 3/2 at the probe points; alpha
    # puts it 5e-10 (relative) above or below the cut, within the probe's 1e-9 slack,
    # so step 0 is evaluated on the whole circle: above the cut it fails there and
    # step 1 passes, below it step 0 passes
    r = sub.HARNESS_GRID.max_radius
    f = quartic_bump(0.1 / r ** 4)
    cut = 1.0 - sub.PREMISE_MARGIN
    kind, params = sub.OperatorKind.Z_FPRIME, sub.JanowskiParams(1.0, 0.0)
    alpha = cut * (1.0 + side * 5e-10) / (1.5 * r)
    case = sub.ImplicationCase(kind=kind, alpha=alpha, janowski=params)
    z = sub.HARNESS_GRID.points()
    dp, dg = tail_values(f.coeffs, z)
    assert sub._certified_from(case, z, dp[None], dg[None])[0] == 0
    probe, _ = sub._step_rows(case, z[::16], dp[None, ::16], dg[None, ::16], 1.0)
    assert abs(probe[0] - cut) < 1e-9 * cut and (probe[0] >= cut) == (side > 0)
    full_steps = []

    def spy(case, z, dp, dg, s):
        if z.size == sub.HARNESS_GRID.theta_samples:
            full_steps.extend(np.broadcast_to(s, dp.shape[:-1] + (1,)).ravel().tolist())
        return step_rows(case, z, dp, dg, s)

    step_rows = sub._step_rows
    monkeypatch.setattr(sub, "_sample_candidate", lambda rng: f)
    args = (kind, params, alpha, 1.0, 0, 1, 1)
    summary, records = sub.run_config(*args, keep_records=True)
    assert (summary, records) == halving_loop(*args)
    # the summary path decides without building records, which evaluate at s = 1 too
    monkeypatch.setattr(sub, "_step_rows", spy)
    assert sub.run_config(*args, keep_records=False) == (summary, [])
    assert 1.0 in full_steps
    assert records[0]["premise_holds"]
    assert records[0]["function"]["coeffs"][5] == [0.1 / r ** 4 / (2.0 if side > 0 else 1.0), 0.0]


def test_sampled_candidates_keep_f_over_z_within_2_of_1_on_the_circle():
    # run_config computes a block's conclusions in one batch and skips those of
    # vacuous attempts; neither raises while |f/z - 1| on the circle stays far below
    # the 1e154 where the region margins overflow.  2,000 of the harness's own draws
    z = sub.HARNESS_GRID.points()
    worst = max(float(np.max(np.abs(tail_values(harness_candidate_row(
        np.random.default_rng((seed, int(kind), i))), z)[1])))
        for seed in range(5) for kind in sub.OperatorKind for i in range(100))
    assert worst < 2.0


@pytest.mark.parametrize("r0, first_pass", [(0.06, 5), (0.995, 1)])
def test_shrink_ladder_skips_steps_where_f_over_z_vanishes(monkeypatch, r0, first_pass):
    # f/z = 1 - 2^-k z / r0 vanishes at z = 2^k r0.  At r0 = 0.06 the zero lies
    # inside the circle for k = 0..4, and its winding count fails those steps; at
    # r0 = 0.995 it lies on the circle sample z = 0.995 for k = 0, where the step's
    # f/z vanishes on the grid (operator_values raises ZeroDivisorOnGrid there).
    # Either way the failed steps are skipped
    monkeypatch.setattr(sub, "_sample_candidate",
                        lambda rng: NormalizedFunction.from_tail([-1.0 / r0], order=8))
    z = sub.HARNESS_GRID.points()
    dg = -z / r0
    params = sub.JanowskiParams(0.5, -0.5)
    # kinds 2 and 3 pass at the first step whose f/z has no zero in the closed
    # disk; kind 4 never passes
    for kind, halvings in ((2, first_pass), (3, first_pass), (4, sub.SHRINK_STEPS)):
        thr = sub.alpha_threshold(kind, params)
        args = (sub.OperatorKind(kind), params, 0.5 * thr, thr, 0, 3, 5)
        case = sub.ImplicationCase(kind=args[0], alpha=args[2], janowski=params)
        for k in range(first_pass):
            if r0 < sub.HARNESS_GRID.max_radius:
                assert sub._pole_inside(case, 2.0 ** -k * dg + 1.0)
            else:
                assert step_deviation(case, 2.0 * dg, dg, k) == (math.inf, True)
        if kind == 2 and r0 < sub.HARNESS_GRID.max_radius:
            # the winding count, not the deviation, fails step 0
            assert step_deviation(case, 2.0 * dg, dg, 0)[0] < 1.0 - sub.PREMISE_MARGIN
        summary, records = sub.run_config(*args, keep_records=True)
        assert (summary, records) == halving_loop(*args)
        assert summary_path_matches(args, summary)
        assert summary["attempts"] == len(records) > 0
        for record in records:
            assert record["premise_holds"] == (kind != 4)
            assert record["function"]["coeffs"][2] == [-2.0 ** -halvings / r0, 0.0]


def test_a_kept_record_whose_last_step_vanishes_on_the_grid_raises(monkeypatch):
    # f/z = 1 - 2^(24 - k) z / 0.995 has a zero inside the circle at steps 0-23, and
    # step 24 vanishes at the circle sample z = 0.995.  No step is certified, every
    # step fails, and the vacuous record's function has no operator values on the
    # grid: keeping it raises, as verify_implication of that function does
    r = sub.HARNESS_GRID.max_radius
    f = NormalizedFunction.from_tail([-2.0 ** sub.SHRINK_STEPS / r], order=8)
    monkeypatch.setattr(sub, "_sample_candidate", lambda rng: f)
    params = sub.JanowskiParams(0.5, -0.5)
    thr = sub.alpha_threshold(2, params)
    args = (sub.OperatorKind.RATIO, params, 0.5 * thr, thr, 0, 1, 1)
    with pytest.raises(sub.ZeroDivisorOnGrid):
        sub.run_config(*args, keep_records=True)
    summary, records = sub.run_config(*args, keep_records=False)
    assert (summary["attempts"], summary["non_vacuous"], records) == (1, 0, [])
    last = f.coeffs.copy()
    last[2:] *= 2.0 ** -sub.SHRINK_STEPS
    case = sub.ImplicationCase(kind=args[0], alpha=args[2], janowski=params)
    with pytest.raises(sub.ZeroDivisorOnGrid):
        sub.verify_implication(NormalizedFunction(last), case)


def test_a_vanishing_kept_record_is_raised_after_its_block_is_decided(monkeypatch):
    # attempt 0 is the candidate above, whose kept step-24 f/z vanishes on the grid;
    # attempt 1 overflows in its own Horner pass.  The records are built once the
    # whole block is decided, so in one block the overflow is raised first, and in
    # blocks of one candidate the vanishing record is.  A one-at-a-time loop would
    # raise ZeroDivisorOnGrid at attempt 0 either way; no drawn candidate comes near
    r = sub.HARNESS_GRID.max_radius
    vanishing = NormalizedFunction.from_tail([-2.0 ** sub.SHRINK_STEPS / r], order=8)
    huge = NormalizedFunction.from_tail([1e307] * 7, order=sub.CANDIDATE_ORDER)
    monkeypatch.setattr(sub, "_sample_candidate",
                        lambda rng: huge if attempt_of(rng) else vanishing)
    params = sub.JanowskiParams(0.5, -0.5)
    thr = sub.alpha_threshold(2, params)
    args = (sub.OperatorKind.RATIO, params, 0.5 * thr, thr, 0, 50, 2)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(FloatingPointError, match="overflow encountered in add"):
            sub.run_config(*args, keep_records=True)
        monkeypatch.setattr(sub, "_BLOCK_ROWS", 1)
        with pytest.raises(sub.ZeroDivisorOnGrid):
            sub.run_config(*args, keep_records=True)


PREMISE_CONFIGS = [(kind, params) for kind, params in DEFINED_CONFIGS
                   if kind is not sub.OperatorKind.Z_FPRIME]


@settings(max_examples=60, deadline=None)
@given(config=st.sampled_from(PREMISE_CONFIGS),
       radius=st.floats(0.05, 0.9), angle=st.floats(-math.pi, math.pi),
       b=st.complex_numbers(max_magnitude=0.5), factor=st.floats(0.01, 1.05))
# a subnormal b: the top coefficient -b/z0 of the kept candidate is subnormal
@example(config=(sub.OperatorKind.RATIO, sub.JanowskiParams(1.0, 0.0)), radius=0.09375,
         angle=0.0, b=5e-324 + 0j, factor=0.125)
def test_a_planted_zero_of_f_over_z_inside_the_circle_never_passes_the_premise(
        config, radius, angle, b, factor):
    # f/z = (1 - z/z0)(1 + b z) vanishes at z0 inside the circle and nowhere on it
    kind, params = config
    z0 = radius * cmath.exp(1j * angle)
    f = NormalizedFunction.from_tail([b - 1.0 / z0, -b / z0], order=sub.CANDIDATE_ORDER)
    thr = sub.alpha_threshold(kind, params)
    case = sub.ImplicationCase(kind=kind, alpha=factor * thr, janowski=params)
    assert not sub.verify_implication(f, case)["premise_holds"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sub, "_sample_candidate", lambda rng: f)
        _, records = sub.run_config(kind, params, factor * thr, thr, 0, 1, 1)
    kept = NormalizedFunction.from_json(records[0]["function"])
    assert not (records[0]["premise_holds"] and zero_inside(kept.coeffs))
    assert records[0]["premise_holds"] <= (kept.coeffs[2] != f.coeffs[2])


@pytest.mark.parametrize("kind, params", DEFINED_CONFIGS, ids=CONFIG_IDS)
def test_circle_verdicts_match_the_full_grid_where_f_over_z_has_no_zero_inside(kind, params):
    # the image of the disk |z| <= 0.995 lies in a Jordan domain exactly when the
    # image of its circle does, so the circle's verdicts are those of a polar grid
    full = PolarGrid(64, 16)
    thr = sub.alpha_threshold(kind, params)
    rng = np.random.default_rng((29, int(kind)))
    verdicts = set()
    for i in range(300):
        c = harness_candidate_row(rng)
        c[2:] *= (0.25, 1.0, 4.0)[i % 3]
        if kind != 1 and zero_inside(c):
            continue
        f = NormalizedFunction(c)
        case = sub.ImplicationCase(kind=kind, alpha=(0.5, 1.05)[i % 2] * thr, janowski=params)
        circle = sub.verify_implication(f, case)
        grid = oracle_record(f, case, full)
        got = (circle["premise_holds"], circle["conclusion_sinh"], circle["conclusion_sqrt"])
        assert got == (grid["premise_holds"], grid["conclusion_sinh"], grid["conclusion_sqrt"])
        verdicts.add(got)
    assert len(verdicts) >= 2


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_kept_records_are_verify_implication_of_their_function(seed):
    # each record, vacuous ones included, pairs its function with that
    # function's own deviation and conclusions on the harness circle, bit for
    # bit those of verify_implication and of the scalar oracle
    records = sub.implication_harness(seed=seed, keep_records=True)["cases"]
    assert any(r["vacuous"] for r in records) and any(not r["vacuous"] for r in records)
    for r in records:
        f = NormalizedFunction.from_json(r["function"])
        case = sub.ImplicationCase(kind=sub.OperatorKind(r["kind"]), alpha=complex(*r["alpha"]),
                                   janowski=sub.JanowskiParams(r["A"], r["B"]))
        assert json.dumps(r) == json.dumps(sub.verify_implication(f, case))
        assert json.dumps(r) == json.dumps(oracle_record(f, case))


def undrawn_functions():
    """Functions that the harness never draws: f0 = z e^(Shi z) at order 32, the Koebe
    function at order 20, and z + a z^n for n = 2..7, with f/z = 1 + a z^(n-1) zero-free on
    the closed disk for the smaller a and vanishing inside the circle for the larger."""
    yield "f0", member_from_witness(cara.SchwarzSample.monomial(1), 32)
    yield "koebe", NormalizedFunction.koebe(20)
    for n in range(2, 8):
        for a in (0.05, 0.3j, -0.6, 1.5 * cmath.exp(0.7j)):
            yield f"z + {a} z^{n}", NormalizedFunction.from_tail(
                [0.0] * (n - 2) + [a], order=sub.CANDIDATE_ORDER)


@pytest.mark.parametrize("kind, params", DEFINED_CONFIGS, ids=CONFIG_IDS)
def test_verify_implication_is_the_scalar_oracle_on_functions_the_harness_never_draws(
        kind, params):
    # verify_implication shares the harness's code, so the scalar route checks it,
    # bit for bit, on the records of both verdicts
    thr = sub.alpha_threshold(kind, params)
    premises = set()
    for name, f in undrawn_functions():
        for factor in (0.05, 0.5, 1.05, -2.0):
            case = sub.ImplicationCase(kind=kind, alpha=factor * thr, janowski=params)
            record = sub.verify_implication(f, case)
            assert json.dumps(record) == json.dumps(oracle_record(f, case)), (name, factor)
            premises.add(record["premise_holds"])
    assert premises == {True, False}


# -- the block build of the harness's candidates ------------------------------------


def candidate_built_alone(rng):
    """A harness candidate with ``_sample_candidate``'s draws, built on its own: a
    polynomial by ``from_tail`` and a Schwarz witness's member by ``member_from_witness``."""
    if rng.random() < 0.5:
        degree = int(rng.integers(2, 7))
        tail = [(rng.normal(0.0, 0.15) + 1j * rng.normal(0.0, 0.15)) / n
                for n in range(2, degree + 1)]
        return NormalizedFunction.from_tail(tail, order=sub.CANDIDATE_ORDER)
    return member_from_witness(cara.sample_schwarz(rng, max_zeros=2), order=sub.CANDIDATE_ORDER)


@pytest.mark.parametrize("factor", [0.5, 1.05, 2.0])
def test_block_built_candidates_give_the_reports_of_candidates_built_alone(factor, monkeypatch):
    # member_rows agrees with member_from_witness to round-off, not bit for bit: the
    # summaries are identical, every verdict of a kept record is equal, and the
    # coefficients and deviations differ by round-off only
    schwarz_rows = 0
    for seed in range(0, 40, 4):
        got = sub.implication_harness(seed=seed, alpha_factor=factor, keep_records=True)
        assert sub.implication_harness(seed=seed, alpha_factor=factor) == {
            key: value for key, value in got.items() if key != "cases"}
        with monkeypatch.context() as mp:
            mp.setattr(sub, "_sample_candidate", candidate_built_alone)
            want = sub.implication_harness(seed=seed, alpha_factor=factor, keep_records=True)
        assert got["summaries"] == want["summaries"]
        assert len(got["cases"]) == len(want["cases"]) > 0
        for r, w in zip(got["cases"], want["cases"]):
            assert ({k: v for k, v in r.items() if k not in ("deviation", "function")}
                    == {k: v for k, v in w.items() if k not in ("deviation", "function")})
            assert abs(r["deviation"] - w["deviation"]) <= 1e-14 * w["deviation"]
            c = NormalizedFunction.from_json(r["function"]).coeffs
            c_alone = NormalizedFunction.from_json(w["function"]).coeffs
            assert np.max(np.abs(c - c_alone)) <= 1e-15
            schwarz_rows += not np.array_equal(c, c_alone)
    assert schwarz_rows > 0


def overflowing_witness_at_attempt_2(rng):
    """``_sample_candidate``, except that attempt 2 gets the witness 1e200 z, no Schwarz
    map, whose member's coefficients overflow."""
    if attempt_of(rng) == 2:
        huge = cara.SchwarzSample()
        object.__setattr__(huge, "rotation", 1e200)
        return huge
    return SAMPLE_CANDIDATE(rng)


@pytest.mark.parametrize("rows, decided_first", [(256, 0), (1, 2), (7, 0)])
def test_a_non_finite_candidate_row_raises_before_its_block_is_decided(
        rows, decided_first, monkeypatch):
    # member_from_witness raised at the draw of attempt 2; the block build raises
    # its ValueError once the block is drawn, before the block's first step
    monkeypatch.setattr(sub, "_sample_candidate", overflowing_witness_at_attempt_2)
    monkeypatch.setattr(sub, "_BLOCK_ROWS", rows)
    decided = []
    shrink_block = sub._shrink_block

    def counted(case, z, c, dp, dg):
        decided.append(len(c))
        return shrink_block(case, z, c, dp, dg)

    monkeypatch.setattr(sub, "_shrink_block", counted)
    params = sub.JanowskiParams(0.5, -0.5)
    thr = sub.alpha_threshold(2, params)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^series coefficients must be finite$"):
            sub.run_config(sub.OperatorKind.RATIO, params, 0.5 * thr, thr, 0, 50, 20)
    assert len(decided) == decided_first


# -- the log-derivative identity -------------------------------------------------


def test_log_derivative_identity_residuals():
    rng = np.random.default_rng(61)
    candidates = [NormalizedFunction.identity(20),
                  member_from_witness(cara.SchwarzSample.monomial(1), 20),
                  NormalizedFunction.koebe(20)]
    candidates += [member_from_witness(cara.sample_schwarz(rng), 20)
                   for _ in range(5)]
    for g in candidates:
        assert sub.log_derivative_identity_residual(g, 16) <= 1e-10
