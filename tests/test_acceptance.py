"""Release acceptance suite: one check per stated criterion, with a printed
pass/fail line each (run ``pytest -s tests/test_acceptance.py`` to see them).

One check is known to fail, and its failure carries the recomputed values:

* criterion 08: at alpha = 1.05 x threshold the operator image misses the
  Janowski disk for five of the seven defined operator configurations (the
  deviation already exceeds 1 at the origin), and one configuration reports
  counterexamples.  Both trace to the coded operators, not to the claim:
  for kinds 2-4 they equal 1 + alpha at the origin, so a contained image
  is not a subordination, and kind 1 cannot meet the premise once
  |alpha| > A - B (see README "Known discrepancies").

Criterion 05 checks the claimed maximum, 1/4 at the corner (0, 1), of the
exact envelope of |a2 a4 - a3^2| over the Libera-Zlotkiewicz parameters.

Everything else must pass at the stated tolerances.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from gshlab import bounds as bd
from gshlab import caratheodory as cara
from gshlab import cli
from gshlab import core
from gshlab import series as ts
from gshlab import subordination as sub


def report(num: int, ok: bool, desc: str, detail: str = ""):
    line = f"[acceptance] {num:02d} {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" :: {detail}"
    print(line)


@pytest.fixture(scope="module")
def scan_cfg():
    return bd.ScanConfig(samples=10_000, seed=0)


def shi_by_quadrature(x: float) -> float:
    val, _ = quad(lambda t: math.sinh(t) / t if t else 1.0, 0.0, x,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def test_criterion_01_extremal_member_coefficients():
    start = time.monotonic()
    f = core.member_from_witness(cara.SchwarzSample.monomial(1), 16)
    errs = [abs(f.coeff(2) - 1.0), abs(f.coeff(3) - 0.5),
            abs(f.coeff(4) - 2.0 / 3.0 / 3.0)]
    a5_formula = core.coeffs_from_caratheodory([2, 2, 2, 2])[3]
    errs.append(abs(f.coeff(5) - a5_formula))
    elapsed = time.monotonic() - start
    ok = max(errs) <= 1e-12 and elapsed < 1.0
    report(1, ok, "extremal member coefficients via two independent paths",
           f"max err {max(errs):.2e}, {elapsed:.2f}s")
    assert max(errs) <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_formula_pipeline_consistency():
    start = time.monotonic()
    rng_order = 8
    one = ts.constant(1.0, rng_order)
    sinh_outer = one + ts.sinh(ts.monomial(1, rng_order))
    worst_transfer = 0.0
    worst_composed = 0.0
    for i in range(1000):
        rng = np.random.default_rng((202, i))
        k = cara.sample_herglotz(rng)
        c = k.coeffs(4)
        ks = k.series(rng_order)
        w = ts.div(ks - one, ks + one)
        f = core.member_from_witness(w, rng_order)
        expected = np.array(core.coeffs_from_caratheodory(c))
        got = np.array([f.coeff(n) for n in (2, 3, 4, 5)])
        worst_transfer = max(worst_transfer, float(np.max(np.abs(got - expected))))
        composed = ts.compose(sinh_outer, w)
        c1, c2, c3, c4 = c
        displayed = np.array([
            1.0, c1 / 2, c2 / 2 - c1 ** 2 / 4,
            7 * c1 ** 3 / 48 - c1 * c2 / 2 + c3 / 2,
            -3 * c1 ** 4 / 32 + 7 * c1 ** 2 * c2 / 16 - c1 * c3 / 2
            - c2 ** 2 / 4 + c4 / 2])
        worst_composed = max(worst_composed,
                             float(np.max(np.abs(composed[:5] - displayed))))
    elapsed = time.monotonic() - start
    ok = worst_transfer <= 1e-10 and worst_composed <= 1e-10 and elapsed < 30.0
    report(2, ok, "coefficient transfer and composed expansion on 1000 witnesses",
           f"transfer {worst_transfer:.2e}, composed {worst_composed:.2e}, {elapsed:.1f}s")
    assert worst_transfer <= 1e-10
    assert worst_composed <= 1e-10
    assert elapsed < 30.0


def test_criterion_03_coefficient_bounds(scan_cfg):
    start = time.monotonic()
    claimed = {2: 1.0, 3: 0.5, 4: 1 / 3, 5: 0.25}
    # one battery, so one witness batch for the six coefficient scans
    scans = dict(zip((2, 3, 4, 5, 6, 7),
                     bd.default_scan_suite(scan_cfg, (2, 3, 4, 5, 6, 7), fs_lams=())))
    failures = []
    for n, bound in claimed.items():
        est = scans[n]
        if est.empirical_max > bound + 1e-9 or est.attained_ratio < 0.999:
            failures.append((n, est.empirical_max, est.attained_ratio))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300.0
    detail = ", ".join(
        f"a{n} max {scans[n].empirical_max:.6f} vs {1 / (n - 1):.6f}"
        for n in (6, 7))
    report(3, ok, "sharp coefficient bounds attained, none exceeded",
           f"conjectured orders reported: {detail}; {elapsed:.0f}s")
    assert not failures, failures
    assert elapsed < 300.0


def test_criterion_04_fekete_szego_and_t_functional(scan_cfg):
    failures = []
    lams = (0.0, 0.5, 1.0, 2.0, 1j)
    # one battery, so one witness batch for the Fekete-Szego scans and t
    *fs_ests, t_est, _, _ = bd.default_scan_suite(scan_cfg, (), fs_lams=lams)
    for lam, est in zip(lams, fs_ests):
        if est.empirical_max > est.claimed_bound + 1e-9:
            failures.append(("fs", lam, est.empirical_max))
    if t_est.empirical_max > 1 / 3 + 1e-9:
        failures.append(("t", None, t_est.empirical_max))
    f0 = core.member_from_witness(cara.SchwarzSample.monomial(1), 8)
    fs_f0 = float(abs(core.functional("fs", f0.coeffs, 1.0)))
    exact = abs(fs_f0 - 0.5) < 1e-15
    ok = not failures and exact
    report(4, ok, "Fekete-Szego family and |a4 - a2 a3| within bounds",
           f"|a3 - a2^2| at extremal member = {fs_f0!r}")
    assert not failures, failures
    assert exact


def test_criterion_05_h22_landscape_and_scan(scan_cfg):
    problems = []
    corner = bd.h22_envelope(2.0, 1.0)
    if abs(corner - 1 / 36) > 1e-12:
        problems.append(f"envelope(2,1) = {corner!r}")
    max_value, (c_star, y_star) = bd.h22_envelope_max()
    claimed_ok = (abs(max_value - 0.25) <= 1e-9
                  and abs(c_star) <= 1e-6 and abs(y_star - 1.0) <= 1e-6)
    if not claimed_ok:
        problems.append(
            f"claimed global max 1/4 at (0, 1); computed {max_value!r} at "
            f"({c_star!r}, {y_star!r})")
    # one battery, so one witness batch for the h22 and h31 scans
    _, est, h31 = bd.default_scan_suite(scan_cfg, (), fs_lams=())
    if abs(est.empirical_max - 0.25) > 1e-12 or not est.violation:
        problems.append(f"h22 scan max {est.empirical_max!r}, "
                        f"violation={est.violation}")
    report(5, not problems, "h22 envelope landscape and scan-detected violation",
           f"h31 reported max {h31.empirical_max:.6f} vs claimed 0.25; "
           + "; ".join(problems))
    assert not problems, problems


def test_criterion_06_trig_extrema():
    ext = sub.trig_extrema(2048)
    closed = {"sinh_min": math.sin(1.0), "sinh_max": math.sinh(1.0),
              "cosh_min": math.cos(1.0), "cosh_max": math.cosh(1.0)}
    errs = {k: abs(getattr(ext, k) - v) for k, v in closed.items()}
    roots = np.array([0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi])
    arg_ok = all(
        float(np.min(np.abs(roots - getattr(ext, name)))) < 1e-3
        for name in ("sinh_argmin", "sinh_argmax", "cosh_argmin", "cosh_argmax"))
    ok = max(errs.values()) <= 1e-8 and arg_ok
    report(6, ok, "circle extrema of |sinh| and |cosh| match closed forms",
           f"max err {max(errs.values()):.2e}")
    assert max(errs.values()) <= 1e-8
    assert arg_ok


def test_criterion_07_thresholds():
    base = 1 + math.cos(1) - math.sin(1)
    growth = 1 + math.sinh(1) + math.cosh(1)
    p10 = sub.JanowskiParams(1.0, 0.0)
    reference = {1: 1.0 / base,
                 2: (1 + math.sinh(1)) / base,
                 3: (1 + math.sinh(1)) ** 2 / base,
                 4: (1 + math.sinh(1)) ** 3 / base}
    errs = [abs(sub.alpha_threshold(k, p10) - reference[k]) for k in (1, 2, 3, 4)]
    undefined_ok = sub.alpha_threshold(1, sub.JanowskiParams(1.0, -1.0)) is None
    assert base - abs(-1.0) * growth < 0  # the undefined case really is undefined
    ok = max(errs) <= 1e-10 and undefined_ok
    report(7, ok, "operator thresholds match independent re-evaluation",
           f"values {[round(reference[k], 5) for k in (1, 2, 3, 4)]}, "
           f"max err {max(errs):.2e}")
    assert max(errs) <= 1e-10
    assert undefined_ok


def test_criterion_08_implication_harness():
    start = time.monotonic()
    report_h = sub.implication_harness(seed=0, target_non_vacuous=50,
                                       max_attempts=400)
    elapsed = time.monotonic() - start
    problems = []
    for s in report_h.summaries:
        tag = f"kind {s.kind} (A,B)=({s.a},{s.b})"
        if s.non_vacuous < 50:
            problems.append(
                f"{tag}: {s.non_vacuous} premise-true cases of 50 required "
                f"(deviation floor at the origin {s.floor_deviation:.3f}; "
                f"a floor >= 1 makes the premise unsatisfiable)")
        if s.counterexamples:
            problems.append(
                f"{tag}: {s.counterexamples} premise-true cases with the "
                f"sinh conclusion false (genuine counterexamples)")
    ok = not problems and elapsed < 300.0
    report(8, ok, "implication harness: 50 premise-true cases per "
                  "configuration, no counterexamples",
           " | ".join(problems) or f"{elapsed:.0f}s")
    assert elapsed < 300.0
    assert not problems, problems


def test_criterion_09_inequality_suite():
    suite = cara.inequality_suite(10_000, seed=0)
    ok = suite.violation_count == 0 and suite.quartic_condition_hits > 0
    report(9, ok, "coefficient-inequality suite clean on 10^4 samples",
           f"quartic condition exercised {suite.quartic_condition_hits} times, "
           f"{suite.degenerate_witnesses} degenerate witnesses flagged")
    assert suite.violation_count == 0, suite.violations[:3]
    assert suite.quartic_condition_hits > 0


def test_criterion_10_membership_coherence():
    grid = core.PolarGrid(96, 16)
    chain_breaks = []
    for i in range(400):
        rng = np.random.default_rng((210, i))
        if i % 2:
            tail = 0.12 * (rng.normal(size=4) + 1j * rng.normal(size=4)) / \
                np.arange(2, 6)
            f = core.NormalizedFunction.from_tail(tail, order=12)
        else:
            f = core.member_from_witness(cara.sample_schwarz(rng), 16)
        s = core.sufficient_membership(f, 128)
        values = core.grid_values(f, grid)
        g = core.geometric_membership(values, grid)
        k = core.kernel_nonvanishing(f, values, grid)
        if s.holds and not g.member:
            chain_breaks.append(("sufficient->geometric", i))
        if g.member and not k.nonvanishing:
            chain_breaks.append(("geometric->kernel", i))
    f0 = core.member_from_witness(cara.SchwarzSample.monomial(1), 32)
    anchors_ok = all(core.geometric_membership(core.grid_values(f, grid), grid).member
                     for f in (f0, core.NormalizedFunction.identity(16)))
    koebe = core.NormalizedFunction.koebe(32)
    koebe_report = core.membership_report(koebe, grid)
    koebe_ok = (not koebe_report.sufficient.holds
                and not koebe_report.kernel.nonvanishing
                and not koebe_report.geometric.member)
    ok = not chain_breaks and anchors_ok and koebe_ok
    report(10, ok, "sufficient => geometric => kernel on 400 samples; "
                   "anchor members and the excluded comparison function agree",
           f"{len(chain_breaks)} chain breaks")
    assert not chain_breaks, chain_breaks[:3]
    assert anchors_ok
    assert koebe_ok


def test_criterion_11_growth_and_covering():
    series_route = math.exp(-core.shi_series(1.0))
    quad_route = math.exp(-shi_by_quadrature(1.0))
    covering_err = abs(series_route - quad_route)
    f0 = core.member_from_witness(cara.SchwarzSample.monomial(1), 40)
    value = complex(ts.evaluate(f0.coeffs, 0.5))
    oracle = 0.5 * math.exp(shi_by_quadrature(0.5))
    value_err = abs(value - oracle)
    angles = np.exp(2j * np.pi * np.arange(64) / 64)
    envelope_ok = True
    for i in range(100):
        rng = np.random.default_rng((211, i))
        f = core.member_from_witness(cara.sample_schwarz(rng), 40)
        for r in (0.25, 0.5, 0.75, 0.95):
            bound = core.growth_distortion(r).upper * (1 + 1e-8)
            if float(np.max(np.abs(ts.evaluate(f.coeffs, r * angles)))) > bound:
                envelope_ok = False
    ok = covering_err <= 1e-10 and value_err <= 1e-8 and envelope_ok
    report(11, ok, "growth envelope, derivative bound data and covering radius",
           f"covering {series_route!r} (routes differ {covering_err:.1e}), "
           f"extremal value at 0.5 = {value!r}")
    assert covering_err <= 1e-10
    assert value_err <= 1e-8
    assert envelope_ok


def test_criterion_12_operator_identity():
    rng = np.random.default_rng(212)
    candidates = [core.NormalizedFunction.identity(20),
                  core.member_from_witness(cara.SchwarzSample.monomial(1), 20),
                  core.NormalizedFunction.koebe(20)]
    candidates += [core.member_from_witness(cara.sample_schwarz(rng), 20)
                   for _ in range(5)]
    residuals = [sub.log_derivative_identity_residual(g, 16) for g in candidates]
    ok = max(residuals) <= 1e-10
    report(12, ok, "log-derivative operator identity at order 16",
           f"max residual {max(residuals):.2e}")
    assert max(residuals) <= 1e-10


def test_criterion_13_cli_determinism(tmp_path, capsys):
    args = ["bounds-scan", "--samples", "200", "--seed", "7",
            "--coefficients", "2,3", "--fs-lambdas", "0,1"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    curve_path = tmp_path / "curve.csv"
    assert cli.main(["plot-data", "--curve", "sinh-boundary", "--resolution",
                     "512", "--output", str(curve_path)]) == 0
    rows = [line.split(",") for line in
            curve_path.read_text().strip().splitlines()[1:]]
    first_pt = complex(float(rows[0][1]), float(rows[0][2]))
    last_pt = complex(float(rows[-1][1]), float(rows[-1][2]))
    closure = abs(first_pt - last_pt)
    capsys.readouterr()
    ok = first == second and closure <= 1e-9
    report(13, ok, "identical configurations produce byte-identical artifacts",
           f"curve closure {closure:.1e}")
    assert first == second
    assert closure <= 1e-9
