"""Batch command line front end.

Subcommands: coeffs, membership, bounds-scan, thresholds, growth,
lemma-suite, verify-implications, plot-data.  Analysis verdicts (including
"non-member" and bound violations) exit 0; exit 1 flags usage or parse
errors, exit 2 an invariant violation in the input, and exit 3 a requested
assertion-class check that failed (a harness counterexample or an
inequality-suite violation).  Identical configurations, seeds included,
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds as bd
from . import caratheodory as cara
from . import core
from . import regions
from . import series as ts
from . import subordination as sub

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_CHECK_FAILED = 3


class UsageError(Exception):
    pass


class InputInvariantError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text if text.endswith("\n") else text + "\n")


def _emit_json(obj, path: str | None):
    _write_output(json.dumps(obj, sort_keys=True, indent=2), path)


def _emit_csv(header: list[str], rows: list[list], path: str | None):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    _write_output("\n".join(lines), path)


def _emit_markdown(header: list[str], rows: list[list], path: str | None,
                   preamble: str = ""):
    lines = []
    if preamble:
        lines.append(preamble)
        lines.append("")
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join([" --- "] * len(header)) + "|")
    for row in rows:
        lines.append("| " + " | ".join(
            _fmt(v) if isinstance(v, float) else str(v) for v in row) + " |")
    _write_output("\n".join(lines), path)


def _emit_table(fmt: str, header: list[str], rows: list[list], obj,
                path: str | None, preamble: str = ""):
    if fmt == "json":
        _emit_json(obj, path)
    elif fmt == "csv":
        _emit_csv(header, rows, path)
    else:
        _emit_markdown(header, rows, path, preamble)


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise UsageError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"cannot parse {path}: {exc}") from exc


def _function_from_input(path: str, order: int) -> core.NormalizedFunction:
    obj = _load_json(path)
    try:
        if "coeffs" in obj:
            return core.NormalizedFunction.from_json(obj)
        if "rotation" in obj:
            return core.member_from_witness(cara.SchwarzSample.from_json(obj), order)
        if "weights" in obj:
            k = cara.HerglotzSample.from_json(obj).series(order)
            return core.member_from_witness(ts.div(k - 1, k + 1), order)
    except (ValueError, ts.SeriesError) as exc:
        raise InputInvariantError(str(exc)) from exc
    raise UsageError(f"{path}: expected a function, Schwarz or Herglotz JSON object")


def _witness_argument(name: str):
    if name == "identity":
        return cara.SchwarzSample.monomial(1)
    if name == "zero":
        return ts.constant(0.0)
    if name.startswith("z^"):
        try:
            return cara.SchwarzSample.monomial(int(name[2:]))
        except ValueError as exc:
            raise UsageError(f"bad witness argument {name!r}") from exc
    obj = _load_json(name)
    try:
        return cara.SchwarzSample.from_json(obj)
    except (KeyError, ValueError) as exc:
        raise InputInvariantError(f"{name}: {exc}") from exc


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--order", type=int, default=32)
    p.add_argument("--theta-samples", type=int, default=512)
    p.add_argument("--max-radius", type=float, default=0.995)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
    p.add_argument("--output", default=None)


def _check_invariants(args):
    if not 8 <= args.order <= 128:
        raise InputInvariantError(f"order must lie in [8, 128], got {args.order}")
    if not 0.0 < args.max_radius < 1.0:
        raise InputInvariantError(f"max-radius must lie in (0, 1), got {args.max_radius}")
    if args.theta_samples < 64:
        raise InputInvariantError("theta-samples must be >= 64")


def build_parser() -> _Parser:
    parser = _Parser(prog="gsh-lab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("coeffs", help="coefficient table from a witness or function file")
    _add_common(p)
    p.add_argument("--witness", default=None,
                   help="'identity', 'zero', 'z^K' or a Schwarz JSON path")
    p.add_argument("--input", default=None, help="function/witness JSON path")

    p = subs.add_parser("membership", help="run the three membership tests")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--radial-samples", type=int, default=64)

    p = subs.add_parser("bounds-scan", help="empirical maxima vs claimed bounds")
    _add_common(p)
    p.add_argument("--coefficients", default="2,3,4,5,6",
                   help="comma list of coefficient indices to scan")
    p.add_argument("--fs-lambdas", default="0,0.5,1,2",
                   help="comma list of real Fekete-Szego parameters")

    p = subs.add_parser("thresholds", help="alpha thresholds for the four operator kinds")
    _add_common(p)
    p.add_argument("--A", type=float, default=None)
    p.add_argument("--B", type=float, default=None)

    p = subs.add_parser("growth", help="growth envelope, derivative bound, covering radius")
    _add_common(p)
    p.add_argument("--radii", default="0.25,0.5,0.75,0.95")

    p = subs.add_parser("lemma-suite", help="randomized coefficient-inequality suite")
    _add_common(p)

    p = subs.add_parser("verify-implications", help="implication harness summary")
    _add_common(p)
    p.add_argument("--alpha-factor", type=float, default=1.05)
    p.add_argument("--cases", type=int, default=50,
                   help="target premise-true cases per configuration")
    p.add_argument("--max-attempts", type=int, default=400)
    p.add_argument("--include-cases", action="store_true",
                   help="emit the full per-case log, not just summaries")

    p = subs.add_parser("plot-data", help="CSV curves for plotting")
    _add_common(p)
    p.add_argument("--curve", required=True,
                   choices=("sinh-boundary", "ratio-image", "janowski"))
    p.add_argument("--resolution", type=int, default=512)
    p.add_argument("--input", default=None, help="function JSON for ratio-image")
    p.add_argument("--radius", type=float, default=0.9,
                   help="circle radius for ratio-image")
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--B", type=float, default=0.0)
    return parser


# -- subcommands ----------------------------------------------------------


def _cmd_coeffs(args) -> int:
    if args.witness is not None:
        f = core.member_from_witness(_witness_argument(args.witness), args.order)
    elif args.input is not None:
        f = _function_from_input(args.input, args.order)
    else:
        raise UsageError("coeffs requires --witness or --input")
    rows = [[n, float(f.coeff(n).real), float(f.coeff(n).imag), float(abs(f.coeff(n)))]
            for n in range(1, f.order + 1)]
    obj = {"order": f.order,
           "coeffs": [{"n": r[0], "re": r[1], "im": r[2], "abs": r[3]} for r in rows]}
    _emit_table(args.format, ["n", "re", "im", "abs"], rows, obj, args.output,
                preamble="coefficient table")
    return EXIT_OK


def _cmd_membership(args) -> int:
    f = _function_from_input(args.input, args.order)
    grid = core.PolarGrid(theta_samples=args.theta_samples,
                          radial_samples=args.radial_samples,
                          max_radius=args.max_radius)
    report = core.membership_report(f, args.theta_samples, grid)
    obj = report.to_json()
    rows = [["sufficient", report.sufficient.verdict, report.sufficient.statistic],
            ["kernel", report.kernel.verdict, report.kernel.min_modulus],
            ["geometric", report.geometric.verdict, report.geometric.max_excursion],
            ["combined", report.verdict, ""]]
    _emit_table(args.format, ["test", "verdict", "statistic"], rows, obj, args.output,
                preamble="membership report")
    return EXIT_OK


def _cmd_bounds_scan(args) -> int:
    cfg = bd.ScanConfig(samples=args.samples, seed=args.seed, order=args.order,
                        tolerance=args.tolerance)
    try:
        coeff_range = tuple(int(v) for v in args.coefficients.split(","))
        lams = tuple(float(v) for v in args.fs_lambdas.split(","))
    except ValueError as exc:
        raise UsageError(f"bad list argument: {exc}") from exc
    estimates = bd.default_scan_suite(cfg, coeff_range, lams)
    rows = [[e.functional, e.claimed_bound, e.empirical_max, e.attained_ratio,
             str(e.violation)] for e in estimates]
    obj = {"config": {"samples": cfg.samples, "seed": cfg.seed, "order": cfg.order},
           "estimates": [e.to_json() for e in estimates]}
    _emit_table(args.format, ["functional", "claimed", "empirical", "ratio", "violation"],
                rows, obj, args.output, preamble="claimed vs empirical bounds")
    return EXIT_OK


def _cmd_thresholds(args) -> int:
    if (args.A is None) != (args.B is None):
        raise UsageError("--A and --B must be given together")
    pairs = [(args.A, args.B)] if args.A is not None else \
        [(1.0, 0.0), (0.5, -0.5), (0.8, 0.2), (1.0, -1.0)]
    rows = []
    records = []
    for a, b in pairs:
        try:
            params = sub.JanowskiParams(a, b)
        except ValueError as exc:
            raise InputInvariantError(str(exc)) from exc
        for kind in sub.OperatorKind:
            thr = sub.alpha_threshold(kind, params)
            rows.append([int(kind), a, b,
                         "undefined" if thr is None else thr,
                         str(sub.threshold_b_form_differs(kind, params))])
            records.append({"kind": int(kind), "A": a, "B": b,
                            "threshold": thr,
                            "b_form_differs": sub.threshold_b_form_differs(kind, params)})
    _emit_table(args.format, ["kind", "A", "B", "threshold", "b_form_differs"],
                rows, {"thresholds": records}, args.output,
                preamble="alpha thresholds (undefined when the denominator is not positive)")
    return EXIT_OK


def _cmd_growth(args) -> int:
    try:
        radii = [float(v) for v in args.radii.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad radii list: {exc}") from exc
    for r in radii:
        if not 0.0 < r < 1.0:
            raise InputInvariantError(f"radius {r} outside (0, 1)")
    records = [core.growth_distortion(r) for r in radii]
    rows = [[rec.r, rec.lower, rec.upper, rec.deriv_bound] for rec in records]
    obj = {"covering_radius": core.covering_radius(),
           "rows": [rec.to_json() for rec in records]}
    _emit_table(args.format, ["r", "lower", "upper", "deriv_bound"], rows, obj,
                args.output,
                preamble=f"growth envelope (covering radius {core.covering_radius()!r})")
    return EXIT_OK


def _cmd_lemma_suite(args) -> int:
    report = cara.inequality_suite(args.samples, args.seed)
    obj = report.to_json()
    rows = [[k, v] for k, v in sorted(report.checks.items())]
    rows.append(["violations", report.violation_count])
    rows.append(["quartic_condition_hits", report.quartic_condition_hits])
    rows.append(["degenerate_witnesses", report.degenerate_witnesses])
    _emit_table(args.format, ["check", "count"], rows, obj, args.output,
                preamble="coefficient-inequality suite")
    return EXIT_CHECK_FAILED if report.violation_count else EXIT_OK


def _cmd_verify_implications(args) -> int:
    report = sub.implication_harness(seed=args.seed, alpha_factor=args.alpha_factor,
                                     target_non_vacuous=args.cases,
                                     max_attempts=args.max_attempts,
                                     keep_records=args.include_cases)
    obj = report.to_json(include_cases=args.include_cases)
    rows = [[s.kind, s.a, s.b, s.threshold, s.attempts, s.non_vacuous,
             s.counterexamples, str(s.premise_feasible)] for s in report.summaries]
    _emit_table(args.format,
                ["kind", "A", "B", "threshold", "attempts", "non_vacuous",
                 "counterexamples", "premise_feasible"],
                rows, obj, args.output, preamble="implication harness")
    return EXIT_CHECK_FAILED if report.counterexample_count else EXIT_OK


def _cmd_plot_data(args) -> int:
    if args.resolution < 64:
        raise InputInvariantError("resolution must be >= 64")
    t = np.linspace(0.0, 2.0 * np.pi, args.resolution + 1)
    if args.curve == "sinh-boundary":
        w = regions.sinh_boundary(t)
    elif args.curve == "janowski":
        try:
            sub.JanowskiParams(args.A, args.B)
        except ValueError as exc:
            raise InputInvariantError(str(exc)) from exc
        w = regions.janowski_boundary(t, args.A, args.B)
    else:
        if args.input is None:
            raise UsageError("ratio-image requires --input")
        if not 0.0 < args.radius < 1.0:
            raise InputInvariantError(f"radius {args.radius} outside (0, 1)")
        f = _function_from_input(args.input, args.order)
        w = f.ratio_values(args.radius * np.exp(1j * t))
    lines = ["t,re,im"]
    for ti, wi in zip(t, w):
        lines.append(f"{_fmt(ti)},{_fmt(wi.real)},{_fmt(wi.imag)}")
    _write_output("\n".join(lines), args.output)
    return EXIT_OK


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "membership": _cmd_membership,
    "bounds-scan": _cmd_bounds_scan,
    "thresholds": _cmd_thresholds,
    "growth": _cmd_growth,
    "lemma-suite": _cmd_lemma_suite,
    "verify-implications": _cmd_verify_implications,
    "plot-data": _cmd_plot_data,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_invariants(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputInvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ts.SeriesError, core.PreconditionNotMet, sub.ZeroDivisorOnGrid) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
