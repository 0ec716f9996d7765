"""Batch command line front end.

Subcommands: coeffs, membership, bounds-scan, thresholds, growth,
lemma-suite, verify-implications, plot-data.  Each subcommand accepts only
the flags it reads, and a flag with a range checks it as it is parsed (the
Janowski pair --A/--B is checked together).  Analysis verdicts (including
"non-member" and bound violations) exit 0; exit 1 flags usage or parse
errors (an unknown flag, text that does not parse), exit 2 an invariant
violation in the input (a value out of range, a malformed input file, numpy
arithmetic that overflows, divides by zero or is invalid), and exit 3 a
requested assertion-class check that failed (a harness counterexample or an
inequality-suite violation).  Identical configurations, seeds included,
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
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


def _write_output(text: str, path: str | None):
    """Write text, newline-terminated, to ``path`` or stdout; a failed write is a usage error.

    Stdout gets 4096-character pieces: a large write can end short and hide a
    reader gone early (``| head``), where the buffer's flush raises.  A failed
    stdout is pointed at the null device, to keep the flush at exit quiet.
    """
    text = text if text.endswith("\n") else text + "\n"
    try:
        if path is None:
            for i in range(0, len(text), 4096):
                sys.stdout.write(text[i:i + 4096])
            sys.stdout.flush()
        else:
            Path(path).write_text(text)
    except OSError as exc:
        if path is None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write {path or 'stdout'}: {exc}") from exc


def _emit_table(fmt: str, header: list[str], rows: list[list], obj,
                path: str | None, preamble: str = ""):
    """Write ``obj`` as JSON, or ``header`` and ``rows`` as CSV or a markdown table.

    A float cell is written as its repr, any other cell (a bool as True or
    False) as its str.
    """
    if fmt == "json":
        try:
            text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:  # NaN or an infinity has no JSON form
            raise InputInvariantError(f"result is not finite: {exc}") from exc
    else:
        cells = [[repr(float(v)) if isinstance(v, float) else str(v) for v in row] for row in rows]
        if fmt == "csv":
            lines = [",".join(row) for row in [header, *cells]]
        else:  # markdown; the separator row is a row of "---" cells
            lines = [preamble, ""] if preamble else []
            lines += ["| " + " | ".join(r) + " |" for r in [header, ["---"] * len(header), *cells]]
        text = "\n".join(lines)
    _write_output(text, path)


def _load_json(path: str) -> object:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise UsageError(f"input file not found: {path}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot parse {path}: {exc}") from exc


#: The fields of each kind of input file.
_INPUT_FIELDS = {"function": ("coeffs",), "Schwarz": ("rotation", "zeros"),
                 "Herglotz": ("weights", "nodes")}


def _function_from_input(path: str, order: int) -> core.NormalizedFunction:
    """The function that a function, Schwarz or Herglotz file describes.

    The file holds all the fields of one kind, and a field of any kind marks
    it.  A function file is read at its own order; ``order`` applies to the
    other two kinds.
    """
    obj = _load_json(path)
    keys = set(obj) if isinstance(obj, dict) else set()
    kinds = {kind: [f for f in fields if f in keys] for kind, fields in _INPUT_FIELDS.items()
             if not keys.isdisjoint(fields)}
    if not kinds:
        raise UsageError(f"{path}: expected a function, Schwarz or Herglotz JSON object")
    if len(kinds) > 1:
        raise InputInvariantError(f"{path}: holds the fields of more than one kind of file: "
                                  + ", ".join(f"{kind} ({', '.join(held)})"
                                              for kind, held in kinds.items()))
    [(kind, held)] = kinds.items()
    missing = [f for f in _INPUT_FIELDS[kind] if f not in held]
    if missing:
        raise InputInvariantError(f"{path}: a {kind} file holds {' and '.join(_INPUT_FIELDS[kind])}"
                                  f"; this one has no {missing[0]}")
    try:
        if kind == "function":
            return core.NormalizedFunction.from_json(obj)
        if kind == "Schwarz":
            return core.member_from_witness(cara.SchwarzSample.from_json(obj), order)
        k = cara.HerglotzSample.from_json(obj).series(order)
        one = ts.constant(1.0, order)
        return core.member_from_witness(ts.div(k - one, k + one), order)
    except (TypeError, ValueError, ts.SeriesError) as exc:
        raise InputInvariantError(f"{path}: {exc}") from exc


def _ranged(kind, name: str, ok, rule: str):
    """argparse ``type`` that range-checks one value.

    Text ``kind`` cannot parse raises ValueError, which argparse reports as a
    usage error (exit 1); a value failing ``ok`` is an invariant violation
    (exit 2).
    """
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise InputInvariantError(f"{name} must {rule}, got {value!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _ranged_list(kind, name: str, ok, rule: str):
    """argparse ``type`` for a comma list whose every item is range-checked."""
    item = _ranged(kind, name, ok, rule)

    def parse(text: str):
        return tuple(item(v) for v in text.split(","))

    parse.__name__ = f"{kind.__name__} list"
    return parse


#: Largest ``--order``.  A witness z^K with K >= order gives the coefficients of f(z) = z.
MAX_ORDER = 128


def _witness(name: str):
    """argparse ``type`` of ``--witness``: 'identity', 'zero' or 'z^K' with K in [1, 128]."""
    if name == "identity":
        return cara.SchwarzSample.monomial(1)
    if name == "zero":
        return ts.constant(0.0)
    if name.startswith("z^") and name[2:].isdecimal():
        if not 1 <= int(name[2:]) <= MAX_ORDER:
            raise InputInvariantError(
                f"witness power must lie in [1, {MAX_ORDER}], got {name!r}")
        return cara.SchwarzSample.monomial(int(name[2:]))
    raise argparse.ArgumentTypeError(f"expected 'identity', 'zero' or 'z^K', got {name!r}")


#: Largest ``--theta-samples`` of ``membership``, and the largest polar grid
#: (``--theta-samples`` times ``--radial-samples``); the kernel scan visits
#: every angle at every grid point.
MAX_THETA_SAMPLES = 8192
MAX_GRID_POINTS = 2 ** 20

#: Largest ``--samples`` of ``bounds-scan`` and ``lemma-suite``.
MAX_SAMPLES = 1_000_000

#: Largest ``--cases`` and ``--max-attempts`` of ``verify-implications``.
MAX_HARNESS_BUDGET = 100_000

_ORDER = _ranged(int, "order", lambda n: 8 <= n <= MAX_ORDER, f"lie in [8, {MAX_ORDER}]")
_SAMPLES = _ranged(int, "samples", lambda n: 1 <= n <= MAX_SAMPLES, f"lie in [1, {MAX_SAMPLES}]")
_SEED = _ranged(int, "seed", lambda n: n >= 0, "be >= 0")
_FORMATS = ("json", "csv", "markdown")


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="gsh-lab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *, order=False, table=True):
        p = subs.add_parser(name, help=summary)
        if order:
            p.add_argument("--order", type=_ORDER, default=32)
        if table:
            p.add_argument("--format", choices=_FORMATS, default="json")
        p.add_argument("--output", default=None)
        return p

    p = command("coeffs", "coefficient table from a witness or function file", order=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--witness", type=_witness, default=None,
                        help="'identity', 'zero' or 'z^K' with K in [1, 128] "
                             "(a Schwarz JSON file goes to --input)")
    source.add_argument("--input", default=None, help="function/witness JSON path")

    p = command("membership", "run the three membership tests", order=True)
    p.add_argument("--input", required=True)
    p.add_argument("--theta-samples", default=512,
                   type=_ranged(int, "theta-samples", lambda n: 64 <= n <= MAX_THETA_SAMPLES,
                                f"lie in [64, {MAX_THETA_SAMPLES}]"))
    p.add_argument("--radial-samples", default=64,
                   type=_ranged(int, "radial-samples", lambda n: n >= 1, "be >= 1"))
    p.add_argument("--max-radius", default=0.995,
                   type=_ranged(float, "max-radius", lambda r: 0.0 < r < 1.0, "lie in (0, 1)"))

    p = command("bounds-scan", "empirical maxima vs claimed bounds", order=True)
    p.add_argument("--samples", type=_SAMPLES, default=2000)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--tolerance", default=1e-9,
                   type=_ranged(float, "tolerance", lambda t: 0.0 < t < math.inf,
                                "be positive and finite"))
    p.add_argument("--coefficients", default=bd.DEFAULT_COEFFICIENTS,
                   type=_ranged_list(int, "coefficient index", lambda n: n >= 2, "be >= 2"),
                   help="comma list of distinct coefficient indices in [2, order] to scan")
    p.add_argument("--fs-lambdas", default=bd.DEFAULT_FS_LAMBDAS,
                   type=_ranged_list(float, "fs lambda", lambda v: math.isfinite(2.0 * v - 1.0),
                                     "keep 2 lambda - 1 finite"),
                   help="comma list of distinct real Fekete-Szego parameters")

    p = command("thresholds", "alpha thresholds for the four operator kinds")
    p.add_argument("--A", type=float, default=None)
    p.add_argument("--B", type=float, default=None)

    p = command("growth", "growth envelope, derivative bound, covering radius")
    p.add_argument("--radii", default=(0.25, 0.5, 0.75, 0.95),
                   type=_ranged_list(float, "radius", lambda r: 0.0 < r < 1.0, "lie in (0, 1)"))

    p = command("lemma-suite", "randomized coefficient-inequality suite")
    p.add_argument("--samples", type=_SAMPLES, default=2000)
    p.add_argument("--seed", type=_SEED, default=0)

    p = command("verify-implications", "implication harness summary")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--alpha-factor", default=1.05,
                   type=_ranged(float, "alpha-factor", lambda a: math.isfinite(a) and a != 0.0,
                                "be finite and nonzero"))
    p.add_argument("--cases", default=50,
                   type=_ranged(int, "cases", lambda n: 1 <= n <= MAX_HARNESS_BUDGET,
                                f"lie in [1, {MAX_HARNESS_BUDGET}]"),
                   help="target premise-true cases per configuration")
    p.add_argument("--max-attempts", default=400,
                   type=_ranged(int, "max-attempts", lambda n: 1 <= n <= MAX_HARNESS_BUDGET,
                                f"lie in [1, {MAX_HARNESS_BUDGET}]"))
    p.add_argument("--include-cases", action="store_true",
                   help="emit the full per-case log, not just summaries")

    p = command("plot-data", "CSV curves for plotting", order=True, table=False)
    p.add_argument("--curve", required=True,
                   choices=("sinh-boundary", "ratio-image", "janowski"))
    p.add_argument("--resolution", default=512,
                   type=_ranged(int, "resolution", lambda n: 64 <= n <= MAX_GRID_POINTS,
                                f"lie in [64, {MAX_GRID_POINTS}]"))
    p.add_argument("--input", default=None, help="function JSON for ratio-image")
    p.add_argument("--radius", default=0.9,
                   type=_ranged(float, "radius", lambda r: 0.0 < r < 1.0, "lie in (0, 1)"),
                   help="circle radius for ratio-image")
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--B", type=float, default=0.0)
    return parser


# -- subcommands ----------------------------------------------------------


def _cmd_coeffs(args) -> int:
    if args.witness is not None:
        f = core.member_from_witness(args.witness, args.order)
    else:
        f = _function_from_input(args.input, args.order)
    rows = [[n, float(f.coeff(n).real), float(f.coeff(n).imag), float(abs(f.coeff(n)))]
            for n in range(1, f.order + 1)]
    obj = {"order": f.order,
           "coeffs": [{"n": r[0], "re": r[1], "im": r[2], "abs": r[3]} for r in rows]}
    _emit_table(args.format, ["n", "re", "im", "abs"], rows, obj, args.output,
                preamble="coefficient table")
    return EXIT_OK


def _cmd_membership(args) -> int:
    if args.theta_samples * args.radial_samples > MAX_GRID_POINTS:
        raise InputInvariantError(
            f"theta-samples x radial-samples must be at most {MAX_GRID_POINTS}, "
            f"got {args.theta_samples} x {args.radial_samples}")
    f = _function_from_input(args.input, args.order)
    grid = core.PolarGrid(theta_samples=args.theta_samples,
                          radial_samples=args.radial_samples,
                          max_radius=args.max_radius)
    report = core.membership_report(f, grid)
    rows = [[test, report[test]["verdict"], report[test][key]]
            for test, key in (("sufficient", "statistic"), ("kernel", "min_modulus"),
                              ("geometric", "max_excursion"))]
    rows.append(["combined", report["verdict"], ""])
    _emit_table(args.format, ["test", "verdict", "statistic"], rows, report, args.output,
                preamble="membership report")
    return EXIT_OK


def _cmd_bounds_scan(args) -> int:
    if max(args.coefficients) > args.order:
        raise InputInvariantError(
            f"coefficient index {max(args.coefficients)} exceeds order {args.order}")
    for name, values in (("coefficient index", args.coefficients),
                         ("fs lambda", args.fs_lambdas)):
        if len(set(values)) < len(values):
            raise InputInvariantError(f"{name} must not repeat, got {','.join(map(str, values))}")
    cfg = bd.ScanConfig(samples=args.samples, seed=args.seed, tolerance=args.tolerance)
    estimates = bd.default_scan_suite(cfg, args.coefficients, args.fs_lambdas)
    rows = [[e[key] for key in ("functional", "claimed_bound", "empirical_max", "attained_ratio",
                                "violation")] for e in estimates]
    obj = {"config": {"samples": cfg.samples, "seed": cfg.seed, "order": args.order},
           "estimates": estimates}
    _emit_table(args.format, ["functional", "claimed", "empirical", "ratio", "violation"],
                rows, obj, args.output, preamble="claimed vs empirical bounds")
    return EXIT_OK


def _cmd_thresholds(args) -> int:
    if (args.A is None) != (args.B is None):
        raise UsageError("--A and --B must be given together")
    pairs = [(args.A, args.B)] if args.A is not None else \
        sub.DEFAULT_CONFIGS + ((1.0, -1.0),)
    records = []
    for a, b in pairs:
        try:
            params = sub.JanowskiParams(a, b)
        except ValueError as exc:
            raise InputInvariantError(str(exc)) from exc
        for kind in sub.OperatorKind:
            records.append({"kind": int(kind), "A": a, "B": b,
                            "threshold": sub.alpha_threshold(kind, params),
                            "b_form_differs": sub.threshold_b_form_differs(kind, params)})
    rows = [[r["kind"], r["A"], r["B"], "undefined" if r["threshold"] is None else r["threshold"],
             r["b_form_differs"]] for r in records]
    _emit_table(args.format, ["kind", "A", "B", "threshold", "b_form_differs"],
                rows, {"thresholds": records}, args.output,
                preamble="alpha thresholds (undefined when the denominator is not positive)")
    return EXIT_OK


def _cmd_growth(args) -> int:
    records = [core.growth_distortion(r) for r in args.radii]
    header = ["r", "lower", "upper", "deriv_bound"]
    radius = core.covering_radius()
    _emit_table(args.format, header, [[rec[key] for key in header] for rec in records],
                {"covering_radius": radius, "rows": records}, args.output,
                preamble=f"growth envelope (covering radius {radius!r})")
    return EXIT_OK


def _cmd_lemma_suite(args) -> int:
    report = cara.inequality_suite(args.samples, args.seed)
    rows = [[k, v] for k, v in sorted(report["checks"].items())]
    rows.append(["violations", len(report["violations"])])
    rows += [[key, report[key]] for key in ("quartic_condition_hits", "degenerate_witnesses")]
    _emit_table(args.format, ["check", "count"], rows, report, args.output,
                preamble="coefficient-inequality suite")
    return EXIT_CHECK_FAILED if report["violations"] else EXIT_OK


def _cmd_verify_implications(args) -> int:
    report = sub.implication_harness(seed=args.seed, alpha_factor=args.alpha_factor,
                                     target_non_vacuous=args.cases,
                                     max_attempts=args.max_attempts,
                                     keep_records=args.include_cases)
    header = ["kind", "A", "B", "threshold", "attempts", "non_vacuous", "counterexamples",
              "premise_feasible"]
    rows = [[s[key] for key in header] for s in report["summaries"]]
    _emit_table(args.format, header, rows, report, args.output, preamble="implication harness")
    return EXIT_CHECK_FAILED if report["counterexamples"] else EXIT_OK


def _cmd_plot_data(args) -> int:
    t = np.linspace(0.0, 2.0 * np.pi, args.resolution + 1)
    if args.curve == "sinh-boundary":
        w = regions.sinh_boundary(t)
    elif args.curve == "janowski":
        try:
            sub.JanowskiParams(args.A, args.B)
        except ValueError as exc:
            raise InputInvariantError(str(exc)) from exc
        if args.B == -1.0:
            raise InputInvariantError(
                "B = -1 maps the disk onto a half-plane whose boundary passes through "
                "infinity; plot-data needs B > -1")
        w = regions.janowski_boundary(t, args.A, args.B)
    else:
        if args.input is None:
            raise UsageError("ratio-image requires --input")
        f = _function_from_input(args.input, args.order)
        with np.errstate(all="ignore"):
            w = f.ratio_values(args.radius * np.exp(1j * t))
        if not np.isfinite(w).all():
            raise InputInvariantError(
                f"z f'/f is not finite on |z| = {args.radius!r}: f(z)/z vanishes there; "
                "plot-data needs another --radius")
    rows = [[ti, wi.real, wi.imag] for ti, wi in zip(t, w)]
    _emit_table("csv", ["t", "re", "im"], rows, None, args.output)
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
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputInvariantError, ts.SeriesError, core.PreconditionNotMet,
            sub.ZeroDivisorOnGrid, FloatingPointError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
