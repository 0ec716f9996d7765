import argparse
import cmath
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import harness_candidate_row

from gshlab import cli, core
from gshlab import subordination as sub
from gshlab.core import NormalizedFunction


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_koebe(tmp_path, order=32):
    path = tmp_path / "koebe.json"
    path.write_text(json.dumps(NormalizedFunction.koebe(order).to_json()))
    return str(path)


# -- coeffs -----------------------------------------------------------------


def test_coeffs_identity_witness(capsys):
    code, out = run(capsys, "coeffs", "--witness", "identity", "--order", "8")
    assert code == 0
    table = {row["n"]: row for row in json.loads(out)["coeffs"]}
    assert table[2]["re"] == pytest.approx(1.0)
    assert table[3]["re"] == pytest.approx(0.5)
    assert table[4]["re"] == pytest.approx(2 / 9, abs=1e-12)
    assert table[5]["re"] == pytest.approx(7 / 72, abs=1e-12)


def test_coeffs_zero_witness(capsys):
    code, out = run(capsys, "coeffs", "--witness", "zero", "--order", "8")
    assert code == 0
    table = {row["n"]: row for row in json.loads(out)["coeffs"]}
    assert table[2]["abs"] == 0.0


@pytest.mark.parametrize("power", ["129", "100000000000000000000"])
def test_coeffs_witness_power_above_the_largest_order_exits_2(power, tmp_path, capsys):
    out = tmp_path / "coeffs.json"
    code = cli.main(["coeffs", "--witness", f"z^{power}", "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"invariant violation: witness power must lie in [1, 128], got 'z^{power}'\n")
    assert not out.exists()


def test_coeffs_witness_power_at_the_largest_order(capsys):
    # w = z^K gives f(z) = z (1 + z^K / K + ...), so a_(K+1) = 1/K
    code, out = run(capsys, "coeffs", "--witness", "z^127", "--order", "128")
    assert code == 0
    row = {row["n"]: row for row in json.loads(out)["coeffs"]}[128]
    assert row["re"] == pytest.approx(1 / 127, abs=1e-15)
    assert row["im"] == 0.0


def test_coeffs_of_a_function_file_do_not_depend_on_order(tmp_path, capsys):
    # a function file is read at its own order (32 here); --order applies to witnesses
    path = write_koebe(tmp_path)
    tables = [run(capsys, "coeffs", "--input", path, "--order", order) for order in ("8", "128")]
    assert tables[0] == tables[1]
    assert json.loads(tables[0][1])["order"] == 32


def test_coeffs_requires_source(capsys):
    assert cli.main(["coeffs"]) == 1
    assert capsys.readouterr().err == "error: one of the arguments --witness --input is required\n"


def test_coeffs_with_both_a_witness_and_an_input_file_exits_1_and_writes_nothing(tmp_path,
                                                                                 capsys):
    # --input used to be ignored beside --witness
    path = write_koebe(tmp_path)
    out = tmp_path / "coeffs.json"
    code = cli.main(["coeffs", "--witness", "z^2", "--input", path, "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: argument --input: not allowed with argument --witness\n")
    assert not out.exists()


def test_coeffs_malformed_witness_file_exits_2(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"rotation": [1.0, 0.0]}))  # no "zeros"
    code, _ = run(capsys, "coeffs", "--input", str(path))
    assert code == 2


# -- membership ----------------------------------------------------------------


def test_membership_koebe_reports_nonmember(tmp_path, capsys):
    code, out = run(capsys, "membership", "--input", write_koebe(tmp_path),
                    "--theta-samples", "128", "--radial-samples", "24")
    assert code == 0  # analysis verdicts are not process failures
    report = json.loads(out)
    assert report["verdict"] == "non-member"
    assert report["kernel"]["verdict"] == "zero-found"


def test_membership_witness_input(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"rotation": [1.0, 0.0], "zeros": []}))
    code, out = run(capsys, "membership", "--input", str(path),
                    "--theta-samples", "128", "--radial-samples", "24")
    assert code == 0
    assert json.loads(out)["verdict"] == "member"


def test_membership_zero_of_f_over_z_inside_the_innermost_ring(tmp_path, capsys):
    # f/z = 1 + 1000 z vanishes at z = -0.001, inside the default grid's
    # innermost ring, where no sample of z f'/f - 1 lies outside sinh(D)
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"coeffs": [[0, 0], [1, 0], [1000, 0]]}))
    code, out = run(capsys, "membership", "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert (report["geometric"]["verdict"], report["verdict"]) == ("non-member", "non-member")
    assert report["geometric"]["outside_count"] == 0


def test_membership_invalid_function_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"coeffs": [[0.1, 0.0], [1.0, 0.0]]}))
    code, _ = run(capsys, "membership", "--input", str(path))
    assert code == 2


def _lone_coefficient(k, i):
    """Coefficient pairs of z + a_k z^k, a_k = m e^(0.3i) with m = 1e306 * 150^(i/14)."""
    a = 1e306 * 150 ** (i / 14) * cmath.exp(0.3j)
    return [[0, 0], [1, 0]] + [[0, 0]] * (k - 2) + [[a.real, a.imag]]


# the first overflow stops the run: in matmul it is the sufficient test's
# weighted sum, in multiply the kernel scan's beta (f' - f/z); k = 3, i = 8
# is the largest modulus of its power that still runs
@pytest.mark.parametrize("coeffs, failure", [
    ([[0, 0], [1, 0], [1e308, 0]], "matmul"),
    (_lone_coefficient(2, 14), "matmul"),
    (_lone_coefficient(3, 11), "multiply"),
    (_lone_coefficient(5, 9), "multiply"),
    (_lone_coefficient(3, 8), None),
], ids=["a2=1e308", "k2-i14", "k3-i11", "k5-i9", "k3-i8"])
def test_membership_overflowing_input_exits_2(coeffs, failure, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"coeffs": coeffs}))
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["membership", "--input", str(path), "--output", str(out)])
    err = capsys.readouterr().err
    if failure is None:
        assert (code, err) == (0, "")
        assert out.exists()
    else:
        assert (code, err) == (2, f"invariant violation: overflow encountered in {failure}\n")
        assert not out.exists()


NAN = float("nan")


@pytest.mark.parametrize("command", ["coeffs", "membership"])
@pytest.mark.parametrize("obj, rule", [
    ({"rotation": [NAN, 0.0], "zeros": []}, "rotation must be unimodular"),
    ({"rotation": [1.0, 0.0], "zeros": [[0.25, 0.0], [0.0, NAN]]},
     "Blaschke zeros must have modulus < 1"),
    ({"weights": [0.5, NAN], "nodes": [[0.5, 0.0], [-0.5, 0.0]]},
     "weights must be finite"),
    ({"weights": [0.5, 0.5], "nodes": [[0.5, 0.0], [NAN, 0.0]]},
     "nodes must be finite"),
    ({"coeffs": [[0, 0], [1, 0], [0.25, NAN]]}, "series coefficients must be finite"),
], ids=["schwarz-rotation", "schwarz-zero", "herglotz-weight", "herglotz-node", "coeffs"])
def test_nan_in_an_input_file_exits_2_and_writes_nothing(command, obj, rule, tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    code = cli.main([command, "--input", str(path), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"invariant violation: {path}: {rule}")
    assert not out.exists()


@pytest.mark.parametrize("command", [["coeffs"], ["membership"],
                                     ["plot-data", "--curve", "ratio-image"]],
                         ids=["coeffs", "membership", "plot-data"])
@pytest.mark.parametrize("obj, rule", [
    ({"coeffs": [[0, 0], [1, 0], ["0.1", 0]]}, "coeffs[2][0] must be a JSON number, got str"),
    ({"coeffs": [[0, 0], [True, False], [0.1, 0]]}, "coeffs[1][0] must be a JSON number, got bool"),
    ({"coeffs": "[[0, 0], [1, 0]]"}, "coeffs must be a JSON array, got str"),
    ({"rotation": ["1", 0], "zeros": []}, "rotation[0] must be a JSON number, got str"),
    ({"rotation": [1, 0], "zeros": [[0.25, False]]}, "zeros[0][1] must be a JSON number, got bool"),
    ({"rotation": [1, 0], "zeros": ["00"]}, "zeros[0] must be a JSON array, got str"),
    ({"weights": "1", "nodes": [[0.5, 0]]}, "weights must be a JSON array, got str"),
    ({"weights": [True], "nodes": [[0.5, 0]]}, "weights[0] must be a JSON number, got bool"),
    ({"weights": [1], "nodes": [["0.5", 0]]}, "nodes[0][0] must be a JSON number, got str"),
], ids=["coeffs-str", "coeffs-bool", "coeffs-array-str", "schwarz-rotation-str",
        "schwarz-zero-bool", "schwarz-zero-str", "herglotz-weights-str", "herglotz-weight-bool",
        "herglotz-node-str"])
def test_a_string_or_bool_for_a_number_in_an_input_file_exits_2_and_writes_nothing(
        command, obj, rule, tmp_path, capsys):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    code = cli.main([*command, "--input", str(path), "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"invariant violation: {path}: {rule}\n"
    assert not out.exists()


def test_an_integer_too_large_for_a_float_in_an_input_file_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"coeffs": [[0, 0], [1, 0], [1' + "0" * 400 + ", 0]]}")
    assert cli.main(["coeffs", "--input", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"invariant violation: {path}: coeffs[2] holds an int too large for a float\n")


@pytest.mark.parametrize("command", [["coeffs"], ["membership"],
                                     ["plot-data", "--curve", "ratio-image"]],
                         ids=["coeffs", "membership", "plot-data"])
@pytest.mark.parametrize("text", ["[1, 2]", "5", "null", "true", '"coeffs"'])
def test_an_input_file_that_is_not_an_object_exits_1_and_writes_nothing(command, text,
                                                                        tmp_path, capsys):
    path = tmp_path / "value.json"
    path.write_text(text)
    out = tmp_path / "out.json"
    code = cli.main([*command, "--input", str(path), "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {path}: expected a function, Schwarz or Herglotz JSON object\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [["coeffs"], ["membership"],
                                     ["plot-data", "--curve", "ratio-image"]],
                         ids=["coeffs", "membership", "plot-data"])
@pytest.mark.parametrize("obj, kinds", [
    ({"rotation": [1, 0], "zeros": [], "weights": "x"},
     "Schwarz (rotation, zeros), Herglotz (weights)"),
    ({"coeffs": [[0, 0], [1, 0], [0.1, 0]], "rotation": 5},
     "function (coeffs), Schwarz (rotation)"),
    ({"coeffs": [[0, 0], [1, 0]], "nodes": []}, "function (coeffs), Herglotz (nodes)"),
], ids=["schwarz-herglotz", "function-schwarz", "function-herglotz-field"])
def test_an_input_file_with_the_fields_of_two_kinds_exits_2_and_writes_nothing(
        command, obj, kinds, tmp_path, capsys):
    # each of these files used to be read as its first kind, the rest unchecked
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    code = cli.main([*command, "--input", str(path), "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"invariant violation: {path}: holds the fields of more than one kind of file: {kinds}\n")
    assert not out.exists()


#: A valid file of each field that holds [re, im] pairs, with ``p`` as its first pair.
_WITH_PAIR = {"coeffs[2]": lambda p: {"coeffs": [[0, 0], [1, 0], p]},
              "rotation": lambda p: {"rotation": p, "zeros": []},
              "zeros[0]": lambda p: {"rotation": [1, 0], "zeros": [p]},
              "nodes[0]": lambda p: {"weights": [1.0], "nodes": [p]}}


@pytest.mark.parametrize("command", [["coeffs"], ["membership"],
                                     ["plot-data", "--curve", "ratio-image"]],
                         ids=["coeffs", "membership", "plot-data"])
@pytest.mark.parametrize("obj, rule", [
    pytest.param({"zeros": []}, "a Schwarz file holds rotation and zeros; this one has no rotation",
                 id="no-rotation"),
    pytest.param({"rotation": [1, 0]},
                 "a Schwarz file holds rotation and zeros; this one has no zeros", id="no-zeros"),
    pytest.param({"nodes": [[0.5, 0]]},
                 "a Herglotz file holds weights and nodes; this one has no weights",
                 id="no-weights"),
    pytest.param({"weights": [1.0]},
                 "a Herglotz file holds weights and nodes; this one has no nodes", id="no-nodes"),
    *(pytest.param(file(p), f"{name} must be an [re, im] pair of two numbers, got {len(p)}",
                   id=f"{name}-pair-of-{len(p)}")
      for name, file in _WITH_PAIR.items() for p in ([], [0.5], [0.3, 0, 7])),
])
def test_an_input_file_missing_a_field_or_with_a_bad_pair_exits_2_and_names_it(
        command, obj, rule, tmp_path, capsys):
    # any field marks a kind: {"zeros": []} used to exit 1 as no kind at all,
    # and {"rotation": [1, 0]} to exit 2 with the bare KeyError text 'zeros';
    # a pair's third number used to be dropped, and a lone one to raise IndexError
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    code = cli.main([*command, "--input", str(path), "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"invariant violation: {path}: {rule}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, rule", [
    ("--radial-samples 1000000000000",
     "theta-samples x radial-samples must be at most 1048576, got 512 x 1000000000000"),
    ("--theta-samples 8192 --radial-samples 129",
     "theta-samples x radial-samples must be at most 1048576, got 8192 x 129"),
    ("--theta-samples 20000", "theta-samples must lie in [64, 8192], got 20000"),
])
def test_membership_grid_above_the_limits_exits_2(flags, rule, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["membership", "--input", write_koebe(tmp_path), "--output", str(out),
                     *flags.split()])
    assert code == 2
    assert capsys.readouterr().err == f"invariant violation: {rule}\n"
    assert not out.exists()


def test_membership_grid_at_the_limits_is_accepted(capsys):
    # the limits are checked before the input is read, so a missing file shows
    # that 8192 x 128 passes them without running the scan
    code = cli.main(["membership", "--input", "/nonexistent.json",
                     "--theta-samples", "8192", "--radial-samples", "128"])
    assert code == 1
    assert capsys.readouterr().err == "error: input file not found: /nonexistent.json\n"


@pytest.mark.parametrize("argv, rule", [
    ("bounds-scan --samples 1000001", "samples must lie in [1, 1000000], got 1000001"),
    ("lemma-suite --samples 1000001", "samples must lie in [1, 1000000], got 1000001"),
    ("plot-data --curve sinh-boundary --resolution 1048577",
     "resolution must lie in [64, 1048576], got 1048577"),
    ("verify-implications --cases 100001", "cases must lie in [1, 100000], got 100001"),
    ("verify-implications --max-attempts 100001",
     "max-attempts must lie in [1, 100000], got 100001"),
])
def test_budget_above_the_limit_exits_2(argv, rule, tmp_path, capsys):
    out = tmp_path / "out.txt"
    code = cli.main([*argv.split(), "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"invariant violation: {rule}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, dest, limit", [
    ("bounds-scan --samples", "samples", cli.MAX_SAMPLES),
    ("lemma-suite --samples", "samples", cli.MAX_SAMPLES),
    ("plot-data --curve sinh-boundary --resolution", "resolution", cli.MAX_GRID_POINTS),
    ("verify-implications --cases", "cases", cli.MAX_HARNESS_BUDGET),
    ("verify-implications --max-attempts", "max_attempts", cli.MAX_HARNESS_BUDGET),
])
def test_budget_at_the_limit_parses(argv, dest, limit):
    # parsed only: a job at the limit would run for a long time
    args = cli.build_parser().parse_args([*argv.split(), str(limit)])
    assert getattr(args, dest) == limit


def test_membership_missing_file_exits_1(capsys):
    code, _ = run(capsys, "membership", "--input", "/nonexistent.json")
    assert code == 1


def _directory_input(tmp_path):
    return ["membership", "--input", str(tmp_path)]


def _non_utf8_input(tmp_path):
    path = tmp_path / "w.json"
    path.write_bytes(b'{"rotation": "\xff\xfe"}')
    return ["coeffs", "--input", str(path)]


def _unwritable_output(tmp_path):
    return ["growth", "--radii", "0.5", "--output", str(tmp_path / "missing" / "x.json")]


@pytest.mark.parametrize("argv_for, message", [
    (_directory_input, "error: cannot read "),
    (_non_utf8_input, "error: cannot parse "),
    (_unwritable_output, "error: cannot write "),
], ids=["directory-input", "non-utf8-input", "unwritable-output"])
def test_unusable_path_exits_1(argv_for, message, tmp_path, capsys):
    assert cli.main(argv_for(tmp_path)) == 1
    assert capsys.readouterr().err.startswith(message)


# -- thresholds ------------------------------------------------------------------


def test_thresholds_single_pair(capsys):
    code, out = run(capsys, "thresholds", "--A", "1", "--B", "0")
    assert code == 0
    rows = json.loads(out)["thresholds"]
    expected = 1.0 / (1 + math.cos(1) - math.sin(1))
    by_kind = {r["kind"]: r["threshold"] for r in rows}
    assert by_kind[1] == pytest.approx(expected, abs=1e-12)
    assert by_kind[2] == pytest.approx(expected * (1 + math.sinh(1)), abs=1e-12)


def test_thresholds_undefined_marked(capsys):
    code, out = run(capsys, "thresholds", "--A", "1", "--B", "-1")
    assert code == 0
    rows = json.loads(out)["thresholds"]
    assert next(r for r in rows if r["kind"] == 1)["threshold"] is None


def test_thresholds_default_grid(capsys):
    code, out = run(capsys, "thresholds")
    assert code == 0
    assert len(json.loads(out)["thresholds"]) == 16


# -- growth ------------------------------------------------------------------------


def test_growth_table(capsys):
    # at 5e-324 the quadrature cross-check of Shi meets nodes that underflow to t = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(capsys, "growth", "--radii", "5e-324,1e-300,1e-8,0.5,0.999999")
    assert code == 0
    obj = json.loads(out)
    assert obj["covering_radius"] == pytest.approx(0.3474095709321509, abs=1e-10)
    assert [row["r"] for row in obj["rows"]] == [5e-324, 1e-300, 1e-8, 0.5, 0.999999]
    assert obj["rows"][0]["upper"] == 5e-324
    assert obj["rows"][3]["upper"] == pytest.approx(0.8301487057042349, abs=1e-10)


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_growth_computes_the_covering_radius_once(fmt, monkeypatch, capsys):
    # 4 default radii take two sine integrals each, and the covering radius one
    # for the whole run; recomputing it for every row gives the same bytes
    calls = []
    shi_checked = core._shi_checked
    monkeypatch.setattr(core, "_shi_checked", lambda x: calls.append(x) or shi_checked(x))
    core.covering_radius.cache_clear()
    code, out = run(capsys, "growth", "--format", fmt)
    assert code == 0 and len(calls) == 9
    calls.clear()
    monkeypatch.setattr(core, "covering_radius", core.covering_radius.__wrapped__)
    assert run(capsys, "growth", "--format", fmt) == (0, out)
    assert len(calls) == 13


def test_growth_bad_radius_exits_2(capsys):
    code, _ = run(capsys, "growth", "--radii", "1.5")
    assert code == 2


# -- tables ---------------------------------------------------------------------------


def _cell(value) -> str:
    """A table cell as the JSON value reads: the repr of a float, the str of anything else."""
    return repr(value) if isinstance(value, float) else str(value)


#: Each table command on one small configuration: its argv (KOEBE stands for a
#: Koebe function file), its markdown preamble, its header, and the rows that its
#: decoded JSON record implies.
TABLE_COMMANDS = {
    "coeffs": (["coeffs", "--witness", "z^3", "--order", "8"], "coefficient table",
               ["n", "re", "im", "abs"],
               lambda o: [[c["n"], c["re"], c["im"], c["abs"]] for c in o["coeffs"]]),
    "membership": (["membership", "--input", "KOEBE", "--theta-samples", "64",
                    "--radial-samples", "4"], "membership report",
                   ["test", "verdict", "statistic"],
                   lambda o: [[test, o[test]["verdict"], o[test][key]]
                              for test, key in (("sufficient", "statistic"),
                                                ("kernel", "min_modulus"),
                                                ("geometric", "max_excursion"))]
                   + [["combined", o["verdict"], ""]]),
    "bounds-scan": (["bounds-scan", "--samples", "50", "--coefficients", "2,3",
                     "--fs-lambdas", "0.5"], "claimed vs empirical bounds",
                    ["functional", "claimed", "empirical", "ratio", "violation"],
                    lambda o: [[e["functional"], e["claimed_bound"], e["empirical_max"],
                                e["attained_ratio"], e["violation"]] for e in o["estimates"]]),
    "thresholds": (["thresholds"],
                   "alpha thresholds (undefined when the denominator is not positive)",
                   ["kind", "A", "B", "threshold", "b_form_differs"],
                   lambda o: [[r["kind"], r["A"], r["B"],
                               "undefined" if r["threshold"] is None else r["threshold"],
                               r["b_form_differs"]] for r in o["thresholds"]]),
    "growth": (["growth", "--radii", "0.25,0.5"],
               "growth envelope (covering radius 0.3474095709321509)",
               ["r", "lower", "upper", "deriv_bound"],
               lambda o: [[r["r"], r["lower"], r["upper"], r["deriv_bound"]] for r in o["rows"]]),
    "lemma-suite": (["lemma-suite", "--samples", "100", "--seed", "1"],
                    "coefficient-inequality suite", ["check", "count"],
                    lambda o: [*sorted(o["checks"].items()), ["violations", len(o["violations"])],
                               ["quartic_condition_hits", o["quartic_condition_hits"]],
                               ["degenerate_witnesses", o["degenerate_witnesses"]]]),
    "verify-implications": (["verify-implications", "--cases", "2", "--max-attempts", "5",
                             "--seed", "3"], "implication harness",
                            ["kind", "A", "B", "threshold", "attempts", "non_vacuous",
                             "counterexamples", "premise_feasible"],
                            lambda o: [[s["kind"], s["A"], s["B"], s["threshold"], s["attempts"],
                                        s["non_vacuous"], s["counterexamples"],
                                        s["premise_feasible"]] for s in o["summaries"]]),
}


@pytest.mark.parametrize("name", list(TABLE_COMMANDS))
def test_csv_and_markdown_rows_carry_the_values_of_the_json_record(name, tmp_path, capsys):
    argv, preamble, header, rows_of = TABLE_COMMANDS[name]
    argv = [write_koebe(tmp_path) if a == "KOEBE" else a for a in argv]
    code, js = run(capsys, *argv)
    expected = [[_cell(v) for v in row] for row in rows_of(json.loads(js))]
    assert expected
    csv_code, csv = run(capsys, *argv, "--format", "csv")
    md_code, md = run(capsys, *argv, "--format", "markdown")
    assert code == csv_code == md_code
    assert [line.split(",") for line in csv.splitlines()] == [header, *expected]
    table = [header, ["---"] * len(header), *expected]
    assert md.splitlines() == [preamble, "", *("| " + " | ".join(r) + " |" for r in table)]


# -- suite and harness ----------------------------------------------------------------


def test_lemma_suite_clean_run(capsys):
    code, out = run(capsys, "lemma-suite", "--samples", "400", "--seed", "5")
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []
    assert report["checks"]["modulus"] == 400


def test_verify_implications_exit_reflects_counterexamples(capsys):
    # the scanned alpha leaves genuine counterexamples for one configuration,
    # which is an assertion-class failure by contract
    code, out = run(capsys, "verify-implications", "--cases", "8",
                    "--max-attempts", "60", "--seed", "3")
    report = json.loads(out)
    assert (code == 3) == (report["counterexamples"] > 0)
    assert len(report["summaries"]) == 7


def test_verify_implications_include_cases(capsys):
    argv = ["verify-implications", "--cases", "2", "--max-attempts", "5"]
    code, out = run(capsys, *argv, "--include-cases")
    plain_code, plain = run(capsys, *argv)
    report = json.loads(out)
    assert code == plain_code
    assert len(report["cases"]) == sum(s["attempts"] for s in report["summaries"])
    for record in report["cases"]:
        assert record["premise_holds"] == (record["deviation"] < 1.0 - sub.PREMISE_MARGIN)
    assert {r["premise_holds"] for r in report["cases"]} == {False, True}
    assert report["summaries"] == json.loads(plain)["summaries"]


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("factor", ["0.5", "1.05", "1e7"])
def test_verify_implications_summary_does_not_depend_on_kept_cases(seed, factor, capsys):
    # without --include-cases the harness skips the records, the conclusions of
    # vacuous attempts and step 24's deviation; the summaries must not change
    argv = ["verify-implications", "--seed", str(seed), "--alpha-factor", factor]
    code, out = run(capsys, *argv, "--include-cases")
    plain_code, plain = run(capsys, *argv)
    report, summary = json.loads(out), json.loads(plain)
    assert code == plain_code == (3 if summary["counterexamples"] else 0)
    assert report.pop("cases") and report == summary


def test_sampled_candidate_tails_stay_far_below_the_overflow_scale():
    # run_config skips the conclusion margins of vacuous attempts, where
    # g - 1 = 2^-24 (f/z - 1); that drops no exception only while max|f/z - 1|
    # stays far below the |w| of about 1e154 at which w * w overflows
    z = sub.HARNESS_GRID.points()
    largest = max(float(np.max(np.abs(NormalizedFunction(harness_candidate_row(
        np.random.default_rng((seed, kind, i)))).over_z_values(z) - 1.0)))
        for seed in range(25) for kind in range(1, 5) for i in range(100))
    assert 0.5 < largest < 2.0


def test_verify_implications_overflowing_alpha_exits_2(tmp_path, capsys):
    # 1e308 passes the flag's finiteness check, but 1e308 times a threshold is inf
    out = tmp_path / "harness.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["verify-implications", "--alpha-factor", "1e308", "--cases", "1",
                         "--max-attempts", "1", "--output", str(out)])
    assert code == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


def test_verify_implications_overflowing_operator_exits_2(tmp_path, capsys):
    # every alpha = 1e307 times a threshold is finite, but the operator values overflow
    out = tmp_path / "harness.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["verify-implications", "--alpha-factor", "1e307", "--cases", "1",
                         "--max-attempts", "1", "--output", str(out)])
    assert code == 2
    assert "invariant violation: overflow" in capsys.readouterr().err
    assert not out.exists()


def test_verify_implications_default_job_at_1e307_exits_2_with_the_replayed_overflow(
        tmp_path, capsys):
    # the kind-2 (1, 0) block's batch of uncertified steps records an overflow, and the
    # one-at-a-time replay raises it at the candidate and step where it happens
    out = tmp_path / "harness.json"
    code = cli.main(["verify-implications", "--alpha-factor", "1e307", "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "invariant violation: overflow encountered in multiply\n"
    assert not out.exists()


# -- plot data ----------------------------------------------------------------------


def parse_curve(text):
    lines = text.strip().splitlines()
    assert lines[0] == "t,re,im"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    return rows


def test_plot_sinh_boundary(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, _ = run(capsys, "plot-data", "--curve", "sinh-boundary",
                  "--resolution", "256", "--output", str(out_path))
    assert code == 0
    rows = parse_curve(out_path.read_text())
    assert len(rows) == 257
    assert rows[0][1] == pytest.approx(math.sinh(1.0), abs=1e-12)
    assert rows[0][2] == pytest.approx(0.0, abs=1e-12)
    # curve closes
    assert math.hypot(rows[0][1] - rows[-1][1], rows[0][2] - rows[-1][2]) < 1e-9
    quarter = rows[64]
    assert quarter[1] == pytest.approx(0.0, abs=1e-12)
    assert quarter[2] == pytest.approx(math.sin(1.0), abs=1e-12)


def test_plot_janowski(capsys):
    code, out = run(capsys, "plot-data", "--curve", "janowski",
                    "--resolution", "64", "--A", "1", "--B", "0")
    assert code == 0
    rows = parse_curve(out)
    assert rows[0][1] == pytest.approx(2.0)
    assert rows[0][2] == pytest.approx(0.0)


def test_plot_ratio_image(tmp_path, capsys):
    code, out = run(capsys, "plot-data", "--curve", "ratio-image",
                    "--input", write_koebe(tmp_path), "--radius", "0.5",
                    "--resolution", "64")
    assert code == 0
    rows = parse_curve(out)
    # truncated half-plane kernel value at z = 0.5 is close to 3
    assert rows[0][1] == pytest.approx(3.0, abs=1e-4)


def test_plot_ratio_image_pole_on_circle_exits_2(tmp_path, capsys):
    # f(z)/z = 1 - z/0.9 vanishes at z = 0.9, the first point of the circle
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"coeffs": [[0, 0], [1, 0], [-1.1111111111111112, 0]]}))
    out = tmp_path / "curve.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["plot-data", "--curve", "ratio-image", "--radius", "0.9",
                         "--resolution", "64", "--input", str(path), "--output", str(out)])
    assert code == 2
    assert "invariant violation" in capsys.readouterr().err
    assert not out.exists()


def test_plot_resolution_floor(capsys):
    code, _ = run(capsys, "plot-data", "--curve", "sinh-boundary",
                  "--resolution", "32")
    assert code == 2


# -- determinism -----------------------------------------------------------------------


def test_bounds_scan_byte_identical(tmp_path, capsys):
    args = ["bounds-scan", "--samples", "150", "--seed", "4",
            "--coefficients", "2,3", "--fs-lambdas", "1"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_bounds_scan_order_changes_only_its_config_record(capsys):
    # every scan builds its members at its functional's read order, so
    # --order only bounds --coefficients and is recorded in config
    outs = {}
    for order in ("8", "32", "128"):
        code, out = run(capsys, "bounds-scan", "--samples", "100", "--seed", "5",
                        "--coefficients", "2,3,4,5,6,7,8", "--order", order)
        assert code == 0
        outs[order] = json.loads(out)
    assert [obj["config"]["order"] for obj in outs.values()] == [8, 32, 128]
    estimates = {json.dumps(obj["estimates"]) for obj in outs.values()}
    assert len(estimates) == 1


@pytest.mark.parametrize("flag, values", [
    ("--coefficients", "2,2"),
    ("--coefficients", "3,2,3"),
    ("--fs-lambdas", "1,1"),
    ("--fs-lambdas", "0,-0"),
])
def test_bounds_scan_rejects_a_repeated_value(tmp_path, capsys, flag, values):
    # a repeated index or lambda would scan it twice and write two equal rows
    out = tmp_path / "scan.json"
    code = cli.main(["bounds-scan", "--samples", "10", flag, values, "--output", str(out)])
    assert code == 2
    assert "must not repeat" in capsys.readouterr().err
    assert not out.exists()


def test_lemma_suite_byte_identical(capsys):
    args = ["lemma-suite", "--samples", "300", "--seed", "12", "--format", "csv"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    assert cli.main(["unknown-command"]) == 1
    assert cli.main(["coeffs", "--order", "4"]) == 2
    assert cli.main(["membership", "--input", "x.json", "--max-radius", "1.5"]) == 2


# -- one parser per process ------------------------------------------------------------


def test_import_and_the_benchmark_set_up_build_no_parser():
    # the parser is built by the first main call, not at import or by the lazy
    # state a benchmark set-up primes
    code = ("from gshlab import cli, core, regions\n"
            "regions.sinh_region(); regions.sqrt_disk_region(); core.covering_radius()\n"
            "print(cli.build_parser.cache_info().currsize)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "0\n"


def test_main_with_one_parser_matches_a_new_parser_per_call(tmp_path, capsys):
    koebe = write_koebe(tmp_path)
    job = ["membership", "--input", koebe, "--theta-samples", "64", "--radial-samples", "8"]

    def run_sequence(name, fresh):
        out = tmp_path / name
        out.mkdir()
        seen = []
        for argv in (["unknown-command"], [*job, "--output", str(out / "first.json")],
                     [*job, "--samples", "3"], [*job, "--max-radius", "1.5"],
                     [*job, "--output", str(out / "again.json")]):
            if fresh:
                cli.build_parser.cache_clear()
            seen.append((cli.main(argv), capsys.readouterr()))
        return seen, [(p.name, p.read_bytes()) for p in sorted(out.iterdir())]

    cli.build_parser.cache_clear()
    one = run_sequence("one", fresh=False)
    assert cli.build_parser.cache_info().misses == 1
    assert one == run_sequence("new", fresh=True)
    assert [code for code, _ in one[0]] == [1, 0, 1, 2, 0]
    assert one[1][0][1] == one[1][1][1]


# -- the settable surface ----------------------------------------------------------------

#: Exactly the flags each subcommand reads.
FLAGS = {
    "coeffs": {"--order", "--format", "--output", "--witness", "--input"},
    "membership": {"--order", "--format", "--output", "--input", "--theta-samples",
                   "--radial-samples", "--max-radius"},
    "bounds-scan": {"--order", "--format", "--output", "--samples", "--seed", "--tolerance",
                    "--coefficients", "--fs-lambdas"},
    "thresholds": {"--format", "--output", "--A", "--B"},
    "growth": {"--format", "--output", "--radii"},
    "lemma-suite": {"--format", "--output", "--samples", "--seed"},
    "verify-implications": {"--format", "--output", "--seed", "--alpha-factor", "--cases",
                            "--max-attempts", "--include-cases"},
    "plot-data": {"--order", "--output", "--curve", "--resolution", "--input", "--radius",
                  "--A", "--B"},
}


def test_each_subcommand_declares_exactly_the_flags_it_reads():
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {name: {o for a in sub._actions if a.dest != "help" for o in a.option_strings}
                for name, sub in subs.choices.items()}
    assert declared == FLAGS
    assert sum(map(len, declared.values())) == 46


@pytest.mark.parametrize("argv", [
    "coeffs --order 4 --witness zero",
    "coeffs --order 129 --witness zero",
    "coeffs --witness z^0",
    "membership --input x.json --theta-samples 63",
    "membership --input x.json --radial-samples 0",
    "membership --input x.json --max-radius 0",
    "membership --input x.json --max-radius 1",
    "bounds-scan --samples 0",
    "bounds-scan --seed -1",
    "bounds-scan --tolerance 0",
    "bounds-scan --tolerance nan",
    "bounds-scan --coefficients 1",
    "bounds-scan --coefficients 2,40",
    "bounds-scan --coefficients 9 --order 8",
    "bounds-scan --fs-lambdas nan",
    "bounds-scan --fs-lambdas 1,inf",
    "bounds-scan --fs-lambdas 1e308",
    "thresholds --A 0 --B 1",
    "growth --radii 0.5,1.5",
    "growth --radii nan",
    "lemma-suite --samples 0",
    "lemma-suite --seed -1",
    "verify-implications --seed -1",
    "verify-implications --alpha-factor 0",
    "verify-implications --alpha-factor inf",
    "verify-implications --cases 0",
    "verify-implications --max-attempts 0",
    "plot-data --curve sinh-boundary --resolution 63",
    "plot-data --curve ratio-image --input x.json --radius 1",
    "plot-data --curve janowski --A 0.5 --B 0.5",
    "plot-data --curve janowski --A 1 --B -1",
    "plot-data --curve ratio-image --input x.json --order 4",
])
def test_out_of_range_value_exits_2(argv, capsys):
    assert cli.main(argv.split()) == 2
    assert "invariant violation" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "coeffs --witness identity --seed 3",
    "membership --input x.json --samples 3",
    "bounds-scan --theta-samples 64",
    "bounds-scan --max-radius 0.3",
    "thresholds --order 4",
    "growth --max-radius 1.5",
    "lemma-suite --order 7",
    "lemma-suite --tolerance 1e-3",
    "verify-implications --samples 5",
    "verify-implications --tolerance 1e-3",
    "plot-data --curve sinh-boundary --format json",
    "plot-data --curve sinh-boundary --seed 1",
])
def test_removed_flag_exits_1(argv, capsys):
    assert cli.main(argv.split()) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "coeffs --witness w.json",
    "coeffs --witness z^x",
    "coeffs --witness z^-1",
    "bounds-scan --coefficients 2,,3",
    "bounds-scan --samples ten",
    "growth --radii a",
])
def test_unparsable_value_exits_1(argv, capsys):
    assert cli.main(argv.split()) == 1
    assert "error: argument" in capsys.readouterr().err


# -- a reader that closes stdout early ------------------------------------------------


def _cli_process(argv, stdout):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.Popen([sys.executable, "-m", "gshlab.cli", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=env)


def test_reader_closing_stdout_after_the_first_line_exits_1():
    # about 5.7 MB of output, far past a pipe's buffer, so the writer is still
    # writing when the reader goes; no traceback, also not at interpreter shutdown
    proc = _cli_process(["plot-data", "--curve", "sinh-boundary", "--resolution", "100000"],
                        subprocess.PIPE)
    assert proc.stdout.readline() == b"t,re,im\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b"error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_stdout_closed_before_the_first_write_exits_1():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process(["thresholds", "--format", "markdown"], write_end)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b"error: cannot write stdout: [Errno 32] Broken pipe\n"
