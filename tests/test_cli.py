import argparse
import json
import math

import numpy as np
import pytest

from gshlab import cli
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


def test_coeffs_requires_source(capsys):
    code, _ = run(capsys, "coeffs")
    assert code == 1


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


def test_membership_invalid_function_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"coeffs": [[0.1, 0.0], [1.0, 0.0]]}))
    code, _ = run(capsys, "membership", "--input", str(path))
    assert code == 2


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
    code, out = run(capsys, "growth", "--radii", "0.5")
    assert code == 0
    obj = json.loads(out)
    assert obj["covering_radius"] == pytest.approx(0.3474095709321509, abs=1e-10)
    assert obj["rows"][0]["upper"] == pytest.approx(0.8301487057042349, abs=1e-10)


def test_growth_bad_radius_exits_2(capsys):
    code, _ = run(capsys, "growth", "--radii", "1.5")
    assert code == 2


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


def test_lemma_suite_byte_identical(capsys):
    args = ["lemma-suite", "--samples", "300", "--seed", "12", "--format", "csv"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    assert cli.main(["unknown-command"]) == 1
    assert cli.main(["coeffs", "--order", "4"]) == 2
    assert cli.main(["membership", "--input", "x.json", "--max-radius", "1.5"]) == 2


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
