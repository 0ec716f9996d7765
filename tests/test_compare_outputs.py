"""``tools/compare_outputs.py``'s report of how two JSON outputs differ, on planted pairs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


json_drift = _load_tool().json_drift

REPORT = {"summaries": [{"kind": 2, "attempts": 25, "premise_feasible": True,
                         "floor_deviation": 1.4953}],
          "cases": [{"deviation": 0.25, "vacuous": False, "name": "z",
                     "function": {"coeffs": [[0.0, 0.0], [1.0, 0.0], [0.125, -0.5]]}}],
          "note": None}


def text(report) -> bytes:
    return json.dumps(report).encode()


def test_equal_json_has_no_difference_and_no_drift():
    assert json_drift(text(REPORT), text(json.loads(text(REPORT)))) == (None, 0.0, "$")


def test_numbers_only_pair_reports_the_largest_relative_drift_and_its_path():
    moved = json.loads(text(REPORT))
    moved["cases"][0]["function"]["coeffs"][2][1] = -0.5 * (1.0 + 2.0 ** -45)
    moved["cases"][0]["deviation"] = 0.25 * (1.0 + 2.0 ** -50)
    first, worst, path = json_drift(text(REPORT), text(moved))
    assert first is None
    assert worst == pytest.approx(2.0 ** -45, rel=1e-6)
    assert path == "$.cases[0].function.coeffs[2][1]"


def test_a_flipped_boolean_is_a_difference_and_no_drift():
    flipped = json.loads(text(REPORT))
    flipped["cases"][0]["vacuous"] = True
    assert json_drift(text(REPORT), text(flipped)) == ("$.cases[0].vacuous", 0.0, "$")


def test_the_first_difference_is_in_document_order_beside_a_number_drift():
    changed = json.loads(text(REPORT))
    changed["summaries"][0]["floor_deviation"] = math.inf
    changed["summaries"][0]["premise_feasible"] = False
    changed["cases"][0]["name"] = "z + z^2"
    changed["note"] = 0
    first, worst, path = json_drift(text(REPORT), text(changed))
    assert (first, worst, path) == ("$.summaries[0].premise_feasible", math.inf,
                                    "$.summaries[0].floor_deviation")


@pytest.mark.parametrize("old, new, path", [(b'{"a": [1, 2]}', b'{"a": [1, 2, 3]}', "$.a"),
                                            (b'{"a": 1, "b": 2}', b'{"b": 2, "a": 1}', "$"),
                                            (b'{"a": [1]}', b'{"a": {"0": 1}}', "$.a"),
                                            (b'{"a": 1}', b'{"a": "1"}', "$.a")])
def test_a_changed_structure_is_a_difference(old, new, path):
    assert json_drift(old, new) == (path, 0.0, "$")


def test_output_that_is_not_json_gets_no_report():
    assert json_drift(b"kind,attempts\n2,25\n", b"kind,attempts\n2,26\n") is None
    assert json_drift(text(REPORT), b"") is None
