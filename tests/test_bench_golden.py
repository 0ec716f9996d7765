"""Benchmark pool jobs of all three workloads against their recorded outputs.

The benchmark's correctness gate (``bench/jobs.py``) would reject output
drift in these jobs; running three scan jobs, all 48 membership jobs and two
implications jobs here makes the same drift fail the test suite too.  The
test only reads the files under ``bench/``.
"""

import importlib.util
from pathlib import Path

import pytest

from gshlab import bounds, cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def jobs():
    spec = importlib.util.spec_from_file_location("bench_jobs", BENCH / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Input kind of a membership key, by the key modulo 4; the Koebe-type keys
#: are non-members whose kernel scan finds a zero and whose outside samples
#: are measured.
MEMBERSHIP_KEY_KINDS = {0: "schwarz", 1: "herglotz", 2: "polynomial", 3: "koebe"}


@pytest.mark.parametrize("workload, key", [("scan", 1), ("scan", 8), ("scan", 16),
                                           *[("membership", k) for k in range(48)],
                                           ("implications", 1), ("implications", 40)])
def test_pool_job_matches_golden(jobs, tmp_path, workload, key):
    if workload == "membership":
        kinds = jobs.MEMBERSHIP_KINDS
        assert kinds[key % len(kinds)] == MEMBERSHIP_KEY_KINDS[key % 4]
    jobs.write_inputs(workload, [key], tmp_path)
    argv = jobs.argv_for(workload, key, tmp_path)
    bounds._BATCH_CACHE.clear()
    code = cli.main(argv)
    golden = jobs.load_golden(workload)[key]
    assert jobs.check_job(workload, code, jobs.output_path(argv), golden) is None
