"""Benchmark pool jobs of all three workloads against their recorded outputs.

The benchmark's correctness gate (``bench/jobs.py``) would reject output
drift in these jobs; running six of them here makes the same drift fail
the test suite too.  The test only reads the files under ``bench/``.
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


@pytest.mark.parametrize("workload, key", [("scan", 1), ("scan", 8), ("scan", 16),
                                           ("membership", 0), ("implications", 1),
                                           ("implications", 40)])
def test_pool_job_matches_golden(jobs, tmp_path, workload, key):
    if workload == "membership":
        assert jobs.MEMBERSHIP_KINDS[key % len(jobs.MEMBERSHIP_KINDS)] == "schwarz"
    jobs.write_inputs(workload, [key], tmp_path)
    argv = jobs.argv_for(workload, key, tmp_path)
    bounds._BATCH_CACHE.clear()
    code = cli.main(argv)
    golden = jobs.load_golden(workload)[key]
    assert jobs.check_job(workload, code, jobs.output_path(argv), golden) is None
