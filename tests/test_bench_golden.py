"""Every benchmark pool job of all three workloads against its recorded output.

The benchmark's correctness gate (``bench/jobs.py``) would reject output
drift in these jobs; running all 16 scan jobs, all 48 membership jobs and
all 40 implications jobs here makes the same drift fail the test suite too.
The test only reads the files under ``bench/``.
"""

import importlib.util
from pathlib import Path

import pytest

from gshlab import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_jobs():
    spec = importlib.util.spec_from_file_location("bench_jobs", BENCH / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


JOBS = _load_jobs()

#: Input kind of a membership key, by the key modulo 4; the Koebe-type keys
#: are non-members whose kernel scan finds a zero and whose outside samples
#: are measured.
MEMBERSHIP_KEY_KINDS = {0: "schwarz", 1: "herglotz", 2: "polynomial", 3: "koebe"}


@pytest.mark.parametrize("workload, key", [(workload, key)
                                           for workload in ("scan", "membership", "implications")
                                           for key in JOBS.pool_keys(workload)])
def test_pool_job_matches_golden(tmp_path, workload, key):
    if workload == "membership":
        kinds = JOBS.MEMBERSHIP_KINDS
        assert kinds[key % len(kinds)] == MEMBERSHIP_KEY_KINDS[key % 4]
    JOBS.write_inputs(workload, [key], tmp_path)
    argv = JOBS.argv_for(workload, key, tmp_path)
    code = cli.main(argv)
    golden = JOBS.load_golden(workload)[key]
    assert JOBS.check_job(workload, code, JOBS.output_path(argv), golden) is None
