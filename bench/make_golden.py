"""Record the expected output of every pool entry of a workload.

Run from the repository root:

    python3 bench/make_golden.py scan membership implications

Each pool job runs once in-process, as the benchmark runs it; its exit code,
decoded artifact and CPU time (used to group entries of similar cost) go to
``bench/golden/<workload>.json``.  Only re-record after a change that is
meant to alter results, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
from gshlab import cli, core, regions  # noqa: E402


def record(workload: str) -> None:
    regions.sinh_region()
    regions.sqrt_disk_region()
    core.covering_radius()
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=HERE))
    try:
        keys = jobs.pool_keys(workload)
        jobs.write_inputs(workload, keys, workdir)
        entries = []
        for key in keys:
            argv = jobs.argv_for(workload, key, workdir)
            start = jobs.cpu_seconds()
            code = cli.main(argv)
            cost = jobs.cpu_seconds() - start
            output = json.loads(jobs.output_path(argv).read_text())
            entries.append({"key": key, "exit": code, "cost_s": round(cost, 3), "output": output})
            print(f"{workload} {key}: exit {code}, {cost:.2f} s", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir)
    jobs.GOLDEN_DIR.mkdir(exist_ok=True)
    (jobs.GOLDEN_DIR / f"{workload}.json").write_text(
        json.dumps({"workload": workload, "entries": entries}, sort_keys=True) + "\n")


if __name__ == "__main__":
    for name in sys.argv[1:]:
        record(name)
