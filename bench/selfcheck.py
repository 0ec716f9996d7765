"""Self-check of the benchmark: short runs of every workload, traced and untraced.

    python3 bench/selfcheck.py

Run from the repository root.  Asserts that each run prints exactly the
metrics BENCHMARK.json names, with their units, that every job passes the
correctness gate, and that without the program's sources the benchmark
exits non-zero without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"self-check failed: {message}")


def check_result(done: subprocess.CompletedProcess, expected: dict, label: str) -> None:
    require(done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"{label}: result keys {sorted(result)}")
    require(result["correct"] is True and result["failed"] == 0,
            f"{label}: gate failed\n{done.stderr}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1,
            f"{label}: attempted {result['attempted']!r}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    require(got == expected, f"{label}: metrics differ: {set(got.items()) ^ set(expected.items())}")
    for name, m in result["metrics"].items():
        require(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
                f"{label}: {name} = {m['value']!r}")
    print(f"{label}: ok, {result['attempted']} jobs", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(run(ROOT, w["name"], trace), expected[trace], f"{w['name']} trace {trace}")

    bare = HERE / ".work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run(bare, spec["workloads"][0]["name"], 0)
        last = (done.stdout.strip().splitlines() or [""])[-1]
        require(done.returncode != 0 and '"correct"' not in last, "ran without the program")
        print("without sources: exits", done.returncode, flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
