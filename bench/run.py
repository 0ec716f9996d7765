"""gshlab benchmark: a closed loop of CLI jobs from one client, in-process.

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the repository root.  One client sends jobs one after another, each
job being one ``gshlab.cli.main(argv)`` call whose artifact is checked
against the recorded expected output (``jobs.check_job``).  Jobs come in
passes of one job per cost stratum (``jobs.passes``).  The number of passes
is the one whose recorded cost comes closest to ``--seconds``
(``jobs.pass_count``); it is fixed before the first job, so the measured
jobs depend on the seed alone.  Job times are reported as the median over
passes of the mean job time in a pass, which stays steady although one pass
mixes jobs of very different cost.

The end-to-end job metric is CPU time (``job_cpu_s``).  Wall time per job
(``job_s``) goes to the run record only: on a shared machine it also holds
the time other tenants take the processor, and between runs minutes apart
it spread more than any bound the benchmark may set.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every job
of the same plan twice, untraced and traced in alternating order, and
reports the per-layer split of the traced runs (``tracer.py``), the
fixed-input layer probes (``probes.py``) and the tracing overhead, which
compares the CPU time of the same jobs.

The last line of standard output is the result object; the line before it
is the run record (machine, versions, load, per-job outcome).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import probes  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("scan", "membership", "implications")

#: Set-ups per run: the run's own and this many in child processes.
SETUP_PROBES = 2


class SourceMissing(RuntimeError):
    pass


def setup(workload: str, workdir: Path, keys) -> float:
    """Cold import, the program's lazy state, and the input files; returns seconds."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        gshlab = importlib.import_module("gshlab")
    except ImportError as exc:
        raise SourceMissing(f"cannot import gshlab from {SRC}: {exc}") from exc
    if not Path(gshlab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SourceMissing(f"gshlab imported from {gshlab.__file__}, not from {SRC}")
    from gshlab import cli, core, regions  # noqa: F401

    regions.sinh_region()
    regions.sqrt_disk_region()
    core.covering_radius()
    jobs.write_inputs(workload, keys, workdir)
    return time.perf_counter() - start


def setup_in_child(workload: str, workdir: Path) -> float:
    workdir.mkdir(parents=True)
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                           "--workload", workload, "--workdir", str(workdir)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _versions() -> dict:
    import numpy
    import scipy

    from gshlab import _parallel

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "worker_count": _parallel.worker_count()}


def run_job(workload: str, key: int, golden: dict, workdir: Path, traced: bool) -> dict:
    """One ``cli.main`` call, timed, then checked by the correctness gate."""
    from gshlab import cli

    argv = jobs.argv_for(workload, key, workdir)
    cpu0 = jobs.cpu_seconds()
    t0 = time.perf_counter()
    try:
        code, error = cli.main(argv), None
    except Exception as exc:  # a crashing job is a failed job; keep the loop running
        code, error = None, f"raised {exc!r}"
    wall = time.perf_counter() - t0
    cpu = jobs.cpu_seconds() - cpu0
    error = error or jobs.check_job(workload, code, jobs.output_path(argv), golden[key])
    if error:
        print(f"job {workload}/{key} failed: {error}", file=sys.stderr)
    return {"key": key, "traced": traced, "wall_s": wall, "cpu_s": cpu, "exit": code,
            "error": error}


def forget_scan_batches() -> None:
    """Drop the witness batches that ``bounds`` caches per scan config (``_BATCH_CACHE``)."""
    from gshlab import bounds

    bounds._BATCH_CACHE.clear()


def run_plan(workload: str, plan: list[list[int]], golden: dict, workdir: Path,
             spans: tracer.Tracer | None) -> list[list[dict]]:
    """Run every pass of the plan, one job after another.

    With a tracer every job runs twice, untraced and traced, and which of the
    two goes first alternates from job to job.  The scan batch cache is
    emptied before each of the two, so both build the same members.
    """
    done = []
    traced_first = False
    for keys in plan:
        one = []
        for key in keys:
            if spans is None:
                one.append(run_job(workload, key, golden, workdir, False))
                continue
            for traced in (traced_first, not traced_first):
                forget_scan_batches()
                if traced:
                    spans.install()
                try:
                    one.append(run_job(workload, key, golden, workdir, traced))
                finally:
                    if traced:
                        spans.remove()
            traced_first = not traced_first
        done.append(one)
    return done


def pass_median(done: list[list[dict]], field: str, traced: bool = False) -> float:
    """Median over passes of the mean per-job ``field`` within a pass, over (un)traced runs."""
    return statistics.median(statistics.fmean(r[field] for r in one if r["traced"] == traced)
                             for one in done)


def tracing_overhead(results: list[dict]) -> float:
    """Extra CPU time of the traced runs over the untraced runs of the same jobs, as a share."""
    plain = sum(r["cpu_s"] for r in results if not r["traced"])
    return sum(r["cpu_s"] for r in results if r["traced"]) / plain - 1.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process.

    Not an end-to-end metric: with the default two workers the
    implications workload peaks at about 215 or 280 MB depending on how the
    threads' allocations happen to overlap, a spread no bound can hold.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(walls: list[float]) -> dict | None:
    """Highest percentile of job time with at least ten jobs beyond it."""
    n = len(walls)
    if n < 11:
        return None
    return {"value_s": sorted(walls)[n - 11], "percentile": 100.0 * (n - 10) / n, "jobs": n}


def premise_yield(results: list[dict], workdir: Path, workload: str) -> float:
    """Non-vacuous implication cases over attempts, from the jobs' artifacts."""
    attempts = non_vacuous = 0
    if workload == "implications":
        for r in results:
            if not r["error"]:
                path = jobs.output_path(jobs.argv_for(workload, r["key"], workdir))
                for s in json.loads(path.read_text())["summaries"]:
                    attempts += s["attempts"]
                    non_vacuous += s["non_vacuous"]
    return non_vacuous / attempts if attempts else 0.0


def layer_metrics(split: dict, traced_jobs: int, workers: int, overhead: float,
                  yield_share: float, probe_values: dict) -> dict:
    per_job = 1.0 / traced_jobs
    t, c = split["time"], split["count"]

    def self_s(layer):
        return split["self"].get(layer, 0.0) * per_job

    member_calls = c.get("core.member_from_witness", 0)
    m = {
        "cli.self_s": (self_s("cli"), "s"),
        "bounds.self_s": (self_s("bounds"), "s"),
        "bounds.witness_batch_s": (t.get("bounds.witness_batch", 0.0) * per_job, "s"),
        "bounds.polish_evals": (split["polish_members"] * per_job, "count"),
        "refine.polish_s": (t.get("refine.polish_coordinatewise", 0.0) * per_job, "s"),
        "refine.self_s": (self_s("refine"), "s"),
        "core.self_s": (self_s("core"), "s"),
        "core.member_calls": (member_calls * per_job, "count"),
        "core.member_us": (t.get("core.member_from_witness", 0.0) * 1e6 / member_calls
                           if member_calls else 0.0, "us"),
        "core.kernel_s": (t.get("core.kernel_nonvanishing", 0.0) * per_job, "s"),
        "core.geometric_s": (t.get("core.geometric_membership", 0.0) * per_job, "s"),
        "core.sufficient_s": (t.get("core.sufficient_membership", 0.0) * per_job, "s"),
        "series.self_s": (self_s("series"), "s"),
        "series.calls": (split["calls"].get("series", 0) * per_job, "count"),
        "series.busy_s": (split["busy"].get("series", 0.0) * per_job, "s"),
        "caratheodory.self_s": (self_s("caratheodory"), "s"),
        "caratheodory.sample_s": ((t.get("caratheodory.sample_schwarz", 0.0)
                                   + t.get("caratheodory.sample_herglotz", 0.0)) * per_job, "s"),
        "caratheodory.schwarz_series_s": (t.get("caratheodory.SchwarzSample.series", 0.0)
                                          * per_job, "s"),
        "regions.self_s": (self_s("regions"), "s"),
        "regions.calls": (split["calls"].get("regions", 0) * per_job, "count"),
        "regions.points": (split["points"] * per_job, "count"),
        "regions.band_share": (split["band"] / split["points"] if split["points"] else 0.0,
                               "share"),
        "regions.busy_s": (split["busy"].get("regions", 0.0) * per_job, "s"),
        "subordination.self_s": (self_s("subordination"), "s"),
        "subordination.operator_evals": (c.get("subordination.operator_values", 0) * per_job,
                                         "count"),
        "subordination.premise_yield": (yield_share, "share"),
        "parallel.self_s": (self_s("_parallel"), "s"),
        "parallel.workers": (workers, "count"),
        "parallel.chunks": (split["chunks"] * per_job, "count"),
        "parallel.efficiency": (split["chunk_busy"] / split["pool_capacity"]
                                if split["pool_capacity"] else 0.0, "share"),
        "trace.overhead_share": (overhead, "share"),
    }
    for name, value in probe_values.items():
        m[name] = (value, "us")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        print(repr(setup(args.workload, Path(args.workdir), jobs.pool_keys(args.workload))))
        return 0

    threads_env = os.environ.pop("GSH_LAB_THREADS", None)
    load_start = os.getloadavg()
    golden = jobs.load_golden(args.workload)
    plan = jobs.passes(args.workload, args.seed, golden,
                       jobs.pass_count(args.workload, golden, args.seconds))
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [setup(args.workload, workdir, jobs.pool_keys(args.workload))]
        setups += [setup_in_child(args.workload, workdir / f"setup-{k}")
                   for k in range(SETUP_PROBES)]
        spans = tracer.Tracer() if args.trace else None
        done = run_plan(args.workload, plan, golden, workdir, spans)
        results = [r for one in done for r in one]
        failed = sum(1 for r in results if r["error"])
        if args.trace:
            from gshlab import _parallel

            traced = [r for r in results if r["traced"]]
            metrics = layer_metrics(tracer.layer_split(spans.spans), len(traced),
                                    _parallel.worker_count(), tracing_overhead(results),
                                    premise_yield(traced, workdir, args.workload),
                                    probes.run_probes())
        else:
            metrics = {
                "job_cpu_s": (pass_median(done, "cpu_s"), "s"),
                "setup_s": (statistics.median(setups), "s"),
            }
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, **_versions(), "GSH_LAB_THREADS": threads_env,
                  "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
                  "setup_s": setups, "job_s": pass_median(done, "wall_s"),
                  "peak_rss_mb": peak_rss_mb(), "passes": len(done),
                  "jobs": len(results), "failed": failed, "failed_share": failed / len(results),
                  "job_s_tail": tail([r["wall_s"] for r in results if not r["traced"]]),
                  "job_log": done}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
