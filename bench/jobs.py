"""Workload definitions: job pools, input files, job order and the correctness gate.

Every workload draws its jobs from a fixed pool whose expected outputs are
recorded in ``golden/<workload>.json`` (written by ``make_golden.py`` from the
program as it stood when the benchmark was defined).  The workload seed
chooses which pool entries a run uses and in what order; the program itself
only ever sees argv and the input files written here.

The pool of a workload is split into strata of entries with similar recorded
cost.  A run is a sequence of passes, and each pass takes one entry from
every stratum, so every pass has the same cost mix whichever entries the
seed picked.  The number of passes is fixed before the run starts, from the
run's time budget and the recorded costs (``pass_count``), so the jobs a run
measures never depend on how fast the program runs.
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import time
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Relative tolerance on every reported number (ROADMAP aim 1).
REL_TOL = 1e-12
#: Numbers this small are round-off; they are compared absolutely.
ABS_TOL = 1e-15

#: Random witnesses per ``bounds-scan`` job.  With the default battery at the
#: default order 32 the golden-section polish builds about 3.2k members per
#: job; 600 random witnesses give the witness batch a real share beside it
#: while keeping a job near 18 s.
SCAN_SAMPLES = 600

#: Entries per stratum for each workload.  The pool size is a multiple; the
#: pool size over the stratum size is the number of jobs in a pass.
STRATUM_SIZE = {"scan": 16, "membership": 6, "implications": 10}
POOL_SIZE = {"scan": 16, "membership": 48, "implications": 40}

MEMBERSHIP_KINDS = ("schwarz", "herglotz", "polynomial", "koebe")


def pool_keys(workload: str) -> list[int]:
    """Pool entry keys: per-job seeds for scan and implications, file indices for membership."""
    if workload == "membership":
        return list(range(POOL_SIZE[workload]))
    return list(range(1, POOL_SIZE[workload] + 1))


def argv_for(workload: str, key: int, workdir: Path) -> list[str]:
    """The argv of the job for one pool entry; its artifact goes to ``workdir``."""
    out = str(workdir / f"{workload}-{key}.json")
    if workload == "scan":
        return ["bounds-scan", "--seed", str(key), "--samples", str(SCAN_SAMPLES),
                "--output", out]
    if workload == "membership":
        return ["membership", "--input", str(input_path(key, workdir)), "--output", out]
    if workload == "implications":
        return ["verify-implications", "--seed", str(key), "--output", out]
    raise ValueError(f"unknown workload {workload!r}")


def cpu_seconds() -> float:
    """CPU time of this process's threads and of its reaped child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def output_path(argv: list[str]) -> Path:
    return Path(argv[argv.index("--output") + 1])


# -- membership inputs ---------------------------------------------------------


def input_path(key: int, workdir: Path) -> Path:
    return workdir / f"input-{key}.json"


def _pairs(values) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in values]


def membership_input(key: int) -> dict:
    """Input file of one membership pool entry, made with numpy alone.

    The kinds cycle through Schwarz witnesses, Herglotz samples, random
    low-degree polynomials and rotated, scaled Koebe functions
    z/(1 - t e^(i phi) z)^2 with t in [0.38, 0.5].  The last are non-members
    whose log-derivative images cross the annulus between the inscribed and
    circumscribed disks of sinh(D), where containment needs the polygon.
    """
    import numpy as np

    rng = np.random.default_rng((20201110, key))
    kind = MEMBERSHIP_KINDS[key % len(MEMBERSHIP_KINDS)]
    if kind == "schwarz":
        rotation = np.exp(2j * np.pi * rng.random())
        count = int(rng.integers(0, 5))
        zeros = 0.75 * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))
        return {"rotation": [float(rotation.real), float(rotation.imag)],
                "zeros": _pairs(zeros)}
    if kind == "herglotz":
        atoms = int(rng.integers(1, 7))
        weights = rng.dirichlet(np.ones(atoms))
        radii = 1.0 if rng.random() < 0.3 else np.sqrt(rng.random(atoms))
        nodes = radii * np.exp(2j * np.pi * rng.random(atoms))
        return {"weights": [float(w) for w in weights], "nodes": _pairs(nodes)}
    if kind == "polynomial":
        degree = int(rng.integers(2, 7))
        coeffs = np.zeros(degree + 1, dtype=complex)
        coeffs[1] = 1.0
        coeffs[2:] = ((rng.normal(0.0, 0.15, degree - 1) + 1j * rng.normal(0.0, 0.15, degree - 1))
                      / np.arange(2, degree + 1))
        return {"coeffs": _pairs(coeffs)}
    t = rng.uniform(0.38, 0.5) * np.exp(2j * np.pi * rng.random())
    n = np.arange(33)
    coeffs = np.where(n > 0, n * t ** np.maximum(n - 1, 0), 0.0)
    return {"coeffs": _pairs(coeffs)}


def write_inputs(workload: str, keys, workdir: Path) -> None:
    if workload != "membership":
        return
    for key in keys:
        input_path(key, workdir).write_text(json.dumps(membership_input(key)))


# -- job order -------------------------------------------------------------------


def load_golden(workload: str) -> dict:
    """Golden entries of a workload, keyed by pool key."""
    obj = json.loads((GOLDEN_DIR / f"{workload}.json").read_text())
    return {int(e["key"]): e for e in obj["entries"]}


def strata(workload: str, golden: dict) -> list[list[int]]:
    """Pool keys grouped by recorded cost, cheapest stratum first."""
    keys = sorted(golden, key=lambda k: (golden[k]["cost_s"], k))
    size = STRATUM_SIZE[workload]
    return [keys[i : i + size] for i in range(0, len(keys), size)]


def pass_count(workload: str, golden: dict, seconds: float) -> int:
    """Passes whose recorded CPU cost comes closest to ``seconds``; at least one.

    A run never takes a pool entry twice, so the count is at most the
    stratum size.
    """
    groups = strata(workload, golden)
    pass_cost = sum(statistics.fmean(golden[k]["cost_s"] for k in g) for g in groups)
    return max(1, min(round(seconds / pass_cost), min(len(g) for g in groups)))


def passes(workload: str, seed: int, golden: dict, count: int) -> list[list[int]]:
    """``count`` passes of pool keys, one key per stratum in each pass.

    Within a stratum the seed fixes a permutation, so ``count`` passes take
    ``count`` distinct keys of each stratum; the seed also shuffles the job
    order inside each pass.
    """
    rng = random.Random(f"{workload}:{seed}")
    perms = [rng.sample(keys, len(keys)) for keys in strata(workload, golden)]
    if count > min(len(perm) for perm in perms):
        raise ValueError(f"{count} passes would repeat a pool entry")
    out = []
    for p in range(count):
        one_pass = [perm[p] for perm in perms]
        rng.shuffle(one_pass)
        out.append(one_pass)
    return out


# -- correctness gate ----------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def same_result(got, want, path: str = "") -> str | None:
    """First difference between two decoded JSON artifacts, or None.

    Strings, booleans and structure must match exactly; numbers within
    REL_TOL relative (ABS_TOL absolute for round-off-sized values).
    """
    if isinstance(want, bool) or isinstance(got, bool) or want is None or isinstance(want, str):
        return None if got == want and type(got) is type(want) else f"{path}: {got!r} != {want!r}"
    if isinstance(want, (int, float)):
        if not isinstance(got, (int, float)) or not _close(float(got), float(want)):
            return f"{path}: {got!r} != {want!r}"
        return None
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            shown = sorted(got) if isinstance(got, dict) else got
            return f"{path}: keys {shown!r} != {sorted(want)}"
        for k in want:
            diff = same_result(got[k], want[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = same_result(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return f"{path}: unexpected value {want!r}"


def _scan_difference(got: dict, want: dict) -> str | None:
    """Scan rule: a maximum may rise (then its witness and ratio may change) but never fall."""
    diff = same_result(got.get("config"), want["config"], "config")
    if diff:
        return diff
    g_est, w_est = got.get("estimates"), want["estimates"]
    if not isinstance(g_est, list) or len(g_est) != len(w_est):
        return "estimates: count differs"
    for i, (g, w) in enumerate(zip(g_est, w_est)):
        path = f"estimates[{i}]"
        if not isinstance(g, dict) or not isinstance(g.get("empirical_max"), (int, float)):
            return f"{path}: malformed estimate"
        if _close(g["empirical_max"], w["empirical_max"]):
            diff = same_result(g, w, path)
        elif g["empirical_max"] < w["empirical_max"]:
            diff = (f"{path}: empirical maximum fell from {w['empirical_max']!r}"
                    f" to {g['empirical_max']!r}")
        else:
            diff = None
            for k in ("functional", "claimed_bound", "violation"):
                diff = diff or same_result(g.get(k), w[k], f"{path}.{k}")
        if diff:
            return diff
    return None


def check_job(workload: str, exit_code: int, artifact: Path, golden_entry: dict) -> str | None:
    """Why a job's result is wrong, or None when it passes the gate."""
    if exit_code != golden_entry["exit"]:
        return f"exit code {exit_code} != {golden_entry['exit']}"
    try:
        got = json.loads(artifact.read_text())
    except (OSError, ValueError) as exc:
        return f"artifact unreadable: {exc}"
    if workload == "scan":
        return _scan_difference(got, golden_entry["output"])
    return same_result(got, golden_entry["output"])
