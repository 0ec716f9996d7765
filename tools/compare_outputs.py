"""Compare the command-line outputs of two source trees, byte for byte.

    python3 tools/compare_outputs.py PARENT CHANGE

Runs one list of ``gsh-lab`` commands (``commands``) in each tree, each
command in its own ``python -m gshlab.cli`` process with that tree's ``src``
on ``PYTHONPATH``, ``WORKERS`` commands at a time, and prints every command
whose exit code, or whose sha256 of stdout or of stderr, differs between the
trees.  When both stdouts of such a command are JSON, it also prints whether
their strings, booleans and structure are equal, and the largest relative
drift of their numbers with its field path (``json_drift``).  The
``membership`` and ``ratio-image`` inputs are the 48 pool files of the
benchmark, written once by CHANGE's ``bench/jobs.py`` and read by both
trees.  Exits 0 when every command matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FORMATS = ("json", "csv", "markdown")
WORKERS = 2


def commands(inputs: list[Path]) -> list[list[str]]:
    """The command list: every command that a byte-identical change must leave unchanged."""
    out = [["coeffs", "--witness", "z^2", "--format", fmt] for fmt in FORMATS]
    out += [["membership", "--input", str(path), "--format", fmt]
            for path in inputs for fmt in ("json", "csv")]
    out += [["bounds-scan", "--samples", "200", "--seed", str(seed)] for seed in range(10)]
    out += [["thresholds"], ["thresholds", "--A", "0.5", "--B", "-0.5"], ["growth"]]
    out += [["lemma-suite", "--samples", "300", "--seed", str(seed), "--format", fmt]
            for seed in range(5) for fmt in FORMATS]
    out += [["verify-implications", "--seed", str(seed), *extra]
            for seed in range(10) for extra in ([], ["--include-cases"])]
    # kept records where no shrink step is certified (1e7), where most are (0.5), where
    # blocks end on the premise-true and attempt budgets, and an overflow that exits 2
    out += [["verify-implications", "--seed", str(seed), "--include-cases", *extra]
            for extra in (["--alpha-factor", "1e7"], ["--alpha-factor", "0.5"],
                          ["--cases", "3", "--max-attempts", "7"]) for seed in range(3)]
    out.append(["verify-implications", "--alpha-factor", "1e307"])
    # seeds of two and three entropy words, whose per-sample streams mix more words
    for seed in (2 ** 32 + 1, 2 ** 64 + 3):
        out += [["bounds-scan", "--samples", "50", "--seed", str(seed)],
                ["lemma-suite", "--samples", "50", "--seed", str(seed)],
                ["verify-implications", "--seed", str(seed)],
                ["verify-implications", "--seed", str(seed), "--include-cases"]]
    out += [["plot-data", "--curve", "sinh-boundary"], ["plot-data", "--curve", "janowski"],
            ["plot-data", "--curve", "ratio-image", "--input", str(inputs[0])]]
    # the table formats of the other commands, one configuration each
    out += [[*argv, "--format", fmt] for fmt in ("csv", "markdown")
            for argv in (["bounds-scan", "--samples", "200"], ["thresholds"], ["growth"],
                         ["verify-implications"])]
    out.append(["membership", "--input", str(inputs[0]), "--format", "markdown"])
    return out


def write_inputs(tree: Path, workdir: Path) -> list[Path]:
    """The membership pool inputs of ``tree``'s benchmark, written to ``workdir``."""
    spec = importlib.util.spec_from_file_location("pool_jobs", tree / "bench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    keys = jobs.pool_keys("membership")
    jobs.write_inputs("membership", keys, workdir)
    return [jobs.input_path(key, workdir) for key in keys]


def run(tree: Path, argv: list[str], workdir: Path) -> tuple[tuple[int, str, str], bytes]:
    """Exit code and the sha256 of stdout and of stderr of one command in ``tree``, and
    its stdout."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    done = subprocess.run([sys.executable, "-m", "gshlab.cli", *argv], cwd=workdir, env=env,
                          capture_output=True, timeout=600)
    return (done.returncode, hashlib.sha256(done.stdout).hexdigest(),
            hashlib.sha256(done.stderr).hexdigest()), done.stdout


def json_drift(old: bytes, new: bytes) -> tuple[str | None, float, str] | None:
    """How two JSON texts differ: the field path of their first difference in a string,
    a boolean, a null or the structure (None when there is none), and the largest
    relative drift |a - b|/max(|a|, |b|) of their numbers with its field path.  Numbers
    that are equal, NaN included, drift 0; unequal numbers of which one is not finite
    drift inf.  None unless both texts parse as JSON."""
    try:
        pair = json.loads(old), json.loads(new)
    except ValueError:
        return None
    first, worst, worst_path = None, 0.0, "$"
    todo = [("$", *pair)]
    while todo:
        path, a, b = todo.pop()
        if _is_number(a) and _is_number(b):
            if a != b and not (math.isnan(a) and math.isnan(b)):
                drift = (abs(a - b) / max(abs(a), abs(b))
                         if math.isfinite(a) and math.isfinite(b) else math.inf)
                if drift > worst:
                    worst, worst_path = drift, path
        elif isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
            todo += [(f"{path}.{key}", a[key], b[key]) for key in reversed(list(a))]
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            todo += [(f"{path}[{i}]", x, y) for i, (x, y) in reversed(list(enumerate(zip(a, b))))]
        elif first is None and (isinstance(a, (dict, list)) or (type(a), a) != (type(b), b)):
            first = path  # dicts and lists get here only with other keys or lengths
    return first, worst, worst_path


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(parent: Path, change: Path, argv: list[str], workdir: Path):
    """Both trees' exit codes and sha256 triples of one command, and the ``json_drift``
    of its stdouts when they differ."""
    (old, old_out), (new, new_out) = run(parent, argv, workdir), run(change, argv, workdir)
    return old, new, json_drift(old_out, new_out) if old_out != new_out else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        todo = commands(write_inputs(args.change, workdir))
        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(lambda a: compare(args.parent, args.change, a, workdir),
                                    todo))
    differ = 0
    for command, (old, new, drift) in zip(todo, results):
        if old != new:
            differ += 1
            fields = [name for name, a, b in zip(("exit", "stdout", "stderr"), old, new)
                      if a != b]
            print(f"DIFFERS ({', '.join(fields)}; exit {old[0]} -> {new[0]}): "
                  f"gsh-lab {' '.join(command)}")
        if drift is not None:
            first, worst, path = drift
            same = "equal" if first is None else f"differ first at {first}"
            print(f"  JSON strings, booleans and structure {same}; "
                  f"largest relative drift {worst:.3g} at {path}")
    codes = Counter(new[0] for _, new, _ in results)
    tally = ", ".join(f"{count} exit {code}" for code, count in sorted(codes.items()))
    print(f"{len(todo)} commands ({tally} in CHANGE), {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
