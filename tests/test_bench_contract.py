"""What the benchmark under ``bench/`` uses of the program still exists.

``bench/run.py`` and ``bench/tracer.py`` reach into ``gshlab`` by name: the
run record's helpers, the traced stages and every public callable the
tracer wraps.  A rename under ``src/`` would otherwise break only
``bench/run.py --trace 1``.  The test only reads the files under ``bench/``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import gshlab

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load("run")
TRACER = _load("tracer")


def test_run_record_helpers_run():
    RUN.forget_scan_batches()
    versions = RUN._versions()
    assert {"nproc", "python", "numpy", "scipy", "worker_count"} <= set(versions)


@pytest.mark.parametrize("stage", sorted(TRACER.STAGES))
def test_stage_resolves_to_a_function_of_its_module(stage):
    layer, *path = stage.split(".")
    assert layer in TRACER.LAYERS
    module = importlib.import_module(f"gshlab.{layer}")
    obj = module
    for part in path:
        obj = getattr(obj, part)
    assert inspect.isfunction(obj), stage
    assert obj.__module__ == module.__name__, stage


def _bindings():
    """Every function, class and module bound in gshlab and its layer modules, and
    every function on the classes those modules define, as {(owner, name): object}."""
    owners = [gshlab, *(importlib.import_module(f"gshlab.{layer}") for layer in TRACER.LAYERS)]
    out = {}
    for mod in owners:
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) or inspect.ismodule(obj) or inspect.isclass(obj):
                out[(mod.__name__, name)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, val in vars(obj).items():
                    if inspect.isfunction(val):
                        out[(obj.__qualname__, attr)] = val
    return out


def test_tracer_remove_restores_every_binding():
    before = _bindings()
    spans = TRACER.Tracer()
    spans.install()
    try:
        during = _bindings()
    finally:
        spans.remove()
    changed = {key for key, obj in during.items() if before.get(key) is not obj}
    for stage in TRACER.STAGES:
        layer, *path = stage.split(".")
        owner = f"gshlab.{layer}" if len(path) == 1 else path[0]
        assert (owner, path[-1]) in changed, stage
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
