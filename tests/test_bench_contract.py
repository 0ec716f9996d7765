"""What the benchmark under ``bench/`` uses of the program still exists.

``bench/run.py``, ``bench/tracer.py`` and ``bench/probes.py`` reach into
``gshlab`` by name: the run record's helpers, the traced stages, every
public callable the tracer wraps and the series and member calls the layer
probes time.  A rename or a change of the series API under ``src/`` would
otherwise break only ``bench/run.py --trace 1``.  The test only reads the
files under ``bench/``.
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
PROBES = _load("probes")


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


def _one_call(fn, batches=5):
    fn()
    return 0.0


def test_layer_probes_run(monkeypatch):
    # one call per probe in place of timed batches
    monkeypatch.setattr(PROBES, "_per_call_us", _one_call)
    probes = PROBES.run_probes()
    names = {f"{name}.n{n}" for n in PROBES.ORDERS
             for name in ("series.exp_us", "series.sinh_us", "series.div_us", "core.member_us")}
    assert set(probes) == names | {"regions.classify_us_per_point"}
