"""Spans at the module boundaries of gshlab, recorded from outside the package.

``Tracer.install`` wraps the public callables of each layer module: the
module-level functions it defines and the public methods of the classes it
defines.  Other ``gshlab`` modules see the wrappers: a name bound at import
(``from .core import member_from_witness``) is rebound, and a module alias
(``from . import series as ts``) is pointed at a copy of the module whose
functions are the wrappers.  The defining module keeps its own functions,
so intra-module calls such as ``series.mul`` inside ``compose`` cost nothing
and stay in the caller's self time.  Methods live on the class, so a method
call opens a span only when it comes from another layer.  The names in
``STAGES`` are the exception: they always open a span, because the
per-layer split reports them although they are called from inside their
own module.

Code a layer passes as a callback (a polish objective, a chunk function)
runs without a span of its own and counts as self time of the layer that
calls it, except that the chunk functions handed to
``_parallel.map_index_chunks`` are given a span of the caller's layer.

A ``CurveRegion.classify`` span counts the points it was given and the
points it hands on to ``CurveRegion.winding``: the ones its annulus
prefilter could not decide.

Spans are kept in memory; ``layer_split`` reduces them to per-layer numbers.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import threading
import time
import types

LAYERS = ("cli", "bounds", "refine", "core", "series", "caratheodory", "regions",
          "subordination", "_parallel")

STAGES = frozenset({
    "cli.main",  # the root span of a job
    "bounds.witness_batch",
    "core.sufficient_membership",
    "core.kernel_nonvanishing",
    "core.geometric_membership",
    "subordination.operator_values",
    "regions.CurveRegion.classify",
})


CLASSIFY = "regions.CurveRegion.classify"
WINDING = "regions.CurveRegion.winding"


class Span:
    __slots__ = ("name", "layer", "parent", "t0", "t1", "points", "band", "workers")

    def __init__(self, name: str, layer: str, parent: "Span | None"):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.points = 0
        self.band = 0
        self.workers = 0


def _point_count(args, kwargs) -> int:
    """Size of the ``points`` argument of a CurveRegion method called as ``(self, points, ...)``."""
    import numpy as np

    return int(np.size(args[1] if len(args) > 1 else kwargs["points"]))


class Tracer:
    """Records spans while installed; ``remove`` restores every binding."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        stage = full in STAGES
        classify = full == CLASSIFY
        winding = full == WINDING
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            if not stage and parent is not None and parent.layer == layer:
                if winding and parent.name == CLASSIFY:
                    parent.band += _point_count(args, kwargs)
                return fn(*args, **kwargs)
            span = Span(full, layer, parent)
            if classify:
                span.points = _point_count(args, kwargs)
            stack.append(span)
            span.t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
                spans.append(span)

        return traced

    def _wrap_map(self, fn, worker_count):
        """map_index_chunks: a span for the map, and one per chunk in the caller's layer."""
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(chunk_fn, *args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            span = Span("_parallel.map_index_chunks", "_parallel", parent)
            workers = kwargs.get("workers", args[1] if len(args) > 1 else None)
            span.workers = worker_count() if workers is None else workers
            chunk_layer = parent.layer if parent is not None else "_parallel"

            def chunk(indices):
                chunk_stack = stack_of()
                cs = Span(f"{chunk_layer}.chunk", chunk_layer, span)
                chunk_stack.append(cs)
                cs.t0 = clock()
                try:
                    return chunk_fn(indices)
                finally:
                    cs.t1 = clock()
                    chunk_stack.pop()
                    spans.append(cs)

            stack.append(span)
            span.t0 = clock()
            try:
                return fn(chunk, *args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
                spans.append(span)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import gshlab

        modules = {layer: importlib.import_module(f"gshlab.{layer}") for layer in LAYERS}
        wrapped = {}
        proxies = {}
        for layer, mod in modules.items():
            proxy = types.ModuleType(mod.__name__, mod.__doc__)
            proxy.__dict__.update(vars(mod))
            proxies[mod] = proxy
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if name == "map_index_chunks":
                        wrapper = self._wrap_map(obj, mod.worker_count)
                    else:
                        wrapper = self._wrap(layer, name, obj)
                    wrapped[obj] = proxy.__dict__[name] = wrapper
                    if f"{layer}.{name}" in STAGES:
                        self._set(mod, name, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    for attr, val in list(vars(obj).items()):
                        if inspect.isfunction(val) and not attr.startswith("_"):
                            self._set(obj, attr, self._wrap(layer, f"{name}.{attr}", val))
        for mod in [gshlab, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.ismodule(obj) and obj in proxies and mod is not gshlab:
                    self._set(mod, name, proxies[obj])
                elif (inspect.isfunction(obj) and obj in wrapped
                      and obj.__module__ != mod.__name__):
                    self._set(mod, name, wrapped[obj])

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- reduction ------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def layer_split(spans: list[Span]) -> dict:
    """Per-layer totals over a list of spans.

    Returns, per layer: ``self`` (span time not covered by child spans),
    ``busy`` (time of spans entered from another layer), ``calls`` (their
    count); per span name: ``time`` (inclusive) and ``count``; plus the
    members built under the polish, the points classified (and how many
    fell in the annulus band), and the thread-pool totals: chunk busy time
    and capacity, the map wall time times the pool's worker count.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.t0, s.t1))
    out = {"self": {}, "busy": {}, "calls": {}, "time": {}, "count": {},
           "polish_members": 0, "points": 0, "band": 0, "chunk_busy": 0.0, "pool_capacity": 0.0,
           "chunks": 0}
    chunks_of: dict[int, list[Span]] = {}
    for s in spans:
        dur = s.t1 - s.t0
        own = dur - _covered(children.get(id(s), []))
        out["self"][s.layer] = out["self"].get(s.layer, 0.0) + own
        if s.parent is None or s.parent.layer != s.layer:
            out["busy"][s.layer] = out["busy"].get(s.layer, 0.0) + dur
            out["calls"][s.layer] = out["calls"].get(s.layer, 0) + 1
        out["time"][s.name] = out["time"].get(s.name, 0.0) + dur
        out["count"][s.name] = out["count"].get(s.name, 0) + 1
        if (s.name == "core.member_from_witness" and s.parent is not None
                and s.parent.name == "refine.polish_coordinatewise"):
            out["polish_members"] += 1
        out["points"] += s.points
        out["band"] += s.band
        if s.name.endswith(".chunk"):
            chunks_of.setdefault(id(s.parent), []).append(s)
    for s in spans:
        if s.name == "_parallel.map_index_chunks":
            parts = chunks_of.get(id(s), [])
            out["chunks"] += len(parts)
            out["chunk_busy"] += sum(c.t1 - c.t0 for c in parts)
            out["pool_capacity"] += s.workers * (s.t1 - s.t0)
    return out
