"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public entry points of each ``repro`` layer from
outside the program: every wrapped call records one span (name, tag,
start, end, parent span, operation id) in a list kept in memory, and
the per-layer metrics are derived from those spans when the run ends.
A layer's *self* time is a span's duration minus the part of its
interval that child spans cover, so the self times of all spans
partition the traced wall time exactly, minus whatever ran outside any
span (reported as ``trace.unattributed_s``).

Spans are only recorded while :attr:`Tracer.active` is set; the
benchmark sets it around the timed segments of a workload, so result
checking between segments never shows up as layer time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Span record fields, by index (records are lists for low overhead).
NAME, TAG, START, END, PARENT, OP, VALUE = range(7)

#: Workloads and architectures the per-name metrics are broken out by
#: (the repo's Table-III and engine-registry order).
WORKLOADS = ("pr", "kcore", "bfs", "sssp", "kpp", "knn", "label", "gcn",
             "gmres", "cg", "bgs")
ARCHS = ("sparsepipe", "ideal", "oracle", "cpu", "gpu", "software_oei")

#: Every per-layer metric of a traced run, with its unit, in report
#: order. ``_s`` metrics are self seconds except the per-workload
#: ``workloads.profile_s.<name>``, which is the inclusive functional
#: characterization time of that workload (graphblas calls included).
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("matrices.load_s", "s"),
    ("matrices.loads", "count"),
    ("graphblas.matrix_s", "s"),
    ("graphblas.mxv_s", "s"),
    ("graphblas.mxv_calls", "count"),
    ("graphblas.vxm_s", "s"),
    ("graphblas.vxm_calls", "count"),
    ("workloads.profile_s", "s"),
    *((f"workloads.profile_s.{w}", "s") for w in WORKLOADS),
    ("workloads.profiles", "count"),
    ("workloads.iterations", "count"),
    ("preprocess.s", "s"),
    ("preprocess.reorder_s", "s"),
    ("preprocess.dual_s", "s"),
    ("preprocess.blocked_s", "s"),
    ("preprocess.calls", "count"),
    ("engine.run_s", "s"),
    ("engine.runs", "count"),
    *((f"engine.run_s.{a}", "s") for a in ARCHS),
    ("experiments.key_s", "s"),
    ("experiments.key_calls", "count"),
    ("experiments.record_s", "s"),
    ("experiments.self_s", "s"),
    ("scheduler.self_s", "s"),
    ("engine.cache.open_s", "s"),
    ("engine.cache.get_s", "s"),
    ("engine.cache.gets", "count"),
    ("engine.cache.hit_ratio", "ratio"),
    ("engine.cache.put_s", "s"),
    ("engine.cache.puts", "count"),
    ("engine.cache.store_mb", "MB"),
    ("obs.observed_run_s", "s"),
    ("obs.finalize_s", "s"),
    ("obs.write_s", "s"),
    ("obs.trace_events", "count"),
    ("obs.trace_mb", "MB"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)

#: Span name -> the self-time metric it feeds.
SELF_METRIC = {
    "matrices.load": "matrices.load_s",
    "graphblas.matrix": "graphblas.matrix_s",
    "graphblas.mxv": "graphblas.mxv_s",
    "graphblas.vxm": "graphblas.vxm_s",
    "workloads.profile": "workloads.profile_s",
    "preprocess": "preprocess.s",
    "preprocess.reorder": "preprocess.reorder_s",
    "preprocess.dual": "preprocess.dual_s",
    "preprocess.blocked": "preprocess.blocked_s",
    "engine.run": "engine.run_s",
    "experiments.key": "experiments.key_s",
    "experiments.record": "experiments.record_s",
    "experiments.context": "experiments.self_s",
    "scheduler.fanout": "scheduler.self_s",
    "engine.cache.open": "engine.cache.open_s",
    "engine.cache.get": "engine.cache.get_s",
    "engine.cache.put": "engine.cache.put_s",
    "obs.observed_run": "obs.observed_run_s",
    "obs.finalize": "obs.finalize_s",
    "obs.write": "obs.write_s",
}

#: Span name -> the call-count metric it feeds.
COUNT_METRIC = {
    "matrices.load": "matrices.loads",
    "graphblas.mxv": "graphblas.mxv_calls",
    "graphblas.vxm": "graphblas.vxm_calls",
    "preprocess": "preprocess.calls",
    "engine.run": "engine.runs",
    "experiments.key": "experiments.key_calls",
    "engine.cache.get": "engine.cache.gets",
    "engine.cache.put": "engine.cache.puts",
}

#: Share of the traced wall time the self times must cover.
COVERAGE_GATE = 0.95


class Tracer:
    """Span recorder; :meth:`wrap` makes the recording wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Spans are recorded only while this is set.
        self.active = False
        #: Operation id given to root spans (children inherit theirs).
        self.op: Optional[str] = None

    def wrap(
        self,
        fn: Callable,
        name,
        tag: Optional[Callable] = None,
        op: Optional[Callable] = None,
        value: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``name`` is a span name or ``(args, kwargs) -> name``; ``tag``
        and ``op`` map ``(args, kwargs)`` to the span's tag and
        operation id; ``value`` maps ``(args, result)`` to a number
        stored on the span (iterations, cache hit, bytes written).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            parent = stack[-1] if stack else -1
            inherited = spans[parent][OP] if parent >= 0 else tracer.op
            rec = [
                name(args, kwargs) if callable(name) else name,
                tag(args, kwargs) if tag else None,
                0.0, 0.0, parent,
                op(args, kwargs, inherited) if op else inherited,
                None,
            ]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = tracer.clock()
                stack.pop()
            if value is not None:
                rec[VALUE] = value(args, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document (called at exit)."""
        fields = ("name", "tag", "start", "end", "parent", "op", "value")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"fields": fields, "spans": self.spans}, separators=(",", ":")))


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the union of its children's
    intervals (clipped to the parent's own interval)."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(
            (max(spans[c][START], start), min(spans[c][END], end))
            for c in children.get(index, ())
        ):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(
    spans: Sequence[Sequence], traced_wall_s: float,
    store_mb: float = 0.0,
) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` for one traced run;
    ``trace.overhead_s`` stays 0 for the caller, which holds the
    untraced repetitions it is measured against."""
    out = {name: 0.0 for name, _unit in LAYER_METRICS}
    selfs = self_times(spans)
    hits = 0.0
    for index, span in enumerate(spans):
        name = span[NAME]
        if name in SELF_METRIC:
            out[SELF_METRIC[name]] += selfs[index]
        if name in COUNT_METRIC:
            out[COUNT_METRIC[name]] += 1
        if name == "engine.run" and span[TAG] in ARCHS:
            out[f"engine.run_s.{span[TAG]}"] += selfs[index]
        elif name == "engine.cache.get":
            hits += span[VALUE] or 0
        elif name == "obs.write":
            events, n_bytes = span[VALUE] or (0, 0)
            out["obs.trace_events"] += events
            out["obs.trace_mb"] += n_bytes / 1e6
        elif name == "workloads.profile" and not _inside(spans, index, name):
            # Outermost profile span only: an override calling the
            # base implementation must count once.
            out["workloads.profiles"] += 1
            out["workloads.iterations"] += span[VALUE] or 0
            if span[TAG] in WORKLOADS:
                out[f"workloads.profile_s.{span[TAG]}"] += (
                    span[END] - span[START])
    gets = out["engine.cache.gets"]
    out["engine.cache.hit_ratio"] = hits / gets if gets else 0.0
    out["engine.cache.store_mb"] = store_mb
    attributed = sum(selfs)
    out["trace.wall_s"] = traced_wall_s
    out["trace.coverage"] = attributed / traced_wall_s if traced_wall_s else 0.0
    out["trace.unattributed_s"] = traced_wall_s - attributed
    return out


def _inside(spans: Sequence[Sequence], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
class Installation:
    """The wrappers one :func:`install` put in place, for removal."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, new) -> None:
        """Replace ``owner.attr`` (module, class, or dict key)."""
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def everywhere(self, original, wrapper, modules: Iterable) -> None:
        """Rebind every module-level name bound to ``original`` — the
        names callers import (``from x import f`` copies the binding)."""
        for module in modules:
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def method(self, cls, attr: str, tracer: Tracer, name, **kw) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self.set(cls, attr, classmethod(tracer.wrap(raw.__func__, name, **kw)))
        else:
            self.set(cls, attr, tracer.wrap(raw, name, **kw))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()


def _point_op(args, kwargs, inherited):
    point = "/".join(str(a) for a in args[1:4])
    return f"{inherited}:{point}" if inherited else point


def _observed(args, kwargs) -> str:
    observers = kwargs.get("observers", args[5] if len(args) > 5 else None)
    return "obs.observed_run" if observers else "engine.run"


def _write_value(args, path):
    return (len(args[0].events), Path(path).stat().st_size)


def install(tracer: Tracer) -> Installation:
    """Wrap each layer's public entry points at the names their callers
    import. Call after the workload's ``repro`` modules are imported."""
    from repro.arch.config import SparsepipeConfig
    from repro.engine import registry
    from repro.engine.cache import ResultCache
    from repro.experiments.runner import ExperimentContext
    from repro.formats.blocked import BlockedDualStorage
    from repro.formats.dual import DualStorage
    from repro.graphblas import ops
    from repro.graphblas.matrix import Matrix
    from repro.matrices import suite
    from repro.obs import manifest, metrics
    from repro.obs.metrics import MetricsObserver
    from repro.obs.timeline import TimelineObserver
    from repro.preprocess import pipeline
    from repro.scheduler import base
    from repro.workloads.base import Workload
    from repro.workloads.registry import WORKLOADS as REGISTERED

    inst = Installation()
    modules = [m for m in list(sys.modules.values()) if m is not None]

    def everywhere(fn, name, **kw):
        inst.everywhere(fn, tracer.wrap(fn, name, **kw), modules)

    everywhere(suite.load_suite_matrix, "matrices.load")
    inst.method(Matrix, "__init__", tracer, "graphblas.matrix")
    everywhere(ops.mxv, "graphblas.mxv")
    everywhere(ops.vxm, "graphblas.vxm")

    profile_classes = {Workload} | {
        type(w) for w in REGISTERED.values() if "profile" in type(w).__dict__}
    for cls in profile_classes:
        inst.method(
            cls, "profile", tracer, "workloads.profile",
            tag=lambda a, k: a[0].name,
            value=lambda a, r: r.n_iterations,
        )

    everywhere(pipeline.preprocess, "preprocess")
    for key, fn in list(pipeline.REORDER_ALGORITHMS.items()):
        inst.set(pipeline.REORDER_ALGORITHMS, key,
                 tracer.wrap(fn, "preprocess.reorder"))
    inst.method(DualStorage, "from_coo", tracer, "preprocess.dual")
    inst.method(BlockedDualStorage, "from_coo", tracer, "preprocess.blocked")

    everywhere(registry.run_engine, _observed,
               tag=lambda a, k: a[0] if a else k.get("name"))
    inst.method(SparsepipeConfig, "cache_key", tracer, "experiments.key")
    everywhere(metrics.registry_from_result, "experiments.record")
    everywhere(manifest.build_manifest, "experiments.record")
    for attr in ("__post_init__", "simulate_many", "profile", "prepared",
                 "graphblas_matrix"):
        inst.method(ExperimentContext, attr, tracer, "experiments.context")
    inst.method(ExperimentContext, "simulate", tracer, "experiments.context",
                op=_point_op)
    everywhere(base.run_fanout, "scheduler.fanout")

    inst.method(ResultCache, "__init__", tracer, "engine.cache.open")
    inst.method(ResultCache, "get_entry", tracer, "engine.cache.get",
                value=lambda a, r: 0 if r is None else 1)
    inst.method(ResultCache, "put", tracer, "engine.cache.put")

    inst.method(MetricsObserver, "finalize", tracer, "obs.finalize")
    inst.method(TimelineObserver, "write", tracer, "obs.write",
                value=_write_value)
    return inst
