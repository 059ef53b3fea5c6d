"""The four benchmark workloads, run through the public ``repro`` API.

Each job builds its context in the constructor (that is set-up time)
and does its fixed amount of work in :meth:`run`, as a sequence of
timed segments; results are checked between and after the segments,
outside the timed region. One operation is one sweep point or one
trace capture. The seed only shuffles the visit order of points,
configs and captures — never the set of work — so every operation
keeps its own digest.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.arch.config import CPU_DDR4, GPU_GDDR6X, SparsepipeConfig
from repro.engine.registry import run_engine
from repro.experiments.runner import ARCHITECTURES, ExperimentContext
from repro.matrices.suite import SUITE, suite_names
from repro.obs.manifest import Stopwatch, build_manifest
from repro.obs.metrics import MetricsObserver, registry_from_result
from repro.obs.timeline import TimelineObserver
from repro.testing import digest
from repro.workloads.registry import workload_names

import verify

#: Matrices of the design sweep and of the trace captures.
DESIGN_MATRICES = ("gy", "ad", "ro", "eu")
DESIGN_ARCHS = ("sparsepipe", "ideal")
CAPTURE_MATRICES = ("ad", "ro", "eu")
#: Warm passes per run: enough work that one run is seconds long.
WARM_PASSES = 30


def grid_points() -> List[Tuple[str, str, str]]:
    """The full 11 x 9 x 6 grid in (workload, matrix, arch) order."""
    return [(a, w, m) for w in workload_names() for m in suite_names()
            for a in ARCHITECTURES]


def design_variants() -> List[Tuple[str, SparsepipeConfig]]:
    """The 32 Fig 19-23 style config variants, labelled."""
    out = []
    for cols, memory, detailed, window in itertools.product(
            (32, 64, 128, 256), (GPU_GDDR6X, CPU_DDR4), (False, True),
            (0.5, 1.0)):
        label = f"sc{cols}-{memory.technology}-dd{int(detailed)}-cw{window}"
        out.append((label, replace(
            SparsepipeConfig(), subtensor_cols=cols, memory=memory,
            detailed_dram=detailed, csr_window_fraction=window)))
    return out


def design_points() -> List[Tuple[str, str, str]]:
    return [(a, w, m) for w in workload_names() for m in DESIGN_MATRICES
            for a in DESIGN_ARCHS]


def captures() -> List[Tuple[str, str, bool]]:
    return [(w, m, detailed) for w in workload_names()
            for m in CAPTURE_MATRICES for detailed in (False, True)]


def shuffled(items, rng: random.Random) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def point_id(point) -> str:
    return "/".join(point)


class Segments:
    """Sums the durations of timed segments and switches the tracer
    on only inside them."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.wall_s = 0.0

    def __call__(self, op: Optional[str] = None) -> "Segments":
        if self.tracer is not None:
            self.tracer.op = op
        return self

    def __enter__(self) -> None:
        if self.tracer is not None:
            self.tracer.active = True
        self._t0 = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.wall_s += time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.active = False


class Job:
    """One workload run: ``ops`` maps operation id -> digest."""

    #: Which section of ``expected.json`` the digests belong to.
    family = ""

    def __init__(self, seed: int, store: Optional[str], scratch: Path) -> None:
        self.rng = random.Random(seed)
        self.store = store
        self.scratch = scratch
        self.ops: Dict[str, str] = {}
        #: Operation ids that failed a check other than the digest one.
        self.failed: List[str] = []
        self.attempted = 0
        #: (op id, corrupted digest, golden fired?) for the self-test.
        self.corruption: Optional[Tuple[str, str, Optional[bool]]] = None

    def context(self, **kwargs) -> ExperimentContext:
        return ExperimentContext(scheduler="inprocess", **kwargs)

    def record_points(self, points, results, prefix: str = "") -> None:
        for point, result in zip(points, results):
            op = prefix + point_id(point)
            self.ops[op] = digest(result.to_dict())
        self.attempted += len(points)

    def check_goldens(self, points, results) -> None:
        """Diff the ``gy`` Sparsepipe points against the goldens and
        prepare the self-test corruption from the first of them."""
        for point, result in sorted(zip(points, results)):
            arch, workload, matrix = point
            if arch != "sparsepipe" or matrix != "gy":
                continue
            doc = result.to_dict()
            metrics_digest = registry_from_result(result).digest()
            if verify.golden_diff(workload, doc, metrics_digest):
                self.failed.append(point_id(point))
            if self.corruption is None:
                doc["cycles"] += 1.0
                fired = bool(verify.golden_diff(workload, doc, metrics_digest))
                self.corruption = (point_id(point), digest(doc), fired)


class ColdGrid(Job):
    """Fresh context over an empty store serving the full grid."""

    family = "grid"

    def __init__(self, seed, store, scratch):
        super().__init__(seed, store, scratch)
        self.points = shuffled(grid_points(), self.rng)
        self.ctx = self.context(cache_dir=store)

    def run(self, clock: Segments) -> None:
        with clock():
            results = self.ctx.simulate_many(self.points)
        self.record_points(self.points, results)
        self.check_goldens(self.points, results)


class DesignSweep(Job):
    """32 config variants x (sparsepipe, ideal) x 11 workloads x 4
    matrices over a copy of the store a cold grid leaves behind."""

    family = "design"

    def __init__(self, seed, store, scratch):
        super().__init__(seed, store, scratch)
        self.plan = [
            (label, config, shuffled(design_points(), self.rng))
            for label, config in shuffled(design_variants(), self.rng)
        ]
        self.ctx = self.context(cache_dir=store)

    def run(self, clock: Segments) -> None:
        done = []
        for label, config, points in self.plan:
            with clock(label):
                results = self.ctx.simulate_many(points, config=config)
            done.append((label, points, results))
        for label, points, results in done:
            self.record_points(points, results, prefix=f"{label}:")
        label, points, results = done[0]
        doc = results[0].to_dict()
        doc["cycles"] += 1.0
        self.corruption = (f"{label}:{point_id(points[0])}", digest(doc), None)


class TraceCapture(Job):
    """66 observed captures (11 workloads x ad/ro/eu x both DRAM
    models) with characterization memoized, as the Fig 15 driver does:
    observed ``run_engine``, ``finalize``, ``build_manifest``,
    ``TimelineObserver.write``."""

    family = "captures"

    def __init__(self, seed, store, scratch):
        super().__init__(seed, store, scratch)
        self.plan = shuffled(captures(), self.rng)
        self.configs = {
            False: SparsepipeConfig(),
            True: replace(SparsepipeConfig(), detailed_dram=True),
        }
        self.ctx = self.context(matrices=CAPTURE_MATRICES)

    def run(self, clock: Segments) -> None:
        ctx = self.ctx
        self.scratch.mkdir(parents=True, exist_ok=True)
        for workload, matrix, detailed in self.plan:
            op = f"{workload}/{matrix}/dd{int(detailed)}"
            cfg = self.configs[detailed]
            with clock(op):
                profile = ctx.profile(workload, matrix)
                prep = ctx.prepared(matrix)
                timeline = TimelineObserver()
                metrics_obs = MetricsObserver()
                with Stopwatch() as watch:
                    result = run_engine(
                        "sparsepipe", cfg, profile, prep,
                        paper_nnz=SUITE[matrix].paper_nnz,
                        observers=[timeline, metrics_obs],
                    )
                registry = metrics_obs.finalize(result)
                manifest = build_manifest(
                    "sparsepipe", workload, matrix, cfg, ctx.reorder,
                    ctx.block_size, registry=registry, seed=0,
                    wall_time_s=watch.elapsed,
                )
                path = timeline.write(self.scratch / f"{op.replace('/', '-')}.json",
                                      manifest=manifest)
            data = path.read_bytes()
            path.unlink()
            self.ops[op] = verify.trace_digest(data, registry.digest())
            if self.corruption is None:
                bad = verify.trace_digest(data + b" ", registry.digest())
                self.corruption = (op, bad, None)
        self.attempted = len(self.plan)


class WarmGrid(Job):
    """Fresh contexts over the filled store serve the full grid
    ``WARM_PASSES`` times; every point must be a store hit."""

    family = "grid"

    def __init__(self, seed, store, scratch):
        super().__init__(seed, store, scratch)
        self.orders = [shuffled(grid_points(), self.rng)
                       for _ in range(WARM_PASSES)]
        self.ctx = self.context(cache_dir=store)

    def run(self, clock: Segments) -> None:
        reference: Dict[Tuple[str, str, str], dict] = {}
        for index, points in enumerate(self.orders):
            with clock():
                ctx = self.ctx if index == 0 else self.context(cache_dir=self.store)
                results = ctx.simulate_many(points)
            misses = int(ctx.metrics.value("cache.misses"))
            self.failed.extend(f"pass{index}:store-miss{n}" for n in range(misses))
            if index == 0:
                self.record_points(points, results)
                self.check_goldens(points, results)
                reference = {p: r.to_dict() for p, r in zip(points, results)}
                continue
            self.attempted += len(points)
            self.failed.extend(
                f"pass{index}:{point_id(p)}" for p, r in zip(points, results)
                if r.to_dict() != reference[p])


JOBS = {
    "cold_grid": ColdGrid,
    "design_sweep": DesignSweep,
    "trace_capture": TraceCapture,
    "warm_grid": WarmGrid,
}
