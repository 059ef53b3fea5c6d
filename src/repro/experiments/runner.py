"""Shared experiment infrastructure.

:class:`ExperimentContext` memoizes the expensive intermediate products
(preprocessed matrices, functional characterization runs, simulation
results) so the per-figure drivers can share one cross-product sweep.

Architecture dispatch goes through the engine registry
(:mod:`repro.engine.registry`) — every registered model, including
``software_oei``, runs through the same :meth:`simulate` path. Result
keys are content hashes (:meth:`SparsepipeConfig.cache_key`), shared
by the optional on-disk cache (``cache_dir``) so repeated figure and
benchmark runs are near-free, and :meth:`simulate_many` fans a sweep
out over a process pool with deterministic, serial-identical results.
The store also keeps each (workload, matrix) profile and each
(matrix, reorder) permutation, which no config changes, so a config
sweep over a filled store never re-characterizes or re-reorders;
a missed point is probed once, keyed once and simulated directly.

Resilience (:mod:`repro.resilience`): the fan-out is supervised — a
worker killed mid-sweep (``BrokenProcessPool``) degrades to in-process
execution instead of killing the sweep, and the ``on_error`` policy
(``"raise"`` | ``"skip"`` | ``"retry"``) governs per-point failures.
Skipped/exhausted points keep a ``status="failed"`` manifest (their
result slot is ``None``), retried points carry their SP602 records,
and corrupt disk-cache entries are quarantined (SP604) — partial
sweeps are first-class results.

Observability (:mod:`repro.obs`): every fresh simulation reports
through the context's :class:`~repro.obs.metrics.MetricsRegistry`
(``context.metrics`` / :meth:`ExperimentContext.metrics_report`), and
every produced or cache-served result carries a
:class:`~repro.obs.manifest.RunManifest`
(:meth:`ExperimentContext.manifest`) so sweeps stay auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.arch.config import SparsepipeConfig
from repro.arch.profile import WorkloadProfile
from repro.arch.stats import SimResult
from repro.engine.cache import ResultCache
from repro.engine.instrumentation import DiagnosticsObserver
from repro.engine.registry import arch_names, get_arch, run_engine
from repro.errors import ConfigError, Diagnostic
from repro.resilience.faults import maybe_die
from repro.scheduler import (
    DEFAULT_RETRIES,
    POLICIES,
    FanoutOutcome,
    check_backend,
    run_fanout,
)
from repro.graphblas.matrix import Matrix
from repro.matrices.suite import SUITE, load_suite_matrix, suite_names
from repro.obs.manifest import RunManifest, Stopwatch, build_manifest
from repro.obs.metrics import MetricsRegistry, registry_from_result
from repro.preprocess.pipeline import (
    PreprocessResult,
    preprocess,
    reorder_algorithm,
)
from repro.workloads.registry import get_workload, workload_names

#: Architectures the experiments compare (the engine registry's view).
ARCHITECTURES = arch_names()

#: Workloads whose loop body is naturally memory-bound (Fig 21 separates
#: these from gmres/gcn).
MEMORY_BOUND_WORKLOADS = (
    "pr", "kcore", "bfs", "sssp", "kpp", "knn", "label", "cg", "bgs",
)

#: The four representative (workload, matrix) pairs of Fig 15.
FIG15_PAIRS = (("sssp", "bu"), ("knn", "eu"), ("kcore", "eu"), ("sssp", "wi"))

#: The four applications compared against the GPU (Fig 17).
GPU_WORKLOADS = ("bfs", "kcore", "pr", "sssp")

#: A simulation point: (architecture, workload, matrix).
Point = Tuple[str, str, str]


@dataclass
class ExperimentContext:
    """Memoizing driver for the full (workload x matrix x arch) sweep.

    ``workloads``/``matrices`` default to the full Table-III / Table-I
    sets; pass subsets for quick exploratory runs and tests.
    ``cache_dir`` enables the persistent on-disk result cache;
    ``max_workers`` sets the default process-pool width of
    :meth:`simulate_many` (``None`` = serial). ``on_error`` is the
    default per-point failure policy of :meth:`simulate_many`
    (``"raise"`` | ``"skip"`` | ``"retry"``), ``retries`` bounds the
    re-attempts under ``"retry"``, and ``timeout_s`` arms the
    per-point watchdog for in-process attempts.
    """

    config: SparsepipeConfig = field(default_factory=SparsepipeConfig)
    reorder: Optional[str] = "vanilla"
    block_size: Optional[int] = 256
    workloads: Optional[Tuple[str, ...]] = None
    matrices: Optional[Tuple[str, ...]] = None
    cache_dir: Optional[Union[str, Path]] = None
    max_workers: Optional[int] = None
    on_error: str = "raise"
    retries: int = DEFAULT_RETRIES
    timeout_s: Optional[float] = None
    #: Scheduler backend name for :meth:`simulate_many` fan-outs
    #: (``"inprocess"`` | ``"localpool"``); ``None`` picks a local
    #: pool when both ``max_workers`` and the missing-point count
    #: exceed one, in-process otherwise.
    scheduler: Optional[str] = None

    def __post_init__(self) -> None:
        if self.on_error not in POLICIES:
            raise ConfigError(
                f"on_error must be one of {POLICIES}, got {self.on_error!r}")
        if self.scheduler is not None:
            check_backend(self.scheduler)
        self._preps: Dict[Tuple, PreprocessResult] = {}
        self._graphblas: Dict[str, Matrix] = {}
        self._profiles: Dict[Tuple[str, str], WorkloadProfile] = {}
        self._results: Dict[Tuple, SimResult] = {}
        #: Sweep-wide metrics: every fresh simulation reports through
        #: the one-schema registry (cycles, DRAM bytes by category,
        #: buffer peaks, ...), plus cache hit/miss counters.
        self.metrics = MetricsRegistry()
        self._disk: Optional[ResultCache] = (
            ResultCache(self.cache_dir, metrics=self.metrics)
            if self.cache_dir else None
        )
        #: Run manifests by result key — provenance for every result
        #: this context has produced or served (``from_cache`` marks
        #: disk-cache hits).
        self.manifests: Dict[Tuple, RunManifest] = {}
        #: Collects every verifier diagnostic the sweep would otherwise
        #: silently suppress (warnings on otherwise-clean workloads);
        #: counts mirror into :attr:`metrics` under ``diagnostics.*``.
        self.diagnostics = DiagnosticsObserver(registry=self.metrics)
        self._linted: set = set()
        #: SP6xx fault records awaiting the manifest of their point
        #: (cache quarantines seen on the miss, retries seen during the
        #: fan-out); :meth:`_record_fresh` folds them in.
        self._pending_faults: Dict[Tuple, List[Diagnostic]] = {}

    # ------------------------------------------------------------------
    # Cached intermediates
    # ------------------------------------------------------------------
    def graphblas_matrix(self, matrix_name: str) -> Matrix:
        if matrix_name not in self._graphblas:
            self._graphblas[matrix_name] = Matrix(load_suite_matrix(matrix_name))
        return self._graphblas[matrix_name]

    def prepared(
        self,
        matrix_name: str,
        reorder: Optional[str] = "default",
        block_size: object = "default",
    ) -> PreprocessResult:
        """Preprocessed matrix; pass explicit ``reorder``/``block_size``
        for the Fig 19/20 sensitivity variants.

        The reorder permutation depends only on the matrix, so it is
        read from the on-disk store when there is one; only a miss runs
        the reorder and stores the permutation.
        """
        reorder, block_size = self._resolve(reorder, block_size)
        key = (matrix_name, reorder, block_size)
        if key not in self._preps:
            matrix = load_suite_matrix(matrix_name)
            perm = None
            if reorder is not None and self._disk is not None:
                algorithm = reorder_algorithm(reorder)
                perm = self._disk.get_permutation(
                    matrix_name, reorder, matrix.nrows)
                self._surface_quarantines()
                if perm is None:
                    perm = algorithm(matrix)
                    self._disk.put_permutation(matrix_name, reorder, perm)
            self._preps[key] = preprocess(
                matrix, reorder=reorder, block_size=block_size,
                permutation=perm,
            )
        return self._preps[key]

    def profile(self, workload_name: str, matrix_name: str) -> WorkloadProfile:
        """Workload profile from the functional characterization run.

        Looked up in memory, then in the on-disk store (profiles do not
        depend on the config, so a config sweep over a filled store
        never re-characterizes); only a miss in both runs the workload
        and stores the profile.
        """
        key = (workload_name, matrix_name)
        profile = self._profiles.get(key)
        if profile is not None:
            return profile
        workload = get_workload(workload_name)
        self._lint_once(workload_name, workload)
        if self._disk is not None:
            profile = self._disk.get_profile(workload_name, matrix_name)
            self._surface_quarantines()
        if profile is None:
            profile = workload.profile(self.graphblas_matrix(matrix_name))
            if self._disk is not None:
                self._disk.put_profile(workload_name, matrix_name, profile)
        self._profiles[key] = profile
        return profile

    def _lint_once(self, workload_name: str, workload) -> None:
        """Feed the workload's verifier diagnostics (warnings the
        default ``verify="error"`` mode suppresses) to the diagnostics
        observer — once per workload, not once per matrix."""
        if workload_name in self._linted:
            return
        self._linted.add(workload_name)
        from repro.analysis.passes import verify_graph

        for diag in verify_graph(workload.build_graph()):
            self.diagnostics.on_diagnostic(diag)

    def lint_health(self) -> Dict[str, float]:
        """Suppressed-diagnostic counts across every workload this
        context has profiled (severity and code histograms)."""
        return self.diagnostics.as_dict()

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def _result_key(
        self,
        arch: str,
        workload_name: str,
        matrix_name: str,
        cfg: SparsepipeConfig,
        reorder: Optional[str],
        block_size: Optional[int],
    ) -> Tuple:
        """Content-based result key (never ``id()``: equal-valued
        configs share one entry, distinct configs never collide)."""
        return (
            arch, workload_name, matrix_name,
            cfg.cache_key(), reorder, block_size,
        )

    def _resolve(self, reorder, block_size):
        if reorder == "default":
            reorder = self.reorder
        if block_size == "default":
            block_size = self.block_size
        return reorder, block_size

    def _disk_lookup(self, key: Tuple):
        """On-disk cache probe that also accounts quarantine events:
        any SP604 diagnostic the probe produced feeds the sweep
        observer and is attached to the point's next fresh manifest."""
        if self._disk is None:
            return None
        entry = self._disk.get_entry(*key)
        for diag in self._surface_quarantines():
            self._pending_faults.setdefault(key, []).append(diag)
        return entry

    def _surface_quarantines(self) -> List[Diagnostic]:
        """Feed the store's SP604 quarantine diagnostics to the sweep
        observer and the ``cache.quarantined`` counter."""
        diags = self._disk.pop_diagnostics()
        for diag in diags:
            self.diagnostics.on_diagnostic(diag)
            self.metrics.counter("cache.quarantined").inc()
        return diags

    def _serve(self, key: Tuple, entry) -> SimResult:
        """Adopt one on-disk store hit as the point's result."""
        self.metrics.counter("cache.disk_hits").inc()
        self._results[key] = entry.result
        self.manifests[key] = (
            entry.manifest
            if entry.manifest is not None
            else self._manifest_for(key, entry.result, from_cache=True)
        )
        return entry.result

    def simulate(
        self,
        arch: str,
        workload_name: str,
        matrix_name: str,
        config: Optional[SparsepipeConfig] = None,
        reorder: Optional[str] = "default",
        block_size: object = "default",
    ) -> SimResult:
        """Run (and cache) one architecture on one (workload, matrix)."""
        get_arch(arch)  # raises ConfigError on unknown architectures
        cfg = config or self.config
        reorder, block_size = self._resolve(reorder, block_size)
        key = self._result_key(arch, workload_name, matrix_name, cfg, reorder, block_size)
        if key in self._results:
            self.metrics.counter("cache.memory_hits").inc()
            return self._results[key]
        entry = self._disk_lookup(key)
        if entry is not None:
            return self._serve(key, entry)
        return self._simulate_fresh(key, cfg)

    def _simulate_fresh(self, key: Tuple, cfg: SparsepipeConfig) -> SimResult:
        """Simulate one already-probed missing point and record it."""
        arch, workload_name, matrix_name, _config_key, reorder, block_size = key
        profile = self.profile(workload_name, matrix_name)
        prep = self.prepared(matrix_name, reorder=reorder, block_size=block_size)
        paper_nnz = SUITE[matrix_name].paper_nnz
        with Stopwatch() as watch:
            result = run_engine(arch, cfg, profile, prep, paper_nnz=paper_nnz)
        self._record_fresh(key, result, wall_time_s=watch.elapsed)
        return result

    def _manifest_for(
        self, key: Tuple, result: SimResult,
        wall_time_s: Optional[float] = None, from_cache: bool = False,
    ) -> RunManifest:
        arch, workload, matrix, _config_key, reorder, block_size = key
        return build_manifest(
            arch, workload, matrix, _config_key, reorder, block_size,
            result=result, wall_time_s=wall_time_s, from_cache=from_cache,
        )

    def _record_fresh(
        self, key: Tuple, result: SimResult,
        wall_time_s: Optional[float] = None,
        faults: Sequence[Diagnostic] = (),
    ) -> None:
        """Account one freshly simulated result: aggregate its metrics
        into the sweep registry, build its manifest (folding in any
        SP6xx events the point survived), persist both."""
        self._results[key] = result
        registry_from_result(result, registry=self.metrics)
        events = self._pending_faults.pop(key, []) + list(faults)
        retried = any(d.code in ("SP601", "SP602") for d in events)
        arch, workload, matrix, config_key, reorder, block_size = key
        manifest = build_manifest(
            arch, workload, matrix, config_key, reorder, block_size,
            result=result, wall_time_s=wall_time_s,
            status="retried" if retried else "ok",
            faults=[d.as_dict() for d in events],
        )
        self.manifests[key] = manifest
        if self._disk is not None:
            self._disk.put(*key, result=result, manifest=manifest)

    def _record_failed(self, key: Tuple, error: str,
                       faults: Sequence[Diagnostic]) -> None:
        """Account one point that exhausted its attempts: no result,
        but a first-class ``status="failed"`` manifest carrying every
        SP6xx event behind the failure."""
        events = self._pending_faults.pop(key, []) + list(faults)
        arch, workload, matrix, config_key, reorder, block_size = key
        self.manifests[key] = build_manifest(
            arch, workload, matrix, config_key, reorder, block_size,
            status="failed",
            faults=[d.as_dict() for d in events] + [{"error": error}],
        )
        self.metrics.counter("resilience.failures").inc()

    def manifest(
        self,
        arch: str,
        workload_name: str,
        matrix_name: str,
        config: Optional[SparsepipeConfig] = None,
        reorder: Optional[str] = "default",
        block_size: object = "default",
    ) -> Optional[RunManifest]:
        """Provenance manifest for one already-simulated point (None
        if :meth:`simulate` has not produced or served it yet)."""
        cfg = config or self.config
        reorder, block_size = self._resolve(reorder, block_size)
        key = self._result_key(
            arch, workload_name, matrix_name, cfg, reorder, block_size
        )
        return self.manifests.get(key)

    def metrics_report(self) -> str:
        """The sweep-wide metrics registry as aligned text."""
        return self.metrics.format_text()

    def simulate_many(
        self,
        points: Iterable[Point],
        config: Optional[SparsepipeConfig] = None,
        reorder: Optional[str] = "default",
        block_size: object = "default",
        max_workers: Optional[int] = None,
        on_error: Optional[str] = None,
        scheduler: Optional[str] = None,
    ) -> List[Optional[SimResult]]:
        """Simulate many ``(arch, workload, matrix)`` points at once.

        Results come back in input order and are bit-identical to
        calling :meth:`simulate` serially — the fan-out only changes
        wall-clock time. Cached points (in-memory or on-disk) are never
        re-simulated; uncached points are grouped by matrix so each
        worker pre-materializes a matrix once and serves every point
        on it from its local caches. ``max_workers=None`` falls back
        to the context default (serial when that is unset too).

        The fan-out is supervised: a broken process pool (worker
        OOM-killed) degrades to in-process execution with an SP601
        diagnostic instead of raising. ``on_error`` (default: the
        context's policy) governs per-point failures — ``"raise"``
        propagates the first error; ``"skip"`` and ``"retry"`` (which
        re-attempts up to ``self.retries`` times first) record a
        ``status="failed"`` manifest and leave ``None`` in the failed
        point's result slot, so partial sweeps are first-class.

        ``scheduler`` (default: the context's) picks the execution
        substrate by backend name — ``"inprocess"`` or ``"localpool"``
        (``docs/scheduling.md``); ``None`` picks a local pool when both
        the worker count and the missing-point count exceed one. The
        policy layer, fault semantics, and results are identical on
        both backends; ``scheduler.*`` counters land in :attr:`metrics`
        either way.
        """
        points = [tuple(p) for p in points]
        for arch, _, _ in points:
            get_arch(arch)
        policy = self.on_error if on_error is None else on_error
        if policy not in POLICIES:
            raise ConfigError(
                f"on_error must be one of {POLICIES}, got {policy!r}")
        cfg = config or self.config
        reorder, block_size = self._resolve(reorder, block_size)
        keys = [
            self._result_key(a, w, m, cfg, reorder, block_size)
            for a, w, m in points
        ]

        # Missing point -> its result key, in first-seen order.
        missing: Dict[Point, Tuple] = {}
        for point, key in zip(points, keys):
            if key in self._results or point in missing:
                continue
            entry = self._disk_lookup(key)
            if entry is not None:
                self._serve(key, entry)
                continue
            missing[point] = key

        if missing:
            backend = self.scheduler if scheduler is None else scheduler
            workers = self.max_workers if max_workers is None else max_workers
            if backend is None:
                pooled = (workers is not None and workers > 1
                          and len(missing) > 1)
                backend = "localpool" if pooled else "inprocess"
            if backend == "localpool":
                # Group by matrix so per-worker chunks reuse the
                # materialized matrix, profile, and preprocessing.
                ordered = sorted(missing, key=lambda p: (p[2], p[1], p[0]))
                fn = _simulate_one_point
                initializer = _init_worker_context
                initargs = (cfg, reorder, block_size)
            else:
                ordered = list(missing)
                initializer, initargs = None, ()

                def fn(p: Point) -> SimResult:
                    # Already probed above: simulate directly, without
                    # re-keying or a second (miss-counting) store probe.
                    return self._simulate_fresh(missing[p], cfg)

            outcome = run_fanout(
                fn, ordered,
                backend=backend,
                max_workers=workers,
                initializer=initializer,
                initargs=initargs,
                timeout_s=self.timeout_s,
                on_error=policy,
                retries=self.retries,
                labels=["/".join(p) for p in ordered],
                metrics=self.metrics,
            )
            self._absorb_outcome(outcome, [missing[p] for p in ordered])
        return [self._results.get(key) for key in keys]

    def _absorb_outcome(
        self, outcome: FanoutOutcome, ordered_keys: List[Tuple],
    ) -> None:
        """Fold one supervised fan-out into the context: fresh results
        with their retry records, failed points as failure manifests,
        fan-out-wide degradations into the sweep diagnostics.
        ``ordered_keys`` are the result keys in fan-out order."""
        for diag in outcome.diagnostics:
            self.diagnostics.on_diagnostic(diag)
            self.metrics.counter("resilience.pool_breaks").inc()
        failed = outcome.failed_indices()
        for index, key in enumerate(ordered_keys):
            retried = outcome.retried.get(index, [])
            for diag in retried:
                self.diagnostics.on_diagnostic(diag)
                self.metrics.counter("resilience.retries").inc()
            # Pool-wide degradation marks every affected point's manifest.
            events = list(outcome.diagnostics) + retried
            if index in failed:
                failure = failed[index]
                self.diagnostics.on_diagnostic(failure.diagnostic)
                self._record_failed(
                    key, failure.error, events + [failure.diagnostic])
            elif key in self._results:
                # The in-process path already recorded it via
                # _simulate_fresh(); fold late-arriving fault records
                # into its manifest.
                if events:
                    self._amend_manifest(key, events)
            else:
                # Wall time is unknown per point in the fan-out;
                # the manifest records None rather than a guess.
                self._record_fresh(key, outcome.results[index], faults=events)

    def _amend_manifest(self, key: Tuple,
                        events: Sequence[Diagnostic]) -> None:
        """Fold fault records into an already recorded point's manifest,
        in memory and in the store, so a warm rerun reports them too."""
        manifest = self.manifests.get(key)
        if manifest is None:
            return
        manifest = replace(
            manifest,
            status="retried" if manifest.status == "ok" else manifest.status,
            faults=manifest.faults + tuple(d.as_dict() for d in events),
        )
        self.manifests[key] = manifest
        if self._disk is not None:
            self._disk.put(*key, result=self._results[key], manifest=manifest)

    def speedup(
        self, workload_name: str, matrix_name: str, over: str,
        config: Optional[SparsepipeConfig] = None,
    ) -> float:
        """Sparsepipe speedup over a baseline architecture."""
        sp = self.simulate("sparsepipe", workload_name, matrix_name, config=config)
        base = self.simulate(over, workload_name, matrix_name, config=config)
        return sp.speedup_over(base)

    # ------------------------------------------------------------------
    # Sweep helpers
    # ------------------------------------------------------------------
    def all_workloads(self) -> Tuple[str, ...]:
        if self.workloads is not None:
            return self.workloads
        return tuple(workload_names())

    def all_matrices(self) -> Tuple[str, ...]:
        if self.matrices is not None:
            return self.matrices
        return tuple(suite_names())

    def cross_product(
        self, archs: Sequence[str], workloads: Optional[Sequence[str]] = None,
    ) -> List[Point]:
        """The (arch x workload x matrix) point list the fig drivers
        feed to :meth:`simulate_many`."""
        workloads = self.all_workloads() if workloads is None else workloads
        return [
            (arch, workload, matrix)
            for workload in workloads
            for matrix in self.all_matrices()
            for arch in archs
        ]


# ----------------------------------------------------------------------
# simulate_many worker side (module-level: must be picklable)
# ----------------------------------------------------------------------
_WORKER_CONTEXT: Optional[ExperimentContext] = None


def _init_worker_context(
    config: SparsepipeConfig, reorder: Optional[str], block_size: Optional[int]
) -> None:
    """Build one memoizing context per worker process — matrices,
    profiles, and preprocessing materialize once per worker."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = ExperimentContext(
        config=config, reorder=reorder, block_size=block_size
    )


def _simulate_one_point(point: Point) -> SimResult:
    arch, workload, matrix = point
    # Chaos-test site: no-op unless a FaultPlan with a worker_death
    # fault is active AND this process is a marked pool worker. The
    # site name is hashed by should_fire; renaming it would change
    # which faults seeded plans fire.
    maybe_die("parallel.worker", "/".join(point))
    return _WORKER_CONTEXT.simulate(arch, workload, matrix)
