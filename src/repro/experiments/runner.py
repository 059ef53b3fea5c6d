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

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.arch.config import SparsepipeConfig
from repro.arch.profile import WorkloadProfile
from repro.arch.stats import SimResult
from repro.engine.cache import ResultCache
from repro.engine.registry import arch_names, get_arch, run_engine
from repro.errors import ConfigError, Diagnostic
from repro.resilience.faults import maybe_die
from repro.scheduler import POLICIES, FanoutOutcome, check_backend, run_fanout
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

#: The longest characterizations, which go first within a matrix: the
#: Krylov solvers (bgs, gmres, cg) take ~60% of a cold grid's
#: characterization, and cg, bgs and gmres share one system per matrix.
LONGEST_FIRST = ("bgs", "gmres", "cg")


@dataclass
class ExperimentContext:
    """Memoizing driver for the full (workload x matrix x arch) sweep.

    ``workloads``/``matrices`` default to the full Table-III / Table-I
    sets; pass subsets for quick exploratory runs and tests.
    ``cache_dir`` enables the persistent on-disk result cache;
    ``max_workers`` sets the process-pool width of
    :meth:`simulate_many` (``None`` = serial) and caps the threads that
    characterize a sweep's missing profiles (``None`` = the CPUs this
    process may use), and ``on_error`` sets its per-point failure
    policy (``"raise"`` | ``"skip"`` | ``"retry"``).
    """

    config: SparsepipeConfig = field(default_factory=SparsepipeConfig)
    reorder: Optional[str] = "vanilla"
    block_size: Optional[int] = 256
    workloads: Optional[Tuple[str, ...]] = None
    matrices: Optional[Tuple[str, ...]] = None
    cache_dir: Optional[Union[str, Path]] = None
    max_workers: Optional[int] = None
    on_error: str = "raise"
    #: Scheduler backend name for :meth:`simulate_many` fan-outs
    #: (``"inprocess"`` | ``"localpool"``); ``None`` lets
    #: ``max_workers`` decide (:func:`repro.scheduler.run_fanout`).
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
        #: Profile ``("profile", workload, matrix)`` and permutation
        #: ``("permutation", matrix, reorder)`` rows read from the
        #: store, an absent row as None; a sweep reads the rows its
        #: missing points need before the fan-out, so pool workers
        #: never read the store.
        self._rows: Dict[Tuple, object] = {}
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
        self._linted: set = set()
        #: SP6xx fault records awaiting the manifest of their point
        #: (the store quarantines its reads caused); :meth:`_record_fresh`
        #: folds them in.
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
                row = ("permutation", matrix_name, reorder)
                self._read_row(row)
                perm = self._rows[row]
                if perm is None:
                    perm = self._rows[row] = algorithm(matrix)
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
        self._lint_once(workload_name)
        row = ("profile", workload_name, matrix_name)
        self._read_row(row)
        profile = self._rows.get(row)
        if profile is None:
            profile = get_workload(workload_name).profile(
                self.graphblas_matrix(matrix_name))
            if self._disk is not None:
                self._disk.put_profile(workload_name, matrix_name, profile)
        self._profiles[key] = profile
        return profile

    def _read_row(self, row: Tuple, point: Optional[Tuple] = None) -> None:
        """Read one profile or permutation row of the store into
        :attr:`_rows`, unless it was read already. The quarantines
        (SP604) the read causes are counted and become the fault
        records of ``point``, the missing point that needs the row."""
        if self._disk is None or row in self._rows:
            return
        kind, *names = row
        if kind == "profile":
            self._rows[row] = self._disk.get_profile(*names)
        else:
            n = load_suite_matrix(names[0]).nrows
            self._rows[row] = self._disk.get_permutation(*names, n)
        self._count_quarantines(point)

    def _read_rows(self, key: Tuple) -> None:
        """Read the profile and permutation rows that missing point
        ``key`` needs and this context holds no product of."""
        _arch, workload_name, matrix_name, _cfg, reorder, block_size = key
        if (workload_name, matrix_name) not in self._profiles:
            self._read_row(("profile", workload_name, matrix_name), key)
        if reorder is not None and (
                (matrix_name, reorder, block_size) not in self._preps):
            self._read_row(("permutation", matrix_name, reorder), key)

    def _lint_once(self, workload_name: str) -> None:
        """Count the workload's verifier diagnostics (warnings the
        default ``verify="error"`` mode suppresses) — once per
        workload, not once per matrix."""
        if workload_name in self._linted:
            return
        self._linted.add(workload_name)
        from repro.analysis.passes import verify_graph

        for diag in verify_graph(get_workload(workload_name).build_graph()):
            self._count_diagnostic(diag)

    def _count_diagnostic(self, diag: Diagnostic) -> None:
        """Count one (possibly suppressed) diagnostic under
        ``diagnostics.total`` / ``.severity.<sev>`` / ``.code.<code>``."""
        for name in ("total", f"severity.{diag.severity.value}",
                     f"code.{diag.code}"):
            self.metrics.counter(f"diagnostics.{name}").inc()

    def lint_health(self) -> Dict[str, float]:
        """Diagnostic counts across every workload this context has
        profiled and every fault it absorbed (severity and code
        histograms), read from :attr:`metrics`."""
        out = {"diagnostics": self.metrics.value("diagnostics.total")}
        for kind in ("severity", "code"):
            prefix = f"diagnostics.{kind}."
            for name in sorted(self.metrics.names()):
                if name.startswith(prefix):
                    out[f"diagnostics[{name[len(prefix):]}]"] = \
                        self.metrics.value(name)
        return out

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
        any SP604 diagnostic the probe produced is counted and
        attached to the point's next fresh manifest."""
        if self._disk is None:
            return None
        entry = self._disk.get_entry(*key)
        self._count_quarantines(key)
        return entry

    def _count_quarantines(self, point: Optional[Tuple] = None) -> None:
        """Count the store's new quarantine (SP604) diagnostics; they
        become the fault records of ``point``, when given."""
        for diag in self._disk.pop_diagnostics():
            self._count_diagnostic(diag)
            self.metrics.counter("cache.quarantined").inc()
            if point is not None:
                self._pending_faults.setdefault(point, []).append(diag)

    def _serve(self, key: Tuple, entry) -> SimResult:
        """Adopt one on-disk store hit as the point's result."""
        self.metrics.counter("cache.disk_hits").inc()
        self._results[key] = entry.result
        self.manifests[key] = (
            entry.manifest
            if entry.manifest is not None
            else build_manifest(*key, result=entry.result, from_cache=True)
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
        result, wall_time_s = self._simulate_fresh(key, cfg)
        manifest = self._record_fresh(key, result, wall_time_s)
        if self._disk is not None:
            self._disk.put(*key, result=result, manifest=manifest)
        return result

    def _simulate_fresh(self, key: Tuple, cfg: SparsepipeConfig) -> Tuple:
        """Simulate one already-probed missing point, recording nothing:
        ``(result, wall_time_s)``."""
        arch, workload_name, matrix_name, _config_key, reorder, block_size = key
        self._read_rows(key)
        profile = self.profile(workload_name, matrix_name)
        prep = self.prepared(matrix_name, reorder=reorder, block_size=block_size)
        paper_nnz = SUITE[matrix_name].paper_nnz
        with Stopwatch() as watch:
            result = run_engine(arch, cfg, profile, prep, paper_nnz=paper_nnz)
        return result, watch.elapsed

    def _record_fresh(self, key: Tuple, result: SimResult, wall_time_s: float,
                      events: Sequence[Diagnostic] = ()) -> RunManifest:
        """Account one freshly simulated result: aggregate its metrics
        into the sweep registry and build its manifest, folding in the
        SP6xx events the point survived (its pending quarantines, then
        ``events``). Returns the manifest; the caller stores the row."""
        self._results[key] = result
        registry_from_result(result, registry=self.metrics)
        events = self._pending_faults.pop(key, []) + list(events)
        retried = any(d.code in ("SP601", "SP602") for d in events)
        manifest = self.manifests[key] = build_manifest(
            *key, result=result, wall_time_s=wall_time_s,
            status="retried" if retried else "ok",
            faults=[d.as_dict() for d in events],
        )
        return manifest

    def _record_failed(self, key: Tuple, error: str,
                       faults: Sequence[Diagnostic]) -> None:
        """Account one point that exhausted its attempts: no result,
        but a first-class ``status="failed"`` manifest carrying every
        SP6xx event behind the failure."""
        events = self._pending_faults.pop(key, []) + list(faults)
        self.manifests[key] = build_manifest(
            *key, status="failed",
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
    ) -> List[Optional[SimResult]]:
        """Simulate many ``(arch, workload, matrix)`` points at once.

        Results come back in input order and are bit-identical to
        calling :meth:`simulate` serially — the fan-out only changes
        wall-clock time. Cached points (in-memory or on-disk) are never
        re-simulated. This process probes every point's result, reads
        the profile and permutation rows the missing points need and
        characterizes the profiles neither holds on threads
        (:meth:`_characterize`); then one closure over this context
        simulates each missing point
        — a pool worker on its forked copy — and this process records
        them in fan-out order and stores their rows in one transaction.

        The fan-out is supervised: a broken process pool (worker
        OOM-killed) degrades to in-process execution with an SP601
        diagnostic instead of raising. The context's ``on_error``
        governs per-point failures — ``"raise"`` propagates the first
        error; ``"skip"`` and ``"retry"`` (which re-attempts first)
        record a ``status="failed"`` manifest and leave ``None`` in the
        failed point's result slot, so partial sweeps are first-class;
        under ``"raise"`` the points before the failing one are recorded
        and stored, and none after it.
        The context's ``scheduler`` and ``max_workers`` pick the
        backend (``docs/scheduling.md``); the policy layer, fault
        semantics, and results are identical on both, and
        ``scheduler.*`` counters land in :attr:`metrics` either way.
        """
        points = [tuple(p) for p in points]
        for arch, _, _ in points:
            get_arch(arch)
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
            # Lint and read the store here: what a pool worker counts
            # dies with its copy.
            for key in missing.values():
                self._lint_once(key[1])
                self._read_rows(key)
            self._characterize(missing.values())

            def fn(point: Point) -> Tuple:
                # Chaos-test site: no-op unless a FaultPlan with a
                # worker_death fault is active AND this process is a
                # marked pool worker. The site name is hashed by
                # should_fire; renaming it would change which faults
                # seeded plans fire.
                maybe_die("parallel.worker", "/".join(point))
                # Already probed above: simulate directly, without
                # re-keying or a second (miss-counting) store probe.
                return self._simulate_fresh(missing[point], cfg)

            outcome = FanoutOutcome()
            try:
                run_fanout(
                    fn, missing,
                    backend=self.scheduler,
                    max_workers=self.max_workers,
                    on_error=self.on_error,
                    labels=["/".join(p) for p in missing],
                    metrics=self.metrics,
                    outcome=outcome,
                )
            finally:
                # A pool worker may have filled an absent row since:
                # later reads go to the store again.
                self._rows = {row: v for row, v in self._rows.items()
                              if v is not None}
                self._absorb_outcome(outcome, list(missing.values()))
        return [self._results.get(key) for key in keys]

    def _characterize(self, keys: Iterable[Tuple]) -> None:
        """Compute every profile the missing points ``keys`` need that
        neither memory nor the store holds, on up to ``max_workers``
        threads (default: the CPUs this process may run on), so the
        fan-out finds them ready.

        The characterization arithmetic is numpy gathers, products and
        ``bincount``s, which release the GIL. The (workload, matrix)
        groups go matrix-major, largest matrix first and
        :data:`LONGEST_FIRST` first within it, so concurrent threads
        share one matrix's images and Krylov system, and that system
        is freed before the next matrix starts. The threads only call
        ``profile``: matrix loads, store writes and metrics stay in
        this thread, and every thread is joined before the fan-out
        can fork. A group whose characterization raises stays
        uncomputed, so the point that needs it raises again in its own
        attempt, under the context's ``on_error``.
        """
        groups = list(dict.fromkeys(
            (key[1], key[2]) for key in keys
            if (key[1], key[2]) not in self._profiles
            and self._rows.get(("profile", key[1], key[2])) is None))
        matrices = {}
        for matrix_name in dict.fromkeys(m for _, m in groups):
            try:
                matrices[matrix_name] = self.graphblas_matrix(matrix_name)
            except Exception:  # the point's own attempt raises it
                pass
        rank = {w: i for i, w in enumerate(LONGEST_FIRST + tuple(
            w for w in workload_names() if w not in LONGEST_FIRST))}
        groups = sorted(
            (g for g in groups if g[1] in matrices),
            key=lambda g: (-matrices[g[1]].nnz, g[1], rank[g[0]]))

        def characterize(group: Tuple[str, str]) -> Optional[WorkloadProfile]:
            workload_name, matrix_name = group
            try:
                return get_workload(workload_name).profile(
                    matrices[matrix_name])
            except Exception:  # the point's own attempt raises it
                return None

        width = self.max_workers
        if width is None:
            try:
                width = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity call on this platform
                width = os.cpu_count() or 1
        width = min(width, len(groups))
        if width <= 1:
            profiles = [characterize(g) for g in groups]
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(width) as threads:
                profiles = list(threads.map(characterize, groups))
        for group, profile in zip(groups, profiles):
            if profile is not None:
                self._profiles[group] = profile
                if self._disk is not None:
                    self._disk.put_profile(*group, profile)

    def _absorb_outcome(
        self, outcome: FanoutOutcome, ordered_keys: List[Tuple],
    ) -> None:
        """Fold one supervised fan-out into the context: fresh results
        with their retry records (their rows stored in one commit),
        failed points as failure manifests, fan-out-wide degradations
        into the sweep diagnostics. ``ordered_keys`` are the result
        keys in fan-out order; a ``"raise"`` fan-out ends at its failure."""
        for diag in outcome.diagnostics:
            self._count_diagnostic(diag)
            self.metrics.counter("resilience.pool_breaks").inc()
        failed = outcome.failed_indices()
        rows = []
        for index, (key, done) in enumerate(zip(ordered_keys, outcome.results)):
            retried = outcome.retried.get(index, [])
            for diag in retried:
                self._count_diagnostic(diag)
                self.metrics.counter("resilience.retries").inc()
            # Pool-wide degradation marks every affected point's manifest.
            events = list(outcome.diagnostics) + retried
            if index in failed:
                failure = failed[index]
                self._count_diagnostic(failure.diagnostic)
                self._record_failed(
                    key, failure.error, events + [failure.diagnostic])
            elif done is None:
                break  # the point a "raise" fan-out stopped at
            else:
                result, wall_time_s = done
                rows.append((key, result, self._record_fresh(
                    key, result, wall_time_s, events)))
        if rows and self._disk is not None:
            self._disk.put_many(rows)

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

