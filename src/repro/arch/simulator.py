"""The Sparsepipe pipeline simulator (Sections IV-D and V-A).

``SparsepipeSimulator.run`` walks every loop iteration of a workload
over the preprocessed input matrix. Iterations are fused in OEI pairs
when the compiled program allows it; each pair is simulated step by
step: the CSC loader, e-wise vector loader, OS/E-Wise/IS cores, eager
CSR prefetcher, and the on-chip buffer all charge cycles and bytes per
sub-tensor step, and the step's duration is the slowest of them (the
pipeline advances in lock-step, Fig 13).  Workloads without an OEI path
(cg, bgs) run producer-consumer-fused single passes.

Instrumentation is pluggable: pass ``observers`` to receive the
step / transfer / evict / repack / prefetch event stream
(:mod:`repro.engine.instrumentation`).  The reference loop collects each
step's cycles, moved bytes, evictions, repack and stage cycles, and
hands each pair or stream to the observers as one
:class:`~repro.engine.instrumentation.ReplayBatch` of per-step columns,
the same form the vectorized backend builds from its kernels; it
collects nothing when no observer is attached.  ``observers`` defaults
to ``()``, the zero-observer fast path (``bandwidth_samples=[]``);
Fig 15 registers a :class:`~repro.engine.instrumentation.
StepTraceObserver` to get its bandwidth samples.

The observability layer (:mod:`repro.obs`) builds on the same stream:
a :class:`~repro.obs.timeline.TimelineObserver` exports the run as a
Chrome/Perfetto trace and a :class:`~repro.obs.metrics.MetricsObserver`
feeds the shared metrics registry — ``python -m repro trace`` attaches
both.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.arch.buffer import OnChipBuffer
from repro.arch.config import VECTOR_ELEMENT_BYTES, SparsepipeConfig
from repro.arch.cores import ComputePipeline
from repro.arch.fastpath import burst_hints, run_fastpath, sparsepipe_result
from repro.arch.loaders import EagerPrefetcher, LoadPlan
from repro.arch.memory import MemoryController
from repro.arch.profile import WorkloadProfile
from repro.arch.stats import SimResult
from repro.engine.instrumentation import Instrumentation, Observer, ReplayBatch
from repro.formats.coo import COOMatrix
from repro.oei.schedule import oei_passes
from repro.preprocess.pipeline import PreprocessResult


class SparsepipeSimulator:
    """Simulates one Sparsepipe instance over (workload, matrix) pairs."""

    def __init__(self, config: SparsepipeConfig = SparsepipeConfig()) -> None:
        self.config = config
        #: Which execution backend served the last ``run`` — the bench
        #: and CI assert observed runs never silently downgrade.
        self.last_backend: Optional[str] = None

    def run(
        self,
        profile: WorkloadProfile,
        matrix: Union[COOMatrix, PreprocessResult],
        paper_nnz: Optional[int] = None,
        observers: Sequence[Observer] = (),
    ) -> SimResult:
        """Simulate the full application run.

        ``paper_nnz`` enables per-matrix buffer scaling (DESIGN.md):
        the buffer capacity keeps the paper's buffer-to-matrix ratio.
        ``observers`` receive the simulator's event stream; with none
        the run records nothing (no bandwidth samples).
        """
        config = self.config
        plan = LoadPlan.from_matrix(matrix, config.subtensor_cols)
        capacity = config.buffer_capacity(plan.total_nnz, paper_nnz)
        instr = Instrumentation(observers)

        # Vectorized backend: bit-identical to the loop below
        # (repro.arch.fastpath) for every configuration — attached
        # observers receive the same per-pair batches, synthesized
        # post-hoc, and the banked DRAM model is vectorized per
        # category, so there is no reference-loop fallback.
        if config.backend == "vectorized":
            self.last_backend = "vectorized"
            return run_fastpath(config, plan, profile, capacity, instr=instr)
        self.last_backend = "reference"

        memory = MemoryController(config, burst_hints=burst_hints(plan, profile))
        cores = ComputePipeline(config)
        buffer = OnChipBuffer(
            capacity_bytes=capacity,
            csr_window_fraction=config.csr_window_fraction,
            element_bytes=plan.element_bytes,
            repack_threshold=config.repack_threshold,
        )
        state = _RunState()

        for k, paired in oei_passes(profile.n_iterations, profile.has_oei):
            if paired:
                self._simulate_pair(plan, profile, k, memory, cores, buffer, instr, state)
            else:
                self._simulate_stream(plan, profile, k, memory, cores, instr, state)

        return sparsepipe_result(
            config, profile, instr, capacity, cycles=state.cycles,
            traffic=memory.traffic, compute_ops=state.compute_ops,
            is_ops=state.is_ops, buffer_peak_bytes=buffer.peak_bytes,
            oom_evicted_bytes=buffer.evicted_bytes,
            repack_events=buffer.repack_events,
        )

    # ------------------------------------------------------------------
    # OEI pair (iterations k and k+1 fused)
    # ------------------------------------------------------------------
    def _simulate_pair(
        self,
        plan: LoadPlan,
        profile: WorkloadProfile,
        k: int,
        memory: MemoryController,
        cores: ComputePipeline,
        buffer: OnChipBuffer,
        instr: Instrumentation,
        state: "_RunState",
    ) -> None:
        config = self.config
        f = profile.feature_dim
        act1 = profile.activity_at(k)
        act2 = profile.activity_at(k + 1)
        both = act1 + act2
        n_ops = profile.total_ewise_ops
        extra_dram_share = 2 * profile.extra_dram_bytes_per_iteration / plan.n_steps
        extra_ops_share = 2 * profile.extra_ops_per_iteration / plan.n_steps
        prefetcher = EagerPrefetcher(plan, config.eager_is)

        def width(t: int) -> float:
            if 0 <= t < plan.n_subtensors:
                return float(plan.subtensor_width[t])
            return 0.0

        rows = []
        for s in range(plan.n_steps):
            # --- demand traffic --------------------------------------
            reload_bytes = buffer.pop_reload(s)
            csc_due = prefetcher.demand(s)
            buffer.prefetch_resident_bytes = max(
                0.0, buffer.prefetch_resident_bytes - prefetcher.release_at(s)
            )
            # OS input x at s, e-wise operand vectors at s-1 (both
            # pair halves), finalized outputs at s-2.
            vec_read = VECTOR_ELEMENT_BYTES * f * (
                width(s) * act1 + width(s - 1) * profile.aux_streams * both
            )
            writeback = (
                VECTOR_ELEMENT_BYTES * f * width(s - 2)
                * profile.writeback_streams * both
            )
            demand_by_category = {
                "csc": csc_due,
                "csr_reload": reload_bytes,
                "vector": vec_read + extra_dram_share,
                "writeback": writeback,
            }
            demand = csc_due + reload_bytes + vec_read + writeback + extra_dram_share

            # --- compute --------------------------------------------
            os_c = cores.os_cycles(plan.os_nnz[s] * act1, f) if s < plan.n_subtensors else 0.0
            ew_c = cores.ewise_cycles(width(s - 1) * both, n_ops, f)
            is_c = cores.is_cycles(plan.scatter_nnz[s] * act2, f)
            extra_c = cores.extra_cycles(extra_ops_share)
            mem_c = memory.demand_cycles(demand_by_category)
            step_cycles = max(
                os_c, ew_c, is_c, extra_c, mem_c, float(config.step_overhead_cycles)
            )

            # --- eager CSR prefetch with leftover bandwidth ----------
            achievable = memory.bytes_per_cycle * config.dram_efficiency
            leftover = step_cycles * achievable - demand
            prefetched = prefetcher.prefetch(s, leftover, buffer.slack_bytes())
            buffer.prefetch_resident_bytes += prefetched

            # --- account --------------------------------------------
            moved = {
                "csc": csc_due,
                "csr_reload": reload_bytes,
                "csr_eager": prefetched,
                "vector": vec_read + extra_dram_share,
                "writeback": writeback,
            }
            for cat, val in moved.items():
                if val:
                    memory.transfer(cat, val)

            # --- reuse-window transitions ----------------------------
            if s < plan.n_subtensors:
                buffer.admit(plan.enter_counts[s])
            repacks_before = buffer.repack_events
            buffer.release(s)
            evicted = buffer.enforce_capacity(s)

            state.cycles += step_cycles
            if instr:
                rows.append((
                    step_cycles, moved, evicted,
                    buffer.repack_events > repacks_before,
                    {"os": os_c, "ewise": ew_c, "is": is_c,
                     "extra": extra_c, "memory": mem_c},
                ))
            state.compute_ops += (
                plan.os_nnz[s] * act1 * f if s < plan.n_subtensors else 0.0
            )
            state.compute_ops += width(s - 1) * both * n_ops * f
            state.compute_ops += plan.scatter_nnz[s] * act2 * f + extra_ops_share
            state.is_ops += plan.scatter_nnz[s] * act2 * f
        buffer.drain_check()
        # Pipeline fill: the first DRAM access and the adder-tree drain
        # are exposed once per pair (hidden in steady state).
        fill = float(config.read_latency_cycles + cores.tree_depth)
        state.cycles += fill
        if instr:
            _replay(instr, rows, fill)

    # ------------------------------------------------------------------
    # Single streamed iteration (odd tail, or non-OEI workloads)
    # ------------------------------------------------------------------
    def _simulate_stream(
        self,
        plan: LoadPlan,
        profile: WorkloadProfile,
        k: int,
        memory: MemoryController,
        cores: ComputePipeline,
        instr: Instrumentation,
        state: "_RunState",
    ) -> None:
        """One producer-consumer-fused pass: the matrix streams once,
        e-wise consumes OS output on-chip, final outputs write back."""
        config = self.config
        f = profile.feature_dim
        act = profile.activity_at(k)
        n_ops = profile.total_ewise_ops
        extra_dram_share = profile.extra_dram_bytes_per_iteration / max(1, plan.n_subtensors)
        extra_ops_share = profile.extra_ops_per_iteration / max(1, plan.n_subtensors)

        rows = []
        for t in range(plan.n_subtensors):
            w = float(plan.subtensor_width[t])
            vec_read = VECTOR_ELEMENT_BYTES * f * w * (act + profile.aux_streams * act)
            writeback = VECTOR_ELEMENT_BYTES * f * w * profile.writeback_streams * act
            demand_by_category = {
                "csc": float(plan.csc_bytes[t]),
                "vector": vec_read + extra_dram_share,
                "writeback": writeback,
            }

            os_c = cores.os_cycles(plan.os_nnz[t] * act, f)
            ew_c = cores.ewise_cycles(w * act, n_ops, f)
            extra_c = cores.extra_cycles(extra_ops_share)
            mem_c = memory.demand_cycles(demand_by_category)
            step_cycles = max(os_c, ew_c, extra_c, mem_c, float(config.step_overhead_cycles))

            moved = {
                "csc": float(plan.csc_bytes[t]),
                "vector": vec_read + extra_dram_share,
                "writeback": writeback,
            }
            for cat, val in moved.items():
                if val:
                    memory.transfer(cat, val)
            state.cycles += step_cycles
            if instr:
                rows.append((
                    step_cycles, moved, 0.0, False,
                    {"os": os_c, "ewise": ew_c, "extra": extra_c, "memory": mem_c},
                ))
            state.compute_ops += (
                plan.os_nnz[t] * act * f + w * act * n_ops * f + extra_ops_share
            )
        fill = float(config.read_latency_cycles + cores.tree_depth)
        state.cycles += fill
        if instr:
            _replay(instr, rows, fill)


def _replay(instr: Instrumentation, rows: list, fill: float) -> None:
    """Transpose one pair's or stream's per-step ``(cycles, moved,
    evict, repack, stages)`` rows into a :class:`ReplayBatch` closed by
    its fill charge, and deliver it."""
    cycles, moved, evict, repack, stages = zip(*rows) if rows else [()] * 5
    instr.replay(ReplayBatch(
        np.array(cycles, dtype=np.float64), _columns(moved),
        np.array(evict, dtype=np.float64), np.array(repack, dtype=bool),
        _columns(stages), fill,
    ))


def _columns(dicts: tuple) -> tuple:
    """``(key, column)`` pairs, in key order, from per-step dicts."""
    return tuple(
        (key, np.array([d[key] for d in dicts], dtype=np.float64))
        for key in (dicts[0] if dicts else ())
    )


class _RunState:
    """Mutable accumulators shared across pairs within one run."""

    def __init__(self) -> None:
        self.cycles = 0.0
        self.compute_ops = 0.0
        self.is_ops = 0.0
