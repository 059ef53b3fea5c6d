"""Software OEI on general-purpose hardware — the paper's first
future-work question, made concrete.

Section VIII asks: *"how to implement the OEI dataflow on
general-purpose hardware (e.g., GPGPU), and design the extra hardware
support to facilitate the buffer management and synchronization across
stages?"* — and Section II-B argues that doing it purely in software
"can be both challenging and inefficient, negating the potential
benefits".

This model quantifies that argument: a CPU executing OEI pairs in
software gets the halved matrix traffic, but pays

- software buffer management: every reuse-window element is inserted
  into and evicted from a cache-resident staging structure by ordinary
  instructions (``buffer_mgmt_ops_per_element``),
- cross-stage synchronization per sub-tensor step
  (``sync_overhead_s``), since OS/e-wise/IS are threads, not pipeline
  stages,
- the same limited bandwidth utilization as the plain CPU framework.

Comparing :class:`SoftwareOEIModel` against :class:`~repro.baselines.
cpu.CPUModel` and the iso-CPU Sparsepipe shows where the hardware
support actually pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.arch.config import CPU_DDR4, MemoryConfig
from repro.arch.loaders import LoadPlan
from repro.arch.profile import WorkloadProfile
from repro.arch.stats import SimResult, TrafficBreakdown
from repro.baselines.roofline import (
    fused_vector_bytes,
    iteration_ops,
    pair_vector_bytes,
)
from repro.formats.coo import COOMatrix
from repro.preprocess.pipeline import PreprocessResult


@dataclass(frozen=True)
class SoftwareOEIModel:
    """ALP/GraphBLAS-class CPU running the OEI pair schedule in
    software."""

    memory: MemoryConfig = CPU_DDR4
    bandwidth_utilization: float = 0.62
    effective_gops: float = 55.0
    #: Instructions spent staging one matrix element through the
    #: software reuse window (insert, index update, eviction check).
    buffer_mgmt_ops_per_element: float = 6.0
    #: Thread synchronization per sub-tensor pipeline step.
    sync_overhead_s: float = 1.5e-6
    subtensor_cols: int = 128

    def prepare(
        self, profile: WorkloadProfile, matrix: Union[COOMatrix, PreprocessResult]
    ) -> LoadPlan:
        return LoadPlan.from_matrix(matrix, self.subtensor_cols)

    def run(
        self,
        profile: WorkloadProfile,
        matrix: Union[COOMatrix, PreprocessResult],
        paper_nnz: int = None,
    ) -> SimResult:
        plan = self.prepare(profile, matrix)
        sync = self.sync_overhead_s
        if paper_nnz is not None:
            sync = self.sync_overhead_s * plan.total_nnz / paper_nnz

        achieved_bw = self.memory.bandwidth_gbps * 1e9 * self.bandwidth_utilization
        gops = self.effective_gops * 1e9

        traffic = TrafficBreakdown()
        seconds = 0.0
        ops_total = 0.0
        k = 0
        while k < profile.n_iterations:
            paired = profile.has_oei and k + 1 < profile.n_iterations
            if paired:
                matrix_bytes = plan.matrix_stream_bytes
                vector_bytes = pair_vector_bytes(plan.n, profile, k)
                ops = iteration_ops(plan.total_nnz, plan.n, profile, k)
                ops += iteration_ops(plan.total_nnz, plan.n, profile, k + 1)
                # Every element passes through the software window once.
                ops += plan.total_nnz * self.buffer_mgmt_ops_per_element
                steps = plan.n_steps
                step = 2
            else:
                matrix_bytes = plan.matrix_stream_bytes
                vector_bytes = fused_vector_bytes(plan.n, profile, k)
                ops = iteration_ops(plan.total_nnz, plan.n, profile, k)
                steps = plan.n_subtensors
                step = 1
            mem_s = (matrix_bytes + vector_bytes) / achieved_bw
            compute_s = ops / gops
            seconds += max(mem_s, compute_s) + steps * sync
            ops_total += ops
            traffic.add("csc", matrix_bytes)
            traffic.add("vector", vector_bytes)
            k += step

        total = traffic.total_bytes
        deliverable = seconds * self.memory.bandwidth_gbps * 1e9
        return SimResult(
            name=f"software-oei:{profile.name}",
            cycles=seconds * 1e9,
            seconds=seconds,
            traffic=traffic,
            bandwidth_utilization=min(1.0, total / deliverable) if deliverable else 0.0,
            bandwidth_samples=[],
            compute_ops=ops_total,
            buffer_peak_bytes=0.0,
            oom_evicted_bytes=0.0,
            repack_events=0,
            n_iterations=profile.n_iterations,
            sram_access_bytes=2.0 * total,
        )
