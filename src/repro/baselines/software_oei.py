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
from repro.baselines.roofline import oei_pass_cost, roofline_result
from repro.formats.coo import COOMatrix
from repro.oei.schedule import oei_passes
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

    def run(
        self,
        profile: WorkloadProfile,
        matrix: Union[COOMatrix, PreprocessResult],
        paper_nnz: int = None,
    ) -> SimResult:
        plan = LoadPlan.from_matrix(matrix, self.subtensor_cols)
        sync = self.sync_overhead_s
        if paper_nnz is not None:
            sync = self.sync_overhead_s * plan.total_nnz / paper_nnz

        achieved_bw = self.memory.bandwidth_gbps * 1e9 * self.bandwidth_utilization
        gops = self.effective_gops * 1e9

        traffic = TrafficBreakdown()
        seconds = 0.0
        ops_total = 0.0
        matrix_bytes = plan.matrix_stream_bytes
        for k, paired in oei_passes(profile.n_iterations, profile.has_oei):
            vector_bytes, ops = oei_pass_cost(plan, profile, k, paired)
            if paired:
                # Every element passes through the software window once.
                ops += plan.total_nnz * self.buffer_mgmt_ops_per_element
            steps = plan.n_steps if paired else plan.n_subtensors
            mem_s = (matrix_bytes + vector_bytes) / achieved_bw
            compute_s = ops / gops
            seconds += max(mem_s, compute_s) + steps * sync
            ops_total += ops
            traffic.add("csc", matrix_bytes)
            traffic.add("vector", vector_bytes)

        return roofline_result(
            "software-oei", profile, cycles=seconds * 1e9, seconds=seconds,
            deliverable=seconds * self.memory.bandwidth_gbps * 1e9,
            traffic=traffic, compute_ops=ops_total,
        )
