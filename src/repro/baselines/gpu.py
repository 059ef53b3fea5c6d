"""GPU baseline: GraphBLAST/Gunrock on an RTX 4070-class GPU
(Section V-B, Fig 17 / Fig 22).

Kernel-per-operator execution means operator intermediates round-trip
through device memory (no producer-consumer fusion across kernels) and
every operator launch pays fixed overhead; the L2 (scaled per matrix
like the Sparsepipe buffer) absorbs matrix re-reads only when the
matrix fits. No cross-iteration reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.arch.config import GPU_GDDR6X, MemoryConfig
from repro.arch.loaders import LoadPlan
from repro.arch.profile import WorkloadProfile
from repro.arch.stats import SimResult, TrafficBreakdown
from repro.baselines.roofline import iteration_ops, unfused_vector_bytes
from repro.formats.coo import COOMatrix
from repro.preprocess.pipeline import PreprocessResult

#: RTX 4070 L2 capacity.
PAPER_L2_BYTES = 36 * 1024 * 1024


@dataclass(frozen=True)
class GPUModel:
    """Analytical GPU STA framework model."""

    memory: MemoryConfig = GPU_GDDR6X
    bandwidth_utilization: float = 0.72   #: sparse kernels vs peak (Fig 22)
    effective_gops: float = 2000.0        #: sustained semiring ops/s (x1e9)
    launch_overhead_s: float = 6.0e-6     #: per kernel launch
    l2_bytes: float = PAPER_L2_BYTES
    #: Fraction of matrix re-reads served by L2 when the matrix fits
    #: (partial — L2 is shared with vectors and intermediates).
    cache_hit_rate: float = 0.5

    def prepare(
        self, profile: WorkloadProfile, matrix: Union[COOMatrix, PreprocessResult]
    ) -> LoadPlan:
        return LoadPlan.from_matrix(matrix, subtensor_cols=128)

    def run(
        self,
        profile: WorkloadProfile,
        matrix: Union[COOMatrix, PreprocessResult],
        paper_nnz: int = None,
    ) -> SimResult:
        plan = self.prepare(profile, matrix)
        l2 = self.l2_bytes
        launch = self.launch_overhead_s
        if paper_nnz is not None:
            # Scale capacity and fixed time overheads with the matrices
            # (DESIGN.md) to preserve the paper's overhead-to-work ratio.
            scale = plan.total_nnz / paper_nnz
            l2 = self.l2_bytes * scale
            launch = self.launch_overhead_s * scale
        matrix_bytes = plan.matrix_stream_bytes
        fits_in_l2 = matrix_bytes <= l2

        achieved_bw = self.memory.bandwidth_gbps * 1e9 * self.bandwidth_utilization
        n_kernels = 1 + profile.total_ewise_ops

        traffic = TrafficBreakdown()
        seconds = 0.0
        ops_total = 0.0
        for k in range(profile.n_iterations):
            if k == 0 or not fits_in_l2:
                stream = matrix_bytes
            else:
                stream = matrix_bytes * (1.0 - self.cache_hit_rate)
            vector_bytes = unfused_vector_bytes(plan.n, profile, k, fused_ewise=False)
            ops = iteration_ops(plan.total_nnz, plan.n, profile, k)
            mem_s = (stream + vector_bytes) / achieved_bw
            compute_s = ops / (self.effective_gops * 1e9)
            seconds += max(mem_s, compute_s) + n_kernels * launch
            ops_total += ops
            traffic.add("csc", stream)
            traffic.add("vector", vector_bytes)

        total = traffic.total_bytes
        deliverable = seconds * self.memory.bandwidth_gbps * 1e9
        return SimResult(
            name=f"gpu:{profile.name}",
            cycles=seconds * 1e9,
            seconds=seconds,
            traffic=traffic,
            bandwidth_utilization=min(1.0, total / deliverable) if deliverable else 0.0,
            bandwidth_samples=[],
            compute_ops=ops_total,
            buffer_peak_bytes=min(matrix_bytes, l2),
            oom_evicted_bytes=0.0,
            repack_events=0,
            n_iterations=profile.n_iterations,
            sram_access_bytes=2.0 * total,
        )
