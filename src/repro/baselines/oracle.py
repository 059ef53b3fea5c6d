"""The oracle accelerator (Section VI-C, Fig 18).

Assumes every element of the input sparse matrix is already on chip
whenever a cross-iteration reuse opportunity presents, irrespective of
buffer size: OEI pairs execute perfectly — the matrix streams exactly
once per fused pair, nothing is evicted, no load imbalance, no pipeline
overhead. It is the theoretical upper limit of the OEI dataflow on the
given memory system; Sparsepipe's gap to it (the paper reports 66.78%
on average) is entirely buffer- and scheduling-induced.
"""

from __future__ import annotations

from typing import Union

from repro.arch.config import SparsepipeConfig
from repro.arch.loaders import LoadPlan
from repro.arch.profile import WorkloadProfile
from repro.arch.stats import SimResult, TrafficBreakdown
from repro.baselines.roofline import (
    fused_vector_bytes,
    iteration_compute_cycles,
    iteration_ops,
    pair_vector_bytes,
)
from repro.formats.coo import COOMatrix
from repro.preprocess.pipeline import PreprocessResult


class OracleAccelerator:
    """Roofline model of a perfect OEI executor."""

    def __init__(self, config: SparsepipeConfig = SparsepipeConfig()) -> None:
        self.config = config

    def prepare(
        self, profile: WorkloadProfile, matrix: Union[COOMatrix, PreprocessResult]
    ) -> LoadPlan:
        return LoadPlan.from_matrix(matrix, self.config.subtensor_cols)

    def run(
        self,
        profile: WorkloadProfile,
        matrix: Union[COOMatrix, PreprocessResult],
        paper_nnz: int = None,
    ) -> SimResult:
        config = self.config
        plan = self.prepare(profile, matrix)
        bpc = config.bytes_per_cycle
        pes = config.pes_per_core

        traffic = TrafficBreakdown()
        cycles = 0.0
        ops_total = 0.0
        k = 0
        while k < profile.n_iterations:
            if profile.has_oei and k + 1 < profile.n_iterations:
                vector_bytes = pair_vector_bytes(plan.n, profile, k)
                ops = iteration_ops(plan.total_nnz, plan.n, profile, k)
                ops += iteration_ops(plan.total_nnz, plan.n, profile, k + 1)
                compute = iteration_compute_cycles(
                    plan.total_nnz, plan.n, profile, k, pes
                ) + iteration_compute_cycles(
                    plan.total_nnz, plan.n, profile, k + 1, pes
                )
                step = 2
            else:
                vector_bytes = fused_vector_bytes(plan.n, profile, k)
                ops = iteration_ops(plan.total_nnz, plan.n, profile, k)
                compute = iteration_compute_cycles(
                    plan.total_nnz, plan.n, profile, k, pes
                )
                step = 1
            mem_bytes = plan.matrix_stream_bytes + vector_bytes
            cycles += max(mem_bytes / bpc, compute)
            ops_total += ops
            traffic.add("csc", plan.matrix_stream_bytes)
            traffic.add("vector", vector_bytes)
            k += step

        seconds = config.seconds(cycles)
        total = traffic.total_bytes
        deliverable = cycles * bpc
        return SimResult(
            name=f"oracle:{profile.name}",
            cycles=cycles,
            seconds=seconds,
            traffic=traffic,
            bandwidth_utilization=min(1.0, total / deliverable) if deliverable else 0.0,
            bandwidth_samples=[],
            compute_ops=ops_total,
            buffer_peak_bytes=float(plan.matrix_stream_bytes),
            oom_evicted_bytes=0.0,
            repack_events=0,
            n_iterations=profile.n_iterations,
            sram_access_bytes=2.0 * total,
        )
