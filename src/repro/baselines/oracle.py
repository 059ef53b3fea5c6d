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
    iteration_compute_cycles,
    oei_pass_cost,
    roofline_result,
)
from repro.formats.coo import COOMatrix
from repro.oei.schedule import oei_passes
from repro.preprocess.pipeline import PreprocessResult


class OracleAccelerator:
    """Roofline model of a perfect OEI executor."""

    def __init__(self, config: SparsepipeConfig = SparsepipeConfig()) -> None:
        self.config = config

    def run(
        self,
        profile: WorkloadProfile,
        matrix: Union[COOMatrix, PreprocessResult],
        paper_nnz: int = None,
    ) -> SimResult:
        config = self.config
        plan = LoadPlan.from_matrix(matrix, config.subtensor_cols)
        bpc = config.bytes_per_cycle
        pes = config.pes_per_core

        traffic = TrafficBreakdown()
        cycles = 0.0
        ops_total = 0.0
        for k, paired in oei_passes(profile.n_iterations, profile.has_oei):
            vector_bytes, ops = oei_pass_cost(plan, profile, k, paired)
            compute = iteration_compute_cycles(plan.total_nnz, plan.n, profile, k, pes)
            if paired:
                compute += iteration_compute_cycles(
                    plan.total_nnz, plan.n, profile, k + 1, pes
                )
            mem_bytes = plan.matrix_stream_bytes + vector_bytes
            cycles += max(mem_bytes / bpc, compute)
            ops_total += ops
            traffic.add("csc", plan.matrix_stream_bytes)
            traffic.add("vector", vector_bytes)

        return roofline_result(
            "oracle", profile, cycles=cycles, seconds=config.seconds(cycles),
            deliverable=cycles * bpc, traffic=traffic, compute_ops=ops_total,
            buffer_peak_bytes=float(plan.matrix_stream_bytes),
        )
