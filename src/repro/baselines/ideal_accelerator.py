"""The idealized sparse accelerator baseline (Section V-B).

Same compute array and memory bandwidth as Sparsepipe, *always at its
roofline* (no pipeline stalls, no load imbalance, no buffer pressure),
but no inter-operator reuse: the sparse matrix streams from DRAM every
iteration and every operator's intermediate vector round-trips through
memory. It upper-bounds all prior intra-operator accelerators.
"""

from __future__ import annotations

from typing import Union

from repro.arch.config import SparsepipeConfig
from repro.arch.loaders import LoadPlan
from repro.arch.profile import WorkloadProfile
from repro.arch.stats import SimResult, TrafficBreakdown
from repro.baselines.roofline import (
    iteration_compute_cycles,
    iteration_ops,
    roofline_result,
    unfused_vector_bytes,
)
from repro.formats.coo import COOMatrix
from repro.preprocess.pipeline import PreprocessResult


class IdealAccelerator:
    """Roofline model with per-iteration matrix streaming."""

    def __init__(self, config: SparsepipeConfig = SparsepipeConfig()) -> None:
        self.config = config

    def run(
        self,
        profile: WorkloadProfile,
        matrix: Union[COOMatrix, PreprocessResult],
        paper_nnz: int = None,
    ) -> SimResult:
        """``paper_nnz`` is accepted for interface parity and ignored —
        this baseline is buffer-size-independent by construction."""
        config = self.config
        plan = LoadPlan.from_matrix(matrix, config.subtensor_cols)
        bpc = config.bytes_per_cycle
        pes = config.pes_per_core

        traffic = TrafficBreakdown()
        cycles = 0.0
        ops_total = 0.0
        for k in range(profile.n_iterations):
            matrix_bytes = plan.matrix_stream_bytes
            vector_bytes = unfused_vector_bytes(plan.n, profile, k)
            ops = iteration_ops(plan.total_nnz, plan.n, profile, k)
            mem_cycles = (matrix_bytes + vector_bytes) / bpc
            compute_cycles = iteration_compute_cycles(
                plan.total_nnz, plan.n, profile, k, pes
            )
            cycles += max(mem_cycles, compute_cycles)
            ops_total += ops
            traffic.add("csc", matrix_bytes)
            traffic.add("vector", vector_bytes)

        return roofline_result(
            "ideal", profile, cycles=cycles, seconds=config.seconds(cycles),
            deliverable=cycles * bpc, traffic=traffic, compute_ops=ops_total,
        )
