"""Shared roofline arithmetic and run skeleton for the baseline models.

Every baseline times an iteration as
``max(traffic / achievable_bandwidth, operations / peak_compute)`` plus
model-specific overheads; they differ in *which* traffic they pay:

- fused (producer-consumer reuse): input vector + auxiliary operand
  vectors + final writebacks only,
- unfused: additionally the contraction output and every e-wise
  intermediate makes a DRAM round trip.

Every baseline returns through :func:`roofline_result`. The CPU and GPU
framework models share one iteration loop, :func:`framework_run`, and
differ only in their constants and their vector-traffic function; the
oracle and software OEI price each pass of the OEI schedule with
:func:`oei_pass_cost`.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

from repro.arch.config import VECTOR_ELEMENT_BYTES
from repro.arch.loaders import LoadPlan
from repro.arch.profile import WorkloadProfile
from repro.arch.stats import SimResult, TrafficBreakdown
from repro.formats.coo import COOMatrix
from repro.preprocess.pipeline import PreprocessResult


def roofline_result(
    arch: str, profile: WorkloadProfile, *, cycles: float, seconds: float,
    deliverable: float, traffic: TrafficBreakdown, compute_ops: float,
    buffer_peak_bytes: float = 0.0,
) -> SimResult:
    """The one :class:`SimResult` assembly of the baselines, named
    ``arch:workload``. ``deliverable`` is the DRAM bytes the run could
    have moved; a roofline model keeps no bandwidth samples, evicts and
    repacks nothing, and passes each DRAM byte through SRAM twice."""
    total = traffic.total_bytes
    return SimResult(
        name=f"{arch}:{profile.name}",
        cycles=cycles,
        seconds=seconds,
        traffic=traffic,
        bandwidth_utilization=min(1.0, total / deliverable) if deliverable else 0.0,
        bandwidth_samples=[],
        compute_ops=compute_ops,
        buffer_peak_bytes=buffer_peak_bytes,
        oom_evicted_bytes=0.0,
        repack_events=0,
        n_iterations=profile.n_iterations,
        sram_access_bytes=2.0 * total,
    )


def framework_run(
    model, arch: str, profile: WorkloadProfile,
    matrix: Union[COOMatrix, PreprocessResult], paper_nnz: Optional[int], *,
    cache_bytes: float, overhead_s: float,
    vector_bytes: Callable[[int, WorkloadProfile, int], float],
) -> SimResult:
    """The CPU/GPU framework loop: each iteration streams the matrix
    (when it fits in ``cache_bytes``, re-reads hit at
    ``model.cache_hit_rate``), pays ``vector_bytes`` of vector traffic
    and ``overhead_s`` per operator. No cross-iteration reuse."""
    plan = LoadPlan.from_matrix(matrix, subtensor_cols=128)
    if paper_nnz is not None:
        # Scale capacity *and* fixed time overheads by the same
        # per-matrix factor as the matrices themselves (DESIGN.md),
        # so the overhead-to-work ratio matches the paper's runs.
        scale = plan.total_nnz / paper_nnz
        cache_bytes = cache_bytes * scale
        overhead_s = overhead_s * scale
    # A single (CSR) orientation.
    matrix_bytes = plan.matrix_stream_bytes
    fits_in_cache = matrix_bytes <= cache_bytes

    achieved_bw = model.memory.bandwidth_gbps * 1e9 * model.bandwidth_utilization
    n_operators = 1 + profile.total_ewise_ops

    traffic = TrafficBreakdown()
    seconds = 0.0
    ops_total = 0.0
    for k in range(profile.n_iterations):
        if k == 0 or not fits_in_cache:
            stream = matrix_bytes
        else:
            stream = matrix_bytes * (1.0 - model.cache_hit_rate)
        vector = vector_bytes(plan.n, profile, k)
        ops = iteration_ops(plan.total_nnz, plan.n, profile, k)
        mem_s = (stream + vector) / achieved_bw
        compute_s = ops / (model.effective_gops * 1e9)
        seconds += max(mem_s, compute_s) + n_operators * overhead_s
        ops_total += ops
        traffic.add("csc", stream)
        traffic.add("vector", vector)

    return roofline_result(
        arch, profile, cycles=seconds * 1e9,  # nominal 1 GHz accounting cycles
        seconds=seconds,
        deliverable=seconds * model.memory.bandwidth_gbps * 1e9,
        traffic=traffic, compute_ops=ops_total,
        buffer_peak_bytes=min(matrix_bytes, cache_bytes),
    )


def fused_vector_bytes(n: int, profile: WorkloadProfile, iteration: int) -> float:
    """Vector traffic of one iteration with producer-consumer fusion."""
    act = profile.activity_at(iteration)
    streams = 1 + profile.aux_streams + profile.writeback_streams
    return (
        VECTOR_ELEMENT_BYTES * n * profile.feature_dim * act * streams
        + profile.extra_dram_bytes_per_iteration
    )


def unfused_vector_bytes(
    n: int, profile: WorkloadProfile, iteration: int, fused_ewise: bool = True
) -> float:
    """Vector traffic of one iteration without inter-operator reuse.

    ``fused_ewise=True`` models an accelerator that still fuses the
    e-wise chain internally (any competent design does) but stages the
    contraction output through DRAM: x read, y written then re-read,
    final output written. ``fused_ewise=False`` models kernel-per-
    operator execution (GraphBLAST-style GPUs), where every e-wise
    intermediate also round-trips.
    """
    act = profile.activity_at(iteration)
    per_element = VECTOR_ELEMENT_BYTES * profile.feature_dim * act
    if fused_ewise:
        chain_streams = 3 + profile.writeback_streams  # x, y out, y in, out
    else:
        chain_streams = 2 + 2 * profile.total_ewise_ops
    aux = profile.aux_streams
    return per_element * n * (chain_streams + aux) + (
        profile.extra_dram_bytes_per_iteration
    )


def pair_vector_bytes(n: int, profile: WorkloadProfile, iteration: int) -> float:
    """Vector traffic of one fused OEI pair (iterations k and k+1): the
    first input vector is read, both auxiliary streams are read, both
    outputs are written; the intermediate vector lives on chip."""
    act1 = profile.activity_at(iteration)
    act2 = profile.activity_at(iteration + 1)
    per_element = VECTOR_ELEMENT_BYTES * profile.feature_dim
    return per_element * n * (
        act1
        + profile.aux_streams * (act1 + act2)
        + profile.writeback_streams * (act1 + act2)
    ) + 2 * profile.extra_dram_bytes_per_iteration


def iteration_ops(nnz: int, n: int, profile: WorkloadProfile, iteration: int) -> float:
    """PE operations of one iteration (contraction + e-wise + extras)."""
    act = profile.activity_at(iteration)
    f = profile.feature_dim
    return (
        nnz * act * f
        + n * act * f * profile.total_ewise_ops
        + profile.extra_ops_per_iteration
    )


def iteration_compute_cycles(
    nnz: int, n: int, profile: WorkloadProfile, iteration: int, pes_per_core: int
) -> float:
    """Compute cycles of one iteration on a Sparsepipe-class machine:
    the contraction, e-wise, and extra work run on *separate* cores and
    overlap perfectly, so the bound is the slowest core, not the sum.
    Used by the idealized and oracle accelerators, which share
    Sparsepipe's compute organization."""
    act = profile.activity_at(iteration)
    f = profile.feature_dim
    slowest = max(
        nnz * act * f,
        n * act * f * profile.total_ewise_ops,
        profile.extra_ops_per_iteration,
    )
    return slowest / pes_per_core


def oei_pass_cost(
    plan: LoadPlan, profile: WorkloadProfile, iteration: int, paired: bool
) -> Tuple[float, float]:
    """``(vector bytes, PE operations)`` of one pass of the OEI schedule
    with producer-consumer fusion: a fused pair (iterations k and k+1)
    or one streamed iteration."""
    nnz, n = plan.total_nnz, plan.n
    ops = iteration_ops(nnz, n, profile, iteration)
    if not paired:
        return fused_vector_bytes(n, profile, iteration), ops
    ops += iteration_ops(nnz, n, profile, iteration + 1)
    return pair_vector_bytes(n, profile, iteration), ops
