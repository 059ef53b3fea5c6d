"""CPU baseline: ALP/GraphBLAS on an AMD 5800X3D-class multicore
(Section V-B, Fig 16 / Fig 22).

The model captures the three effects the paper attributes the CPU
results to:

- 40 GB/s DDR4 delivered at a realistic utilization (the paper
  measures 44 GB/s peak; streaming sparse kernels achieve well below
  peak — Fig 22),
- a large last-level cache (96 MB V-cache): when the matrix fits, it
  streams from DRAM only once for the whole run,
- non-blocking execution fuses producer-consumer chains (the paper
  credits ALP with this), but there is **no cross-iteration reuse**,
- per-operator framework overhead per iteration.

Cache capacity is scaled with the same per-matrix factor as the
Sparsepipe buffer (DESIGN.md), preserving the paper's fits/doesn't-fit
pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.arch.config import CPU_DDR4, MemoryConfig
from repro.arch.profile import WorkloadProfile
from repro.arch.stats import SimResult
from repro.baselines.roofline import framework_run, fused_vector_bytes
from repro.formats.coo import COOMatrix
from repro.preprocess.pipeline import PreprocessResult

#: The 5800X3D's stacked V-cache capacity.
PAPER_LLC_BYTES = 96 * 1024 * 1024


@dataclass(frozen=True)
class CPUModel:
    """Analytical multicore STA framework model."""

    memory: MemoryConfig = CPU_DDR4
    bandwidth_utilization: float = 0.62   #: achieved / peak for sparse streams
    effective_gops: float = 55.0          #: semiring ops/s the cores sustain (x1e9)
    operator_overhead_s: float = 2.0e-6   #: framework dispatch per operator
    llc_bytes: float = PAPER_LLC_BYTES
    #: Fraction of matrix re-reads served by the cache when the matrix
    #: fits. Real frameworks never get full residency (conflict misses,
    #: vector traffic, metadata); Fig 22 shows caches *reduce* traffic
    #: for small matrices without eliminating it.
    cache_hit_rate: float = 0.6

    def run(
        self,
        profile: WorkloadProfile,
        matrix: Union[COOMatrix, PreprocessResult],
        paper_nnz: int = None,
    ) -> SimResult:
        return framework_run(
            self, "cpu", profile, matrix, paper_nnz,
            cache_bytes=self.llc_bytes, overhead_s=self.operator_overhead_s,
            vector_bytes=fused_vector_bytes,
        )
