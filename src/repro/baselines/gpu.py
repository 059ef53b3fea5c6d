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
from functools import partial
from typing import Union

from repro.arch.config import GPU_GDDR6X, MemoryConfig
from repro.arch.profile import WorkloadProfile
from repro.arch.stats import SimResult
from repro.baselines.roofline import framework_run, unfused_vector_bytes
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

    def run(
        self,
        profile: WorkloadProfile,
        matrix: Union[COOMatrix, PreprocessResult],
        paper_nnz: int = None,
    ) -> SimResult:
        return framework_run(
            self, "gpu", profile, matrix, paper_nnz,
            cache_bytes=self.l2_bytes, overhead_s=self.launch_overhead_s,
            vector_bytes=partial(unfused_vector_bytes, fused_ewise=False),
        )

