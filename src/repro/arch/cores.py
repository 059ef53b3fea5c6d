"""Timing models of the three compute cores (Section IV-C).

All three cores are arrays of ``pes_per_core`` identical PEs; they
differ in how work maps onto the array:

- the **OS core** reduces columns with a SIGMA-style forwarding adder
  tree, so a sub-tensor's cost is its non-zero count spread over the
  PEs plus the tree's pipeline depth;
- the **E-Wise core** executes the fused instruction stream in SIMD
  over the sub-tensor's elements;
- the **IS core** scatters element-row products; its cost is the number
  of products it may legally compute this step.
"""

from __future__ import annotations

import math

from repro.arch.config import SparsepipeConfig


class ComputePipeline:
    """Cycle cost calculators shared by the simulator."""

    def __init__(self, config: SparsepipeConfig) -> None:
        self._pes = config.pes_per_core
        #: Forwarding-adder-tree drain depth (log2 of the PE array).
        self._tree_depth = max(1, int(math.ceil(math.log2(config.pes_per_core))))

    @property
    def tree_depth(self) -> int:
        """Forwarding-adder-tree pipeline depth — a latency, not a
        throughput cost (the tree is fully pipelined)."""
        return self._tree_depth

    def os_cycles(self, nnz: float, feature_dim: int = 1) -> float:
        """Dot-product work of one column sub-tensor."""
        if nnz <= 0:
            return 0.0
        return math.ceil(nnz * feature_dim / self._pes)

    def ewise_cycles(self, elements: float, n_ops: int, feature_dim: int = 1) -> float:
        """SIMD evaluation of the fused instruction stream."""
        if elements <= 0 or n_ops <= 0:
            return 0.0
        return math.ceil(elements * feature_dim / self._pes) * n_ops

    def is_cycles(self, scatter_nnz: float, feature_dim: int = 1) -> float:
        """Scatter-multiply work legal at this step."""
        if scatter_nnz <= 0:
            return 0.0
        return math.ceil(scatter_nnz * feature_dim / self._pes)

    def extra_cycles(self, ops: float) -> float:
        """Off-pipeline compute (dense MM, solver dots), at full array
        throughput."""
        if ops <= 0:
            return 0.0
        return ops / self._pes
