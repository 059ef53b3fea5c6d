"""Graph convolutional network inference (Fig 5 of the paper).

Each layer computes ``H' = ReLU((A x H) W)``: a sparse-times-dense SpMM
against the normalized adjacency, a dense feature transform, and a
ReLU. Since the SpMM decomposes into per-feature ``vxm`` and neither
the MM nor the ReLU blocks individual elements, layers fuse under OEI
(the paper's cross-*stage* variant of cross-iteration reuse). The
profile carries ``feature_dim`` and the dense-MM op count.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.dataflow.graph import DataflowGraph
from repro.graphblas.matrix import Matrix
from repro.graphblas.ops import mxm_dense
from repro.semiring.semirings import MUL_ADD
from repro.workloads.base import FunctionalResult, Workload


class GCN(Workload):
    name = "gcn"
    semiring = "mul_add"
    domain = "Machine Learning"

    def __init__(self, feature_dim: int = 16, n_layers: int = 4) -> None:
        if feature_dim < 1 or n_layers < 1:
            raise ValueError("feature_dim and n_layers must be >= 1")
        self.feature_dim = feature_dim
        self.n_layers = n_layers

    def build_graph(self) -> DataflowGraph:
        g = DataflowGraph("gcn")
        a = g.matrix("A")
        h = g.vector("H")          # feature rows, width = feature_dim
        agg = g.vector("AH")
        activated = g.vector("H_next")
        g.vxm("aggregate", h, a, agg, self.semiring)
        # The dense transform is modeled as per-element work (a row of
        # H times W touches only that row) followed by ReLU.
        transformed = g.vector("HW")
        g.ewise("transform", "times", [agg], transformed, scalar_operand="w_scale")
        g.ewise("relu", "relu", [transformed], activated)
        g.carry(activated, h)
        return g

    def _profile_overrides(self) -> Dict[str, object]:
        # Dense MM: n x F x F multiply-adds per layer, plus the weight
        # matrix fetch (F x F x 8 bytes, negligible but accounted).
        return {
            "feature_dim": self.feature_dim,
            "extra_ops_per_iteration": 0.0,  # filled per matrix in profile()
        }

    def profile(self, matrix=None, n_iterations=None, **params):
        """Timing profile of ``n_layers`` dense layers.

        The functional run is always skipped: it returns ``n_layers``
        iterations and no activity on every matrix, and those two are
        all a :class:`WorkloadProfile` reads of it.
        """
        if n_iterations is None:
            n_iterations = self.n_layers
        prof = super().profile(matrix=matrix, n_iterations=n_iterations, **params)
        n = matrix.nrows if matrix is not None else 0
        from dataclasses import replace

        return replace(
            prof,
            feature_dim=self.feature_dim,
            extra_ops_per_iteration=2.0 * n * self.feature_dim * self.feature_dim,
            extra_dram_bytes_per_iteration=8.0 * self.feature_dim * self.feature_dim,
        )

    def run_functional(self, matrix: Matrix, **params) -> FunctionalResult:
        n = matrix.nrows
        rng = np.random.default_rng(params.get("seed", 0))
        features = rng.random((n, self.feature_dim))
        weights = [
            rng.normal(0, 1.0 / np.sqrt(self.feature_dim), (self.feature_dim, self.feature_dim))
            for _ in range(self.n_layers)
        ]
        norm = self._normalized(matrix)
        h = features
        for w in weights:
            h = np.maximum(mxm_dense(norm, h, MUL_ADD) @ w, 0.0)
        return FunctionalResult(
            output=h,
            n_iterations=self.n_layers,
            extras={"weights": weights, "features": features},
        )

    @staticmethod
    def _normalized(matrix: Matrix) -> Matrix:
        """Symmetric degree normalization D^-1/2 (A + I) D^-1/2."""
        from repro.formats.coo import COOMatrix

        coo = matrix.coo
        n = matrix.nrows
        rows = np.concatenate((coo.rows, np.arange(n)))
        cols = np.concatenate((coo.cols, np.arange(n)))
        vals = np.concatenate((np.ones(coo.nnz), np.ones(n)))
        deg = np.bincount(rows, minlength=n).astype(np.float64)
        scale = 1.0 / np.sqrt(np.maximum(deg, 1.0))
        vals = vals * scale[rows] * scale[cols]
        return Matrix(COOMatrix((n, n), rows, cols, vals))
