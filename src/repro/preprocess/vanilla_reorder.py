"""The paper's "vanilla" reorder: a simple heuristic that pushes a
sparse matrix toward upper-triangular / banded structure.

Under the OEI dataflow an element ``(i, j)`` stays on chip from step
``j`` (when the OS stage loads column ``j``) to step ``i + 2`` (when the
IS stage scatters row ``i``), so the reuse window shrinks exactly when
``i - j`` shrinks — i.e. when the matrix bandwidth shrinks. We realize
the heuristic as a breadth-first (Cuthill-McKee style) levelization:
each vertex is placed right after its already-placed neighbors, ordered
by degree, which is both simple and effective at banding graph
matrices.
"""

from __future__ import annotations

from collections import deque
from typing import List

import numpy as np

from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix


def _symmetrized_csr(coo: COOMatrix) -> CSRMatrix:
    """Undirected adjacency view of a possibly-directed matrix."""
    rows = np.concatenate((coo.rows, coo.cols))
    cols = np.concatenate((coo.cols, coo.rows))
    vals = np.ones(rows.size)
    return CSRMatrix.from_coo(COOMatrix(coo.shape, rows, cols, vals))


def vanilla_reorder(coo: COOMatrix) -> np.ndarray:
    """Return a permutation ``perm`` with ``perm[old] = new``.

    Applying it symmetrically (rows and columns) relabels graph vertices
    so neighbors get nearby indices, banding the matrix.
    """
    if coo.nrows != coo.ncols:
        raise ValueError(f"reordering expects a square matrix, got {coo.shape}")
    n = coo.nrows
    adj = _symmetrized_csr(coo)
    degree = adj.row_nnz()
    # Plain-list row bounds: one Python index per visit instead of a
    # bounds-checked slice call (the loop visits every vertex once).
    indptr = adj.indptr.tolist()
    indices = adj.indices
    visited = np.zeros(n, dtype=bool)
    order: List[int] = []

    # Min-degree start vertex per connected component (classic CM).
    by_degree = np.argsort(degree, kind="stable")
    for start in by_degree.tolist():
        if visited[start]:
            continue
        visited[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            order.append(u)
            neighbors = indices[indptr[u]:indptr[u + 1]]
            fresh = neighbors[~visited[neighbors]]
            if fresh.size:
                visited[fresh] = True
                if fresh.size > 1:
                    fresh = fresh[np.argsort(degree[fresh], kind="stable")]
                queue.extend(fresh.tolist())

    perm = np.empty(n, dtype=np.int64)
    perm[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    return perm


def bandwidth(coo: COOMatrix) -> int:
    """Matrix bandwidth ``max |i - j|`` over stored entries — the scalar
    the vanilla reorder tries to reduce."""
    if coo.nnz == 0:
        return 0
    return int(np.abs(coo.rows - coo.cols).max())
