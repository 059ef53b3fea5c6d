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
from typing import List, Tuple

import numpy as np

from repro.formats.coo import COOMatrix


def _symmetrized_adjacency(coo: COOMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the undirected adjacency of a possibly
    directed matrix: the CSR pattern of ``A + Aᵀ``, each row's columns
    sorted and unique. Only the pattern is built; no values are summed."""
    n = coo.nrows
    keys = np.concatenate((coo.rows * n + coo.cols, coo.cols * n + coo.rows))
    keys.sort()
    if keys.size:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    rows, indices = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, indices


#: Adjacency rows up to this length are filtered and sorted as Python
#: lists; longer rows (hubs) go through numpy's filter and argsort,
#: whose per-call overhead only pays off on long rows.
LIST_ROW_MAX = 32


def vanilla_reorder(coo: COOMatrix) -> np.ndarray:
    """Return a permutation ``perm`` with ``perm[old] = new``.

    Applying it symmetrically (rows and columns) relabels graph vertices
    so neighbors get nearby indices, banding the matrix.
    """
    if coo.nrows != coo.ncols:
        raise ValueError(f"reordering expects a square matrix, got {coo.shape}")
    n = coo.nrows
    indptr, indices = _symmetrized_adjacency(coo)
    degree = np.diff(indptr)
    degree_of = degree.tolist().__getitem__
    # Plain-list row bounds: one Python index per visit instead of a
    # bounds-checked slice call (the loop visits every vertex once).
    indptr = indptr.tolist()
    # One set of visited flags, read and written by both row paths: as
    # bytes by the list path, as a bool array by the numpy path.
    flags = bytearray(n)
    visited = np.frombuffer(flags, dtype=bool)
    order: List[int] = []

    # Min-degree start vertex per connected component (classic CM).
    by_degree = np.argsort(degree, kind="stable")
    for start in by_degree.tolist():
        if flags[start]:
            continue
        flags[start] = 1
        queue = deque([start])
        while queue:
            u = queue.popleft()
            order.append(u)
            lo, hi = indptr[u], indptr[u + 1]
            if hi - lo <= LIST_ROW_MAX:
                fresh = [v for v in indices[lo:hi].tolist() if not flags[v]]
                for v in fresh:
                    flags[v] = 1
                # list.sort is stable, so ties keep their column order
                # exactly as argsort(kind="stable") does below.
                fresh.sort(key=degree_of)
                queue.extend(fresh)
            else:
                neighbors = indices[lo:hi]
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
