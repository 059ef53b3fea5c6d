"""GraphBLAS-style sparse matrix wrapper.

Holds the canonical COO form and lazily materializes CSR (row access,
IS stage / ``mxv``) and CSC (column access, OS stage / ``vxm``) images —
the host-side mirror of Sparsepipe's dual sparse storage.

The matrix never changes across solver iterations, so its structure is
derived once and reused by every contraction: the per-entry row and
column segment ids are cached next to the two images, read-only, the
way Sparsepipe streams the loop-invariant index arrays once. Threads
that contract one matrix at once share them, and each is built once.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Tuple

import numpy as np

from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix

#: Guards the lazy CSR, CSC and column ids, so threads that reach one at
#: once build it once. Re-entrant: ``col_ids`` builds the CSC first.
_BUILD_LOCK = threading.RLock()


class Matrix:
    """Immutable sparse matrix with lazy dual-orientation views."""

    def __init__(self, coo: COOMatrix) -> None:
        self._coo = coo.deduplicate()
        self._csr: Optional[CSRMatrix] = None
        self._csc: Optional[CSCMatrix] = None
        self._row_ids: Optional[np.ndarray] = None
        self._col_ids: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "Matrix":
        return cls(COOMatrix.from_dense(dense))

    @classmethod
    def from_entries(
        cls,
        shape: Tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ) -> "Matrix":
        return cls(COOMatrix(shape, rows, cols, vals))

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "Matrix":
        """Canonicalized like any other input: duplicates summed and
        explicit zeros dropped, so the CSR view is rebuilt from the
        canonical COO rather than kept."""
        return cls(csr.to_coo())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self._coo.shape

    @property
    def nrows(self) -> int:
        return self._coo.nrows

    @property
    def ncols(self) -> int:
        return self._coo.ncols

    @property
    def nnz(self) -> int:
        return self._coo.nnz

    @property
    def coo(self) -> COOMatrix:
        return self._coo

    def _build(self, attr: str, build: Callable[[], object]) -> None:
        """Set the lazy ``attr`` to ``build()`` unless another thread
        already has."""
        with _BUILD_LOCK:
            if getattr(self, attr) is None:
                setattr(self, attr, build())

    @property
    def csr(self) -> CSRMatrix:
        """Row-oriented view, built on first use."""
        if self._csr is None:
            self._build("_csr", lambda: CSRMatrix.from_coo(self._coo))
        return self._csr

    @property
    def csc(self) -> CSCMatrix:
        """Column-oriented view, built on first use."""
        if self._csc is None:
            self._build("_csc", lambda: CSCMatrix.from_coo(self._coo))
        return self._csc

    @property
    def row_ids(self) -> np.ndarray:
        """Row of each CSR entry — the sorted segment ids of ``mxv``.
        The CSR is built from the canonical COO, which lists its entries
        in CSR order, so these are the COO's rows: a read-only view of
        them, not a copy, since every later contraction shares it."""
        if self._row_ids is None:
            ids = self._coo.rows.view()
            ids.flags.writeable = False
            self._row_ids = ids
        return self._row_ids

    @property
    def col_ids(self) -> np.ndarray:
        """Column of each CSC entry — the sorted segment ids of ``vxm``;
        built once and read-only, like :attr:`row_ids`."""
        if self._col_ids is None:
            self._build("_col_ids", lambda: _segment_ids(self.csc.col_nnz()))
        return self._col_ids

    def to_dense(self) -> np.ndarray:
        return self._coo.to_dense()

    def transpose(self) -> "Matrix":
        return Matrix(self._coo.transpose())

    def row_degrees(self) -> np.ndarray:
        """Stored entries per row (out-degree for a graph adjacency)."""
        return self.csr.row_nnz()

    def col_degrees(self) -> np.ndarray:
        """Stored entries per column (in-degree for a graph adjacency)."""
        return self.csc.col_nnz()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Matrix(shape={self.shape}, nnz={self.nnz})"


def _segment_ids(counts: np.ndarray) -> np.ndarray:
    """``i`` repeated ``counts[i]`` times, as a read-only array."""
    ids = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    ids.flags.writeable = False
    return ids
