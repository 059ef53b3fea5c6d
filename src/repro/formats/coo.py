"""Coordinate-list (COO) sparse matrix.

COO is the interchange format of this library: generators emit COO,
MatrixMarket I/O reads and writes COO, and the compressed formats are
built from it. The paper explicitly rejects COO for the on-chip buffer
(Section IV-B) because it only serves the sorted dimension efficiently;
we keep it purely as a host-side construction format.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import FormatError, ShapeError
from repro.formats.convert import sum_duplicates


class COOMatrix:
    """An ``nrows x ncols`` sparse matrix as parallel coordinate arrays.

    Duplicate coordinates are allowed on construction and summed by
    :meth:`deduplicate`; the compressed formats require deduplicated,
    sorted input and call it internally.
    """

    def __init__(
        self,
        shape: Tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        nrows, ncols = shape
        if nrows < 0 or ncols < 0:
            raise ShapeError(f"matrix shape must be non-negative, got {shape}")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise FormatError(
                "rows, cols, vals must be 1-D arrays of equal length, got "
                f"shapes {rows.shape}, {cols.shape}, {vals.shape}"
            )
        if rows.size and (rows.min() < 0 or rows.max() >= nrows):
            raise FormatError("row coordinate out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= ncols):
            raise FormatError("column coordinate out of range")
        self.shape = (int(nrows), int(ncols))
        self.rows = rows
        self.cols = cols
        self.vals = vals

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries (including any duplicates)."""
        return int(self.rows.size)

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.vals.dtype

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.dtype})"

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build a COO matrix from a dense 2-D array, dropping zeros."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeError(f"expected a 2-D array, got ndim={dense.ndim}")
        rows, cols = np.nonzero(dense)
        return cls(dense.shape, rows, cols, dense[rows, cols])

    @classmethod
    def empty(cls, shape: Tuple[int, int], dtype=np.float64) -> "COOMatrix":
        """An all-zero matrix of the given shape."""
        zero = np.zeros(0, dtype=np.int64)
        return cls(shape, zero, zero.copy(), np.zeros(0, dtype=dtype))

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (duplicates are summed)."""
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------
    def deduplicate(self) -> "COOMatrix":
        """The matrix with duplicates summed, sorted row-major, and
        explicit zeros (``-0.0`` too) removed. Input that is already so
        comes back as itself, its arrays shared rather than copied."""
        rows, cols, vals = sum_duplicates(self.rows, self.cols, self.vals, self.ncols)
        keep = vals != 0
        if vals is self.vals and keep.all():
            return self
        return COOMatrix(self.shape, rows[keep], cols[keep], vals[keep])

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix (swaps coordinate arrays)."""
        return COOMatrix(
            (self.ncols, self.nrows), self.cols.copy(), self.rows.copy(), self.vals.copy()
        )

    def permute(self, row_perm: np.ndarray = None, col_perm: np.ndarray = None) -> "COOMatrix":
        """Relabel coordinates: new_row = row_perm[old_row], etc.

        ``row_perm``/``col_perm`` map *old* index to *new* index; ``None``
        leaves that dimension unchanged. Used by the reordering passes.
        """
        rows = self.rows if row_perm is None else np.asarray(row_perm)[self.rows]
        cols = self.cols if col_perm is None else np.asarray(col_perm)[self.cols]
        return COOMatrix(self.shape, rows, cols, self.vals.copy())
