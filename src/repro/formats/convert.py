"""Conversions between the sparse formats.

The core kernel :func:`coo_to_compressed` compresses sorted coordinates
into (indptr, indices, data); both CSR and CSC construction and the
CSR<->CSC transposing conversions reduce to it. Sorting and duplicate
summing live in :func:`sum_duplicates`, shared with
:meth:`~repro.formats.coo.COOMatrix.deduplicate`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.formats.csc import CSCMatrix
    from repro.formats.csr import CSRMatrix


def sum_duplicates(
    major: np.ndarray,
    minor: np.ndarray,
    vals: np.ndarray,
    n_minor: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort coordinates major-first and sum duplicate entries.

    Input whose keys ``major * n_minor + minor`` already increase
    strictly is canonical and comes back as the same arrays. Otherwise
    a stable argsort of the keys yields the permutation of
    ``np.lexsort((minor, major))``, and when duplicates exist every run
    of equal keys is folded in that order, from zero. float64 folds
    through ``np.bincount``: the same in-order left fold from 0.0 as
    ``np.add.at`` into a zero-filled array, so the same floats. Every
    other dtype stays on ``np.add.at``, since ``bincount`` would widen
    int, bool and float32 values to float64.
    """
    keys = major * n_minor + minor
    if np.all(keys[1:] > keys[:-1]):
        return major, minor, vals
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    major, minor, vals = major[order], minor[order], vals[order]
    boundaries = np.concatenate(([True], keys[1:] != keys[:-1]))
    if boundaries.all():
        return major, minor, vals
    group = np.cumsum(boundaries) - 1
    if vals.dtype == np.float64:
        summed = np.bincount(group, weights=vals)
    else:
        summed = np.zeros(int(group[-1]) + 1, dtype=vals.dtype)
        np.add.at(summed, group, vals)
    return major[boundaries], minor[boundaries], summed


def coo_to_compressed(
    n_major: int,
    major: np.ndarray,
    minor: np.ndarray,
    vals: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compress coordinate arrays along ``major``.

    Input need not be sorted or deduplicated; duplicates are summed.
    Returns ``(indptr, indices, data)`` with indices sorted within each
    major slice; already-canonical input shares its ``minor`` and
    ``vals`` arrays with the result.
    """
    major = np.asarray(major, dtype=np.int64)
    minor = np.asarray(minor, dtype=np.int64)
    vals = np.asarray(vals)
    # Any bound above the largest minor index orders the keys the same.
    n_minor = int(minor.max()) + 1 if minor.size else 1
    major, minor, vals = sum_duplicates(major, minor, vals, n_minor)
    counts = np.bincount(major, minlength=n_major)
    indptr = np.zeros(n_major + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, minor, vals


def csr_to_csc(csr: "CSRMatrix") -> "CSCMatrix":
    """Transpose-convert CSR to CSC without changing the logical matrix."""
    from repro.formats.csc import CSCMatrix

    rows, cols, vals = csr.to_coo_arrays()
    indptr, indices, data = coo_to_compressed(csr.ncols, cols, rows, vals)
    return CSCMatrix(csr.shape, indptr, indices, data)


def csc_to_csr(csc: "CSCMatrix") -> "CSRMatrix":
    """Transpose-convert CSC to CSR without changing the logical matrix."""
    from repro.formats.csr import CSRMatrix

    rows, cols, vals = csc.to_coo_arrays()
    indptr, indices, data = coo_to_compressed(csc.nrows, rows, cols, vals)
    return CSRMatrix(csc.shape, indptr, indices, data)
