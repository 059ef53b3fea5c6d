"""GraphBLAS-mini operations.

Every operation is out-of-place (inputs are never mutated) and takes an
optional :class:`Mask` plus an optional accumulator binary op, mirroring
the C API shape ``op(out, mask, accum, ...)`` without in-place mutation.

``vxm`` traverses the CSC image (the paper's OS orientation) and ``mxv``
the CSR image (IS orientation); both compute the same contraction.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.formats.coo import COOMatrix
from repro.graphblas.mask import Mask
from repro.graphblas.matrix import Matrix
from repro.graphblas.vector import Vector
from repro.semiring import kernels
from repro.semiring.binaryops import BinaryOp
from repro.semiring.monoids import Monoid
from repro.semiring.semirings import MUL_ADD, Semiring
from repro.semiring.unaryops import UnaryOp


def _segment_reduce(
    monoid: Monoid,
    values: np.ndarray,
    segment_ids: np.ndarray,
    n_segments: int,
    kernel: str,
) -> np.ndarray:
    """Semiring reduction dispatch for the contraction kernels.

    ``segment_ids`` is sorted ascending (a compressed-index expansion),
    which is what licenses the batched ``reduceat`` paths of
    :mod:`repro.semiring.kernels`. The one exception is the rank-major
    stream of :func:`_contract`, which only a PLUS fold takes: its
    ``bincount`` folds each segment in arrival order.
    """
    kernels.check_kernel(kernel)
    if kernel == "batched":
        return kernels.segment_reduce(monoid, values, segment_ids, n_segments)
    return monoid.segment_reduce(values, segment_ids, n_segments)


def _finalize(
    raw_values: np.ndarray,
    raw_present: np.ndarray,
    mask: Optional[Mask],
    accum: Optional[BinaryOp],
    out: Optional[Vector],
) -> Vector:
    """Apply mask and accumulator to a raw result.

    The mask limits which computed entries land in the output; with an
    accumulator, stored entries of ``out`` outside the computed/masked
    region survive and overlapping entries combine via ``accum``.
    """
    size = raw_values.size
    writable = mask.allowed(size) if mask is not None else np.ones(size, dtype=bool)
    landing = raw_present & writable

    if accum is None or out is None:
        result = Vector.empty(size)
        result.values[landing] = raw_values[landing]
        result.present[landing] = True
        if accum is None and out is not None and mask is not None:
            # Masked write without accumulator keeps out's entries
            # outside the mask (GraphBLAS non-replace semantics).
            keep = out.present & ~writable
            result.values[keep] = out.values[keep]
            result.present[keep] = True
        return result

    if out.size != size:
        raise ShapeError(f"out size {out.size} does not match result size {size}")
    result = out.dup()
    both = landing & out.present
    fresh = landing & ~out.present
    result.values[both] = accum(out.values[both], raw_values[both])
    result.values[fresh] = raw_values[fresh]
    result.present[fresh] = True
    return result


# ----------------------------------------------------------------------
# Matrix-vector contractions
# ----------------------------------------------------------------------
#: ``(segment_ids, minor_indices, values)`` of one compressed image.
Stream = Tuple[np.ndarray, np.ndarray, np.ndarray]


class _StreamSlot:
    """``(weakref to matrix, by_rows, stream or None)`` of one thread's
    last full-vector contraction that can take a stream. One is held
    per thread, not one per matrix: an iteration loop contracts one
    matrix, while a stream costs 24 bytes per entry for as long as it
    is held, and a sweep keeps its matrices (and the shared Krylov
    systems) alive across many loops. Per thread, so threads that
    characterize different matrices at once do not evict each other's
    stream. It is dropped with its matrix, or with its thread."""

    def __init__(self) -> None:
        self.last: Tuple[Optional[weakref.ref], bool, Optional[Stream]] = (
            None, False, None
        )

    def track(self, a: Matrix, by_rows: bool) -> None:
        """Hold ``a`` with no stream yet. The matrix's weakref reaches
        this slot only weakly, so a finished thread's slot is freed at
        once, stream and all."""
        slot = weakref.ref(self)

        def forget(ref: weakref.ref) -> None:
            held = slot()
            if held is not None and held.last[0] is ref:
                held.last = (None, False, None)

        self.last = (weakref.ref(a, forget), by_rows, None)


class _PerThread(threading.local):
    def __init__(self) -> None:
        self.slot = _StreamSlot()


_threads = _PerThread()


def _rank_major(a: Matrix, by_rows: bool) -> Optional[Stream]:
    """``a``'s CSR (``by_rows``) or CSC entries as ``(segment_ids,
    minor, values)`` in rank-major order: every slice's k-th entry comes
    before any slice's (k+1)-th, and slices ascend within a rank. Each
    slice keeps its own entry order, so a fold that takes values in
    arrival order gives every slice the bits it gets over the sorted
    order; consecutive values land in different slices, so the fold's
    additions do not wait on one another.

    ``None`` for the first of a run of contractions on ``a``: the
    stream is built (one stable sort) only once ``a`` is contracted the
    same way twice in a row, so one-off and alternating contractions
    never pay for it.
    """
    slot = _threads.slot
    ref, rows, stream = slot.last
    if ref is None or ref() is not a or rows != by_rows:
        slot.track(a, by_rows)
        return None
    if stream is None:
        if by_rows:
            compressed, ids = a.csr, a.row_ids
        else:
            compressed, ids = a.csc, a.col_ids
        rank = np.arange(ids.size) - compressed.indptr[ids]
        order = np.argsort(rank, kind="stable")
        stream = (ids[order], compressed.indices[order], compressed.data[order])
        slot.last = (ref, rows, stream)
    return stream


def _contract(
    v: Vector,
    a: Matrix,
    by_rows: bool,
    semiring: Semiring,
    kernel: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce, per major slice of ``a``'s CSR (``by_rows``) or CSC
    image, the products of its entries with the stored ``v`` entries
    they meet: ``(raw_values, raw_present)`` before mask and
    accumulator.

    A fully stored ``v`` (every solver iteration) meets every entry, so
    the entry filter is skipped: it would keep the same entries in the
    same order, hence the same products and the same fold, and the
    slices that receive a product are exactly the non-empty ones. A
    repeated PLUS contraction then takes the entries rank-major
    (:func:`_rank_major`): ``bincount`` folds each slice in arrival
    order, and the stream keeps every slice's order and so its bits.
    """
    compressed = a.csr if by_rows else a.csc
    segment_ids = a.row_ids if by_rows else a.col_ids
    minor, data = compressed.indices, compressed.data
    if v.present.all():
        raw_present = compressed.major_nnz() > 0
        if kernel == "batched" and semiring.add.op.ufunc is np.add:
            stream = _rank_major(a, by_rows)
            if stream is not None:
                segment_ids, minor, data = stream
    else:
        contributes = v.present[minor]
        minor = minor[contributes]
        segment_ids = segment_ids[contributes]
        data = data[contributes]
        raw_present = np.zeros(compressed.n_major, dtype=bool)
        raw_present[segment_ids] = True
    operand = v.values[minor]
    products = (
        semiring.mul(data, operand) if by_rows else semiring.mul(operand, data)
    )
    raw_values = _segment_reduce(
        semiring.add, products, segment_ids, compressed.n_major, kernel
    )
    return raw_values, raw_present


def vxm(
    v: Vector,
    a: Matrix,
    semiring: Semiring = MUL_ADD,
    mask: Optional[Mask] = None,
    accum: Optional[BinaryOp] = None,
    out: Optional[Vector] = None,
    kernel: str = "batched",
) -> Vector:
    """``w = v^T A`` over ``semiring`` — output element ``j`` reduces the
    products of stored ``v[i]`` with stored ``A[i, j]`` down column ``j``."""
    if v.size != a.nrows:
        raise ShapeError(f"vector size {v.size} does not match nrows {a.nrows}")
    raw_values, raw_present = _contract(v, a, False, semiring, kernel)
    return _finalize(raw_values, raw_present, mask, accum, out)


def mxv(
    a: Matrix,
    v: Vector,
    semiring: Semiring = MUL_ADD,
    mask: Optional[Mask] = None,
    accum: Optional[BinaryOp] = None,
    out: Optional[Vector] = None,
    kernel: str = "batched",
) -> Vector:
    """``w = A v`` over ``semiring`` — the row-oriented dual of :func:`vxm`."""
    if v.size != a.ncols:
        raise ShapeError(f"vector size {v.size} does not match ncols {a.ncols}")
    raw_values, raw_present = _contract(v, a, True, semiring, kernel)
    return _finalize(raw_values, raw_present, mask, accum, out)


def mxm(a: Matrix, b: Matrix, semiring: Semiring = MUL_ADD) -> Matrix:
    """Sparse-sparse matrix multiply over ``semiring`` (Gustavson
    expansion, fully vectorized)."""
    if a.ncols != b.nrows:
        raise ShapeError(f"inner dimensions differ: {a.ncols} vs {b.nrows}")
    a_csr, b_csr = a.csr, b.csr
    i_ids = a.row_ids
    k_ids = a_csr.indices
    counts = (b_csr.indptr[k_ids + 1] - b_csr.indptr[k_ids]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return Matrix(COOMatrix.empty((a.nrows, b.ncols)))
    out_rows = np.repeat(i_ids, counts)
    a_rep = np.repeat(a_csr.data, counts)
    starts = np.repeat(b_csr.indptr[k_ids], counts)
    intra = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    positions = starts + intra
    out_cols = b_csr.indices[positions]
    products = semiring.mul(a_rep, b_csr.data[positions])

    keys = out_rows * b.ncols + out_cols
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    reduced = semiring.add.segment_reduce(products, inverse, unique_keys.size)
    return Matrix(
        COOMatrix(
            (a.nrows, b.ncols),
            unique_keys // b.ncols,
            unique_keys % b.ncols,
            reduced,
        )
    )


#: Stored entries per :func:`mxm_dense` row block. The gather and the
#: products are ``nnz x F`` temporaries; blocking bounds each at
#: ``SPMM_BLOCK_NNZ x F`` (2 MB at F = 16) instead of the whole matrix.
SPMM_BLOCK_NNZ = 1 << 14


def mxm_dense(a: Matrix, b: np.ndarray, semiring: Semiring = MUL_ADD) -> np.ndarray:
    """Sparse x dense multiply (the SpMM of the GCN pipeline, Fig 5).

    Walks whole-row blocks of at most :data:`SPMM_BLOCK_NNZ` stored
    entries (a longer row is a block of its own) and folds each block
    into its slice of the output. A block holds every product of its
    rows, so each output element still folds its row's products in nnz
    order from the identity: the result does not depend on the block
    size.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != a.ncols:
        raise ShapeError(f"dense operand shape {b.shape} incompatible with {a.shape}")
    if semiring.add.op.ufunc is None:
        raise NotImplementedError(
            f"mxm_dense needs a ufunc-backed add monoid, got {semiring.add.name}"
        )
    csr = a.csr
    indptr, row_ids = csr.indptr, a.row_ids
    out = np.full((a.nrows, b.shape[1]), semiring.zero, dtype=np.float64)
    lo = 0
    while lo < a.nrows:
        start = indptr[lo]
        hi = int(np.searchsorted(indptr, start + SPMM_BLOCK_NNZ, side="right")) - 1
        hi = min(max(hi, lo + 1), a.nrows)
        stop = indptr[hi]
        products = semiring.mul(
            csr.data[start:stop, None], b[csr.indices[start:stop]]
        )
        # Block-relative rows are sorted and the slice of out is
        # identity-filled: the specialized dense kernel's contract.
        kernels.dense_update(
            semiring.add, out[lo:hi], row_ids[start:stop] - lo, products
        )
        lo = hi
    return out


# ----------------------------------------------------------------------
# Element-wise operations
# ----------------------------------------------------------------------
def ewise_add(
    u: Vector,
    v: Vector,
    op: BinaryOp,
    mask: Optional[Mask] = None,
    accum: Optional[BinaryOp] = None,
    out: Optional[Vector] = None,
) -> Vector:
    """Union element-wise combine: where both stored apply ``op``, where
    one stored pass it through."""
    if u.size != v.size:
        raise ShapeError(f"vector sizes differ: {u.size} vs {v.size}")
    both = u.present & v.present
    only_u = u.present & ~v.present
    only_v = v.present & ~u.present
    raw_values = np.zeros(u.size, dtype=np.float64)
    raw_values[both] = op(u.values[both], v.values[both])
    raw_values[only_u] = u.values[only_u]
    raw_values[only_v] = v.values[only_v]
    return _finalize(raw_values, u.present | v.present, mask, accum, out)


def ewise_mult(
    u: Vector,
    v: Vector,
    op: BinaryOp,
    mask: Optional[Mask] = None,
    accum: Optional[BinaryOp] = None,
    out: Optional[Vector] = None,
) -> Vector:
    """Intersection element-wise combine: output stored only where both
    inputs are stored."""
    if u.size != v.size:
        raise ShapeError(f"vector sizes differ: {u.size} vs {v.size}")
    both = u.present & v.present
    raw_values = np.zeros(u.size, dtype=np.float64)
    raw_values[both] = op(u.values[both], v.values[both])
    return _finalize(raw_values, both, mask, accum, out)


def apply(
    u: Vector,
    op: UnaryOp,
    mask: Optional[Mask] = None,
    accum: Optional[BinaryOp] = None,
    out: Optional[Vector] = None,
) -> Vector:
    """Apply a unary op to every stored entry."""
    raw_values = np.zeros(u.size, dtype=np.float64)
    raw_values[u.present] = op(u.values[u.present])
    return _finalize(raw_values, u.present.copy(), mask, accum, out)


def apply_bind(
    u: Vector,
    op: BinaryOp,
    scalar: float,
    bind_right: bool = True,
    mask: Optional[Mask] = None,
    accum: Optional[BinaryOp] = None,
    out: Optional[Vector] = None,
) -> Vector:
    """Apply a binary op with one operand bound to a scalar
    (``u op scalar`` when ``bind_right`` else ``scalar op u``)."""
    raw_values = np.zeros(u.size, dtype=np.float64)
    stored = u.values[u.present]
    if bind_right:
        raw_values[u.present] = op(stored, np.full_like(stored, scalar))
    else:
        raw_values[u.present] = op(np.full_like(stored, scalar), stored)
    return _finalize(raw_values, u.present.copy(), mask, accum, out)


def reduce(u: Vector, monoid: Monoid) -> float:
    """Fold all stored entries with a monoid (the ``foldl`` of Fig 1)."""
    return float(monoid.reduce(u.values[u.present]))


def select(u: Vector, predicate: Callable[[np.ndarray], np.ndarray]) -> Vector:
    """Keep only stored entries whose value satisfies the vectorized
    ``predicate`` (GraphBLAS ``select``)."""
    keep = u.present.copy()
    keep[u.present] = np.asarray(predicate(u.values[u.present]), dtype=bool)
    result = Vector.empty(u.size)
    result.values[keep] = u.values[keep]
    result.present[keep] = True
    return result


def vector_dot(u: Vector, v: Vector, semiring: Semiring = MUL_ADD) -> float:
    """Dot product over a semiring (the ``dot`` of Fig 1): reduce the
    products over the intersection of stored entries."""
    if u.size != v.size:
        raise ShapeError(f"vector sizes differ: {u.size} vs {v.size}")
    both = u.present & v.present
    return float(semiring.add.reduce(semiring.mul(u.values[both], v.values[both])))


def assign_scalar(
    u: Vector, value: float, mask: Optional[Mask] = None
) -> Vector:
    """Return a copy of ``u`` with ``value`` stored at every maskable
    position (the ``set`` of Fig 1)."""
    writable = (
        mask.allowed(u.size) if mask is not None else np.ones(u.size, dtype=bool)
    )
    result = u.dup()
    result.values[writable] = value
    result.present[writable] = True
    return result
