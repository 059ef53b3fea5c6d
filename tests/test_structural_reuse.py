"""Differential tests for the structural-reuse fast paths.

Each fast path is checked bit for bit against an inline copy of the
general code it replaced:

- :meth:`COOMatrix.deduplicate` and :func:`coo_to_compressed` against
  ``np.lexsort`` + ``np.add.at`` (canonical-input skip, stable argsort,
  ``bincount`` fold for float64, ``np.add.at`` for every other dtype);
- dense-frontier ``mxv``/``vxm`` against the filtered contraction
  rebuilt from per-call ``np.repeat`` segment ids, across the four paper
  semirings, with and without mask and accumulator;
- :func:`vanilla_reorder` against the per-row-slice Cuthill–McKee loop
  over a CSR-built adjacency, on graphs whose rows fall on both sides
  of ``LIST_ROW_MAX`` and on the suite matrices.

Plus the guard on the cached segment ids: they are read-only, so a
caller writing into one fails loudly instead of corrupting every later
contraction on that matrix.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.convert import coo_to_compressed
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.graphblas import ops
from repro.graphblas.mask import Mask
from repro.graphblas.matrix import Matrix
from repro.graphblas.ops import _finalize, _segment_reduce, mxv, vxm
from repro.graphblas.vector import Vector
from repro.matrices.suite import load_suite_matrix, suite_names
from repro.preprocess.vanilla_reorder import LIST_ROW_MAX, vanilla_reorder
from repro.semiring import AND_OR, ARIL_ADD, MIN_ADD, MUL_ADD, PLUS
from repro.testing import random_coo
from tests.strategies import coo_matrices, raw_coo, seeds

PAPER_SEMIRINGS = (MUL_ADD, AND_OR, MIN_ADD, ARIL_ADD)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# Duplicate summing
# ----------------------------------------------------------------------
def _lexsort_fold(major, minor, vals, always_fold):
    """The general path: lexsort, then ``np.add.at`` into zeros."""
    order = np.lexsort((minor, major))
    major, minor, vals = major[order], minor[order], vals[order]
    if major.size == 0:
        return major, minor, vals
    same = (major[1:] == major[:-1]) & (minor[1:] == minor[:-1])
    if not (always_fold or same.any()):
        return major, minor, vals
    boundaries = np.concatenate(([True], ~same))
    group = np.cumsum(boundaries) - 1
    summed = np.zeros(int(group[-1]) + 1, dtype=vals.dtype)
    np.add.at(summed, group, vals)
    return major[boundaries], minor[boundaries], summed


@settings(max_examples=300, deadline=None)
@given(raw_coo())
def test_deduplicate_matches_lexsort_add_at(entry):
    shape, rows, cols, vals = entry
    ref_rows, ref_cols, ref_vals = _lexsort_fold(rows, cols, vals, always_fold=True)
    keep = ref_vals != 0
    out = COOMatrix(shape, rows, cols, vals).deduplicate()
    assert _same_bits(out.rows, ref_rows[keep])
    assert _same_bits(out.cols, ref_cols[keep])
    assert _same_bits(out.vals, ref_vals[keep])


@settings(max_examples=300, deadline=None)
@given(raw_coo(), st.booleans())
def test_coo_to_compressed_matches_lexsort_add_at(entry, by_columns):
    (nrows, ncols), rows, cols, vals = entry
    n_major, major, minor = (ncols, cols, rows) if by_columns else (nrows, rows, cols)
    ref_major, ref_minor, ref_vals = _lexsort_fold(major, minor, vals, always_fold=False)
    indptr, indices, data = coo_to_compressed(n_major, major, minor, vals)
    ref_indptr = np.zeros(n_major + 1, dtype=np.int64)
    np.cumsum(np.bincount(ref_major, minlength=n_major), out=ref_indptr[1:])
    assert _same_bits(indptr, ref_indptr)
    assert _same_bits(indices, ref_minor)
    assert _same_bits(data, ref_vals)


@pytest.mark.parametrize("dtype", ["int64", "bool", "float32"])
def test_non_float64_duplicates_keep_their_dtype(dtype):
    """``bincount`` would widen these to float64; they stay on add.at."""
    rows = np.array([1, 0, 1, 1])
    cols = np.array([2, 0, 2, 2])
    vals = np.array([1, 1, 0, 1], dtype=dtype)
    out = COOMatrix((2, 3), rows, cols, vals).deduplicate()
    assert out.vals.dtype == np.dtype(dtype)
    _, _, data = coo_to_compressed(2, rows, cols, vals)
    assert data.dtype == np.dtype(dtype)


def test_signed_zero_and_nan_sums():
    """-0.0 alone folds to +0.0 and is dropped; NaN propagates and stays."""
    rows = np.array([0, 0, 1, 2, 2])
    cols = np.array([0, 0, 1, 2, 2])
    vals = np.array([-0.0, -0.0, np.nan, 1.0, -1.0])
    out = COOMatrix((3, 3), rows, cols, vals).deduplicate()
    assert out.rows.tolist() == [1] and np.isnan(out.vals[0])


# ----------------------------------------------------------------------
# Dense-frontier contractions
# ----------------------------------------------------------------------
def _filtered_vxm(v, a, semiring, mask, accum, out, kernel):
    csc = a.csc
    col_ids = np.repeat(np.arange(a.ncols, dtype=np.int64), csc.col_nnz())
    contributes = v.present[csc.indices]
    rows = csc.indices[contributes]
    cols = col_ids[contributes]
    products = semiring.mul(v.values[rows], csc.data[contributes])
    raw_values = _segment_reduce(semiring.add, products, cols, a.ncols, kernel)
    raw_present = np.zeros(a.ncols, dtype=bool)
    raw_present[cols] = True
    return _finalize(raw_values, raw_present, mask, accum, out)


def _filtered_mxv(a, v, semiring, mask, accum, out, kernel):
    csr = a.csr
    row_ids = np.repeat(np.arange(a.nrows, dtype=np.int64), csr.row_nnz())
    contributes = v.present[csr.indices]
    cols = csr.indices[contributes]
    rows = row_ids[contributes]
    products = semiring.mul(csr.data[contributes], v.values[cols])
    raw_values = _segment_reduce(semiring.add, products, rows, a.nrows, kernel)
    raw_present = np.zeros(a.nrows, dtype=bool)
    raw_present[rows] = True
    return _finalize(raw_values, raw_present, mask, accum, out)


@settings(max_examples=120, deadline=None)
@given(
    coo_matrices(max_n=24),
    seeds,
    st.sampled_from(PAPER_SEMIRINGS),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["batched", "reference"]),
)
def test_contractions_match_filtered_path(
    coo, seed, semiring, dense_frontier, masked, accumulated, kernel
):
    a = Matrix(coo)
    n = a.nrows
    gen = np.random.default_rng(seed)
    present = np.ones(n, dtype=bool) if dense_frontier else gen.random(n) < 0.5
    v = Vector(n, gen.uniform(-2.0, 2.0, n), present)
    mask = Mask(Vector(n, np.ones(n), gen.random(n) < 0.5)) if masked else None
    accum = PLUS if accumulated else None
    out = Vector(n, gen.uniform(-2.0, 2.0, n), gen.random(n) < 0.5)
    kw = dict(mask=mask, accum=accum, out=out, kernel=kernel)
    # Each op runs twice in a row: a repeated full-vector contraction
    # takes the rank-major stream.
    pairs = (
        (vxm(v, a, semiring, **kw), _filtered_vxm(v, a, semiring, **kw)),
        (vxm(v, a, semiring, **kw), _filtered_vxm(v, a, semiring, **kw)),
        (mxv(a, v, semiring, **kw), _filtered_mxv(a, v, semiring, **kw)),
        (mxv(a, v, semiring, **kw), _filtered_mxv(a, v, semiring, **kw)),
    )
    for fast, ref in pairs:
        assert _same_bits(fast.present, ref.present)
        assert _same_bits(fast.values, ref.values)


# ----------------------------------------------------------------------
# Cached segment ids
# ----------------------------------------------------------------------
def test_segment_ids_are_cached_and_read_only():
    a = Matrix(random_coo(3))
    expected_rows = np.repeat(np.arange(a.nrows), a.csr.row_nnz())
    expected_cols = np.repeat(np.arange(a.ncols), a.csc.col_nnz())
    before = mxv(a, Vector.dense(a.ncols, 1.0)).values.copy()
    for name, expected in (("row_ids", expected_rows), ("col_ids", expected_cols)):
        ids = getattr(a, name)
        assert getattr(a, name) is ids  # built once
        assert not ids.flags.writeable
        with pytest.raises(ValueError):
            ids[0] = 99
        np.testing.assert_array_equal(ids, expected)
    after = mxv(a, Vector.dense(a.ncols, 1.0)).values
    assert _same_bits(before, after)


def test_from_csr_with_explicit_zero_and_duplicate_contracts_like_dense():
    # Row 0 repeats column 1 and stores a zero, row 1 stores a zero, and
    # row 3 holds only a zero. from_csr canonicalizes them like any COO
    # input, so the CSR, row_ids and every contraction match the dense
    # twin's. Small integers keep every sum exact.
    csr = CSRMatrix(
        (4, 4),
        np.array([0, 3, 5, 6, 7]),
        np.array([1, 1, 3, 0, 2, 3, 0]),
        np.array([2.0, 3.0, 0.0, 0.0, 4.0, 1.0, 0.0]),
    )
    from_csr = Matrix.from_csr(csr)
    from_dense = Matrix.from_dense(csr.to_coo().deduplicate().to_dense())
    assert from_csr.nnz == from_csr.csr.data.size == from_csr.row_ids.size == 3
    v = Vector(4, np.array([1.0, 2.0, 3.0, 4.0]))
    want = mxv(from_dense, v)
    for _ in range(3):  # first call, stream build, stream hit
        got = mxv(from_csr, v)
        assert _same_bits(got.present, want.present)
        assert _same_bits(got.values, want.values)
    b = np.arange(8.0).reshape(4, 2)
    assert _same_bits(ops.mxm_dense(from_csr, b), ops.mxm_dense(from_dense, b))


def test_rank_major_stream_is_built_for_repeated_contractions_only():
    a, b = Matrix(random_coo(3)), Matrix(random_coo(4))
    # Alternating matrices or orientations never build a stream.
    for m, by_rows in ((a, True), (b, True), (a, True), (a, False)):
        assert ops._rank_major(m, by_rows) is None
    stream = ops._rank_major(a, False)
    assert ops._rank_major(a, False) is stream  # built once
    ids, compressed = a.col_ids, a.csc
    rank = np.arange(ids.size) - compressed.indptr[ids]
    order = np.lexsort((ids, rank))  # by rank, then column
    expected = (ids[order], compressed.indices[order], compressed.data[order])
    for got, want in zip(stream, expected):
        np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# Vanilla reorder
# ----------------------------------------------------------------------
def _symmetrized_csr(coo):
    """The undirected adjacency as a CSR of ``A + Aᵀ`` over unit values."""
    rows = np.concatenate((coo.rows, coo.cols))
    cols = np.concatenate((coo.cols, coo.rows))
    return CSRMatrix.from_coo(COOMatrix(coo.shape, rows, cols, np.ones(rows.size)))


def _row_slice_reorder(coo):
    """Cuthill–McKee through ``adj.row()`` calls, argsort on every visit."""
    n = coo.nrows
    adj = _symmetrized_csr(coo)
    degree = adj.row_nnz()
    visited = np.zeros(n, dtype=bool)
    order = []
    for start in np.argsort(degree, kind="stable"):
        if visited[start]:
            continue
        visited[start] = True
        queue = deque([int(start)])
        while queue:
            u = queue.popleft()
            order.append(u)
            neighbors, _ = adj.row(u)
            fresh = neighbors[~visited[neighbors]]
            if fresh.size:
                visited[fresh] = True
                fresh = fresh[np.argsort(degree[fresh], kind="stable")]
                queue.extend(int(v) for v in fresh)
    perm = np.empty(n, dtype=np.int64)
    perm[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    return perm


@settings(max_examples=60, deadline=None)
@given(coo_matrices(max_n=40))
def test_vanilla_reorder_matches_row_slice_loop(coo):
    assert _same_bits(vanilla_reorder(coo), _row_slice_reorder(coo))


@st.composite
def hub_graphs(draw):
    """Sparse random graphs with a few stars: hub rows longer than
    ``LIST_ROW_MAX`` and short rows, so one visit order mixes both
    row paths. Duplicate edges and self-loops are left in."""
    n = draw(st.integers(LIST_ROW_MAX + 2, 200))
    rng = np.random.default_rng(draw(seeds))
    m = draw(st.integers(0, 3 * n))
    rows, cols = [rng.integers(0, n, m)], [rng.integers(0, n, m)]
    for _ in range(draw(st.integers(1, 4))):
        spokes = rng.choice(n, size=draw(st.integers(LIST_ROW_MAX + 2, n)),
                            replace=False)
        hub = np.full(spokes.size, rng.integers(0, n))
        if draw(st.booleans()):
            hub, spokes = spokes, hub  # in-star: the hub is a column
        rows.append(hub)
        cols.append(spokes)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return COOMatrix((n, n), rows, cols, np.ones(rows.size))


@settings(max_examples=60, deadline=None)
@given(hub_graphs())
def test_vanilla_reorder_mixes_row_paths_exactly(coo):
    degree = _symmetrized_csr(coo).row_nnz()
    assert degree.max() > LIST_ROW_MAX >= degree.min()
    assert _same_bits(vanilla_reorder(coo), _row_slice_reorder(coo))


@pytest.mark.parametrize("name", suite_names())
def test_vanilla_reorder_matches_row_slice_loop_on_suite(name):
    coo = load_suite_matrix(name)
    assert _same_bits(vanilla_reorder(coo), _row_slice_reorder(coo))
