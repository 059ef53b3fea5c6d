"""Tests for GraphBLAS-mini operations against dense references."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.graphblas import ops
from repro.graphblas import (
    Mask,
    Matrix,
    Vector,
    apply,
    apply_bind,
    assign_scalar,
    ewise_add,
    ewise_mult,
    mxm,
    mxm_dense,
    mxv,
    reduce_vector,
    select,
    vector_dot,
    vxm,
)
from repro.semiring import (
    ABS,
    AND_OR,
    ARIL_ADD,
    LOR,
    MIN,
    MIN_ADD,
    MIN_MONOID,
    MAX_TIMES,
    MUL_ADD,
    PLUS,
    PLUS_MONOID,
    TIMES,
)


@pytest.fixture
def matrix(small_dense):
    return Matrix.from_dense(small_dense)


@pytest.fixture
def full_vec(rng):
    return Vector(30, rng.random(30))


class TestContractions:
    def test_vxm_mul_add(self, matrix, full_vec, small_dense):
        out = vxm(full_vec, matrix, MUL_ADD)
        assert np.allclose(out.to_dense(), full_vec.to_dense() @ small_dense)

    def test_mxv_mul_add(self, matrix, full_vec, small_dense):
        out = mxv(matrix, full_vec, MUL_ADD)
        assert np.allclose(out.to_dense(), small_dense @ full_vec.to_dense())

    def test_vxm_output_absent_on_empty_columns(self, matrix, full_vec):
        out = vxm(full_vec, matrix, MUL_ADD)
        assert not out.present[13]  # column 13 is structurally empty

    def test_vxm_sparse_input_skips_absent(self, matrix, small_dense):
        v = Vector.from_entries(30, [0, 5], [1.0, 2.0])
        out = vxm(v, matrix, MUL_ADD)
        expected = small_dense[0] * 1.0 + small_dense[5] * 2.0
        got = out.to_dense()
        contributing = (small_dense[0] != 0) | (small_dense[5] != 0)
        assert np.allclose(got[contributing], expected[contributing])

    def test_vxm_min_add(self, matrix, small_dense):
        v = Vector.dense(30, fill=0.0)
        out = vxm(v, matrix, MIN_ADD)
        dense = np.where(small_dense != 0, small_dense, np.inf)
        expected = dense.min(axis=0)
        present = np.isfinite(expected)
        assert np.allclose(out.to_dense(fill=np.inf)[present], expected[present])

    def test_vxm_and_or_frontier(self, matrix, small_dense):
        frontier = Vector.from_entries(30, [2], [1.0])
        out = vxm(frontier, matrix, AND_OR)
        reachable = np.flatnonzero(small_dense[2])
        idx, vals = out.entries()
        assert set(idx) == set(reachable)
        assert np.all(vals == 1.0)

    def test_vxm_shape_check(self, matrix):
        with pytest.raises(ShapeError):
            vxm(Vector.dense(29), matrix)

    def test_vxm_with_mask(self, matrix, full_vec):
        mask_vec = Vector.from_entries(30, [0, 1], [1.0, 1.0])
        out = vxm(full_vec, matrix, MUL_ADD, mask=Mask(mask_vec))
        assert np.all(~out.present[2:])

    def test_vxm_with_complement_mask(self, matrix, full_vec):
        visited = Vector.from_entries(30, list(range(25)), [1.0] * 25)
        out = vxm(full_vec, matrix, MUL_ADD, mask=Mask(visited, complement=True))
        assert not out.present[:25].any()

    def test_vxm_accumulator(self, matrix, full_vec, small_dense):
        base = Vector.dense(30, fill=10.0)
        out = vxm(full_vec, matrix, MUL_ADD, accum=PLUS, out=base)
        raw = full_vec.to_dense() @ small_dense
        has = vxm(full_vec, matrix, MUL_ADD).present
        assert np.allclose(out.to_dense()[has], raw[has] + 10.0)
        assert np.allclose(out.to_dense()[~has], 10.0)

    def test_mxm_matches_dense(self, rng):
        a = (rng.random((12, 9)) < 0.4) * rng.random((12, 9))
        b = (rng.random((9, 7)) < 0.4) * rng.random((9, 7))
        out = mxm(Matrix.from_dense(a), Matrix.from_dense(b), MUL_ADD)
        assert np.allclose(out.to_dense(), a @ b)

    def test_mxm_shape_check(self, matrix):
        with pytest.raises(ShapeError):
            mxm(matrix, Matrix.from_dense(np.zeros((5, 5))))

    def test_mxm_empty_result(self):
        a = Matrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
        b = Matrix.from_dense(np.array([[0.0, 0.0], [0.0, 0.0]]))
        assert mxm(a, b).nnz == 0

    def test_mxm_dense_matches_numpy(self, matrix, small_dense, rng):
        b = rng.random((30, 8))
        assert np.allclose(mxm_dense(matrix, b), small_dense @ b)


class TestElementwise:
    def test_ewise_add_union(self):
        u = Vector.from_entries(4, [0, 1], [1.0, 2.0])
        v = Vector.from_entries(4, [1, 2], [10.0, 20.0])
        out = ewise_add(u, v, PLUS)
        assert out.get(0) == 1.0 and out.get(1) == 12.0 and out.get(2) == 20.0
        assert not out.present[3]

    def test_ewise_mult_intersection(self):
        u = Vector.from_entries(4, [0, 1], [3.0, 2.0])
        v = Vector.from_entries(4, [1, 2], [10.0, 20.0])
        out = ewise_mult(u, v, TIMES)
        assert out.nvals == 1 and out.get(1) == 20.0

    def test_ewise_min(self):
        u = Vector.dense(3, 5.0)
        v = Vector.from_entries(3, [1], [2.0])
        out = ewise_add(u, v, MIN)
        assert out.get(1) == 2.0 and out.get(0) == 5.0

    def test_apply(self):
        u = Vector.from_entries(3, [0], [-4.0])
        assert apply(u, ABS).get(0) == 4.0

    def test_apply_bind_right(self):
        u = Vector.dense(2, 3.0)
        out = apply_bind(u, TIMES, 2.0)
        assert np.array_equal(out.to_dense(), [6.0, 6.0])

    def test_apply_bind_left(self):
        from repro.semiring import MINUS

        u = Vector.dense(2, 3.0)
        out = apply_bind(u, MINUS, 10.0, bind_right=False)
        assert np.array_equal(out.to_dense(), [7.0, 7.0])

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            ewise_add(Vector.dense(2), Vector.dense(3), PLUS)


class TestFoldSelectDot:
    def test_reduce_plus(self):
        u = Vector.from_entries(5, [0, 4], [1.5, 2.5])
        assert reduce_vector(u, PLUS_MONOID) == 4.0

    def test_reduce_empty_is_identity(self):
        assert reduce_vector(Vector.empty(3), MIN_MONOID) == np.inf

    def test_select_keeps_matching(self):
        u = Vector(4, np.array([1.0, -2.0, 3.0, -4.0]))
        out = select(u, lambda vals: vals > 0)
        idx, _ = out.entries()
        assert list(idx) == [0, 2]

    def test_vector_dot(self, rng):
        a, b = rng.random(8), rng.random(8)
        assert np.isclose(
            vector_dot(Vector(8, a), Vector(8, b), MUL_ADD), a @ b
        )

    def test_vector_dot_respects_presence(self):
        u = Vector.from_entries(3, [0], [2.0])
        v = Vector.dense(3, 10.0)
        assert vector_dot(u, v, MUL_ADD) == 20.0

    def test_assign_scalar_with_mask(self):
        u = Vector.empty(4)
        mask = Mask(Vector.from_entries(4, [1, 2], [1.0, 1.0]))
        out = assign_scalar(u, 7.0, mask=mask)
        assert out.nvals == 2 and out.get(1) == 7.0


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 14), st.integers(0, 2**31 - 1))
def test_property_vxm_equals_semiring_dense_reference(n, seed):
    gen = np.random.default_rng(seed)
    dense = (gen.random((n, n)) < 0.4) * gen.uniform(0.1, 2.0, (n, n))
    x = gen.uniform(0.1, 2.0, n)
    m = Matrix.from_dense(dense)
    out = vxm(Vector(n, x), m, MUL_ADD)
    assert np.allclose(out.to_dense(), x @ dense)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 14), st.integers(0, 2**31 - 1))
def test_property_vxm_mxv_transpose_duality(n, seed):
    gen = np.random.default_rng(seed)
    dense = (gen.random((n, n)) < 0.4) * gen.uniform(0.1, 2.0, (n, n))
    x = gen.uniform(0.1, 2.0, n)
    m = Matrix.from_dense(dense)
    mt = Matrix.from_dense(dense.T)
    a = vxm(Vector(n, x), m, MUL_ADD)
    b = mxv(mt, Vector(n, x), MUL_ADD)
    assert np.array_equal(a.present, b.present)
    assert np.allclose(a.to_dense(), b.to_dense())


class TestMaskAccumInteraction:
    def test_masked_write_without_accum_keeps_outside_entries(self, matrix, full_vec):
        """GraphBLAS non-replace semantics: with a mask and an existing
        output (no accumulator), entries outside the mask survive."""
        old = Vector.dense(30, fill=7.0)
        mask = Mask(Vector.from_entries(30, [0, 1, 2], [1.0] * 3))
        out = vxm(full_vec, matrix, MUL_ADD, mask=mask, out=old)
        assert np.all(out.values[3:][out.present[3:]] == 7.0)
        assert out.present[3:].all()

    def test_mask_with_accum_combines_only_inside(self, matrix, full_vec):
        old = Vector.dense(30, fill=100.0)
        mask = Mask(Vector.from_entries(30, [0], [1.0]))
        out = vxm(full_vec, matrix, MUL_ADD, mask=mask, accum=PLUS, out=old)
        raw = vxm(full_vec, matrix, MUL_ADD)
        if raw.present[0]:
            assert out.get(0) == pytest.approx(100.0 + raw.get(0))
        assert np.all(out.values[1:] == 100.0)

    def test_accum_out_size_mismatch(self, matrix, full_vec):
        with pytest.raises(ShapeError):
            vxm(full_vec, matrix, MUL_ADD, accum=PLUS, out=Vector.dense(29))

    def test_ewise_with_mask(self):
        u, v = Vector.dense(4, 1.0), Vector.dense(4, 2.0)
        mask = Mask(Vector.from_entries(4, [1, 3], [1.0, 1.0]))
        out = ewise_add(u, v, PLUS, mask=mask)
        assert out.nvals == 2 and out.get(1) == 3.0

    def test_vector_isclose_with_nan(self):
        a = Vector(3, np.array([1.0, np.nan, 2.0]))
        b = Vector(3, np.array([1.0, np.nan, 2.0]))
        assert a.isclose(b)


#: Semirings of the blocked-SpMM property: the PLUS, MIN, MAX and LOR
#: dense kernels, and ARIL_ADD, whose multiply has no ufunc.
SPMM_SEMIRINGS = {
    s.name: s for s in (MUL_ADD, MIN_ADD, MAX_TIMES, AND_OR, ARIL_ADD)
}


def _mxm_dense_reference(a: Matrix, b: np.ndarray, semiring) -> np.ndarray:
    """``ufunc.at`` over every product into an identity-filled output:
    the unblocked, in-order fold that ``mxm_dense`` must reproduce."""
    csr = a.csr
    products = semiring.mul(csr.data[:, None], b[csr.indices])
    out = np.full((a.nrows, b.shape[1]), semiring.zero, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        semiring.add.op.ufunc.at(out, a.row_ids, products)
    return out


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    f=st.integers(1, 4),
    block=st.integers(1, 6),
    long_row=st.booleans(),
    semiring=st.sampled_from(sorted(SPMM_SEMIRINGS)),
    seed=st.integers(0, 2**31 - 1),
)
# A row longer than the block limit, next to empty rows, at F = 1.
@example(n=8, f=1, block=2, long_row=True, semiring="mul_add", seed=0)
@example(n=8, f=3, block=1, long_row=True, semiring="max_times", seed=1)
@example(n=5, f=2, block=3, long_row=True, semiring="aril_add", seed=2)
def test_property_mxm_dense_blocked_is_bitwise_add_at(
    n, f, block, long_row, semiring, seed
):
    gen = np.random.default_rng(seed)
    dense = (gen.random((n, n)) < 0.4) * gen.uniform(-2.0, 2.0, (n, n))
    dense[gen.integers(n)] = 0.0                      # an empty row
    if long_row:
        dense[gen.integers(n)] = gen.uniform(0.5, 2.0, n)
    a = Matrix.from_dense(dense)
    b = gen.uniform(-2.0, 2.0, (n, f))
    sr = SPMM_SEMIRINGS[semiring]
    expected = _mxm_dense_reference(a, b, sr)
    with mock.patch.object(ops, "SPMM_BLOCK_NNZ", block):
        got = mxm_dense(a, b, sr)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
