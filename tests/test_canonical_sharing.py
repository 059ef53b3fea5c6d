"""One canonical copy per matrix.

A suite matrix is sorted, summed and free of stored zeros when it is
built, so every consumer — the GraphBLAS ``Matrix``, the dual storage
of :func:`~repro.preprocess.preprocess`, the pattern matrices the
workloads build on its coordinates — shares its arrays instead of
holding a private copy:

- :meth:`COOMatrix.deduplicate` returns canonical input itself, and
  canonicalizes anything else into new arrays exactly as before;
- the cached suite arrays are read-only, so a stray in-place write
  raises instead of corrupting every later user.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats.coo import COOMatrix
from repro.graphblas import Matrix
from repro.matrices.suite import load_suite_matrix, suite_names
from repro.preprocess import preprocess


def _arrays(coo: COOMatrix):
    return coo.rows, coo.cols, coo.vals


class TestDeduplicate:
    def test_canonical_input_comes_back_shared(self):
        coo = COOMatrix((3, 4), [0, 0, 2], [1, 3, 0], [1.0, -2.0, 3.5])
        out = coo.deduplicate()
        assert out is coo
        for mine, theirs in zip(_arrays(out), _arrays(coo)):
            assert np.shares_memory(mine, theirs)

    def test_empty_input_comes_back_shared(self):
        coo = COOMatrix.empty((2, 2))
        assert coo.deduplicate() is coo

    @pytest.mark.parametrize("rows, cols, vals, expected", [
        pytest.param([2, 0, 0], [0, 3, 1], [3.5, -2.0, 1.0],
                     ([0, 0, 2], [1, 3, 0], [1.0, -2.0, 3.5]), id="unsorted"),
        pytest.param([0, 0, 2, 0], [1, 3, 0, 1], [1.0, -2.0, 3.5, 0.5],
                     ([0, 0, 2], [1, 3, 0], [1.5, -2.0, 3.5]),
                     id="duplicates"),
        pytest.param([0, 0, 2], [1, 3, 0], [1.0, 0.0, 3.5],
                     ([0, 2], [1, 0], [1.0, 3.5]), id="explicit-zero"),
        pytest.param([0, 0, 2], [1, 3, 0], [1.0, -0.0, 3.5],
                     ([0, 2], [1, 0], [1.0, 3.5]), id="negative-zero"),
        pytest.param([0, 0, 2, 0], [1, 3, 0, 3], [1.0, -2.0, 3.5, 2.0],
                     ([0, 2], [1, 0], [1.0, 3.5]), id="cancelling"),
        pytest.param([0, 1], [0, 1], np.array([0, 7], dtype=np.int32),
                     ([1], [1], np.array([7], dtype=np.int32)),
                     id="int32-zero"),
    ])
    def test_other_input_is_canonicalized_into_new_arrays(
            self, rows, cols, vals, expected):
        coo = COOMatrix((3, 4), rows, cols, vals)
        out = coo.deduplicate()
        assert out is not coo
        for got, want in zip(_arrays(out), expected):
            np.testing.assert_array_equal(got, want)
        assert out.rows.dtype == out.cols.dtype == np.int64
        assert out.vals.dtype == coo.vals.dtype
        assert not (out.vals == 0).any()
        for mine, theirs in zip(_arrays(out), _arrays(coo)):
            assert not np.shares_memory(mine, theirs)


@pytest.mark.parametrize("name", suite_names())
class TestSuiteMatrices:
    def test_graphblas_matrix_holds_the_suite_matrix(self, name):
        coo = load_suite_matrix(name)
        assert Matrix(coo).coo is coo

    def test_pattern_matrix_shares_its_coordinates(self, name):
        coo = load_suite_matrix(name)
        pattern = Matrix(COOMatrix(coo.shape, coo.rows, coo.cols,
                                   np.ones(coo.nnz)))
        assert pattern.coo.rows is coo.rows
        assert pattern.coo.cols is coo.cols

    @pytest.mark.parametrize("field", ["rows", "cols", "vals"])
    def test_in_place_write_raises(self, name, field):
        array = getattr(load_suite_matrix(name), field)
        assert not array.flags.writeable  # else the write below sticks
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


@pytest.mark.parametrize("reorder", [None, "vanilla"])
def test_preprocess_builds_the_csr_on_the_canonical_arrays(reorder):
    suite = load_suite_matrix("gy")
    result = preprocess(suite, reorder=reorder)
    canonical = result.matrix
    if reorder is None:
        assert canonical is suite
    assert np.shares_memory(result.dual.csr.indices, canonical.cols)
    assert np.shares_memory(result.dual.csr.data, canonical.vals)
