"""Smoke tests for the shared hypothesis strategy module itself."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.arch.stats import TRAFFIC_CATEGORIES
from repro.dataflow.program import OEIProgram
from repro.semiring import MONOIDS, SEMIRINGS
from tests.strategies import (
    COO_DTYPES,
    SAFE_BINARY,
    SAFE_SEMIRINGS,
    TRACE_STAGES,
    booleans,
    dims,
    finite,
    finite_lists,
    monoid_names,
    random_programs,
    raw_coo,
    replay_streams,
    run_manifests,
    seeds,
    subtensor_widths,
)


@settings(max_examples=30, deadline=None)
@given(finite)
def test_finite_stays_in_bounds(x):
    assert -1e6 <= x <= 1e6
    assert x == x  # never NaN


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_seeds_fit_default_rng(seed):
    assert 0 <= seed < 2**31


@settings(max_examples=30, deadline=None)
@given(dims(3, 17))
def test_dims_respect_bounds(n):
    assert 3 <= n <= 17


def test_dims_reject_inverted_bounds():
    with pytest.raises(ValueError):
        dims(5, 2)


@settings(max_examples=30, deadline=None)
@given(finite_lists(max_size=7))
def test_finite_lists_bounded(values):
    assert len(values) <= 7
    assert all(-1e6 <= v <= 1e6 for v in values)


@settings(max_examples=30, deadline=None)
@given(monoid_names())
def test_monoid_names_default_covers_registry(name):
    assert name in MONOIDS


@settings(max_examples=20, deadline=None)
@given(monoid_names("plus", "min"))
def test_monoid_names_subset(name):
    assert name in ("plus", "min")


def test_monoid_names_reject_unknown():
    with pytest.raises(ValueError):
        monoid_names("plus", "frobnicate")


@settings(max_examples=20, deadline=None)
@given(subtensor_widths(1, 3, 7, 50))
def test_subtensor_widths_sample_the_given_set(w):
    assert w in (1, 3, 7, 50)


def test_subtensor_widths_reject_empty():
    with pytest.raises(ValueError):
        subtensor_widths()


def test_safe_sets_name_real_registrations():
    assert set(SAFE_SEMIRINGS) <= set(SEMIRINGS)
    from repro.semiring import BINARY_OPS

    assert set(SAFE_BINARY) <= set(BINARY_OPS)


@settings(max_examples=40, deadline=None)
@given(random_programs(), booleans)
def test_random_programs_are_well_formed(program, _flag):
    assert isinstance(program, OEIProgram)
    assert 1 <= len(program.instructions) <= 4
    assert program.result_reg == program.n_registers - 1
    assert program.semiring_name in SAFE_SEMIRINGS
    assert program.has_oei
    for instr in program.instructions:
        assert instr.op_name in SAFE_BINARY
    # Aux/scalar declarations match actual operand usage flags.
    assert set(program.aux_vectors) <= {"a0"}
    assert set(program.scalar_names) <= {"s0"}


@settings(max_examples=60, deadline=None)
@given(raw_coo(max_n=5, max_nnz=10))
def test_raw_coo_is_in_range_and_aligned(entry):
    (nrows, ncols), rows, cols, vals = entry
    assert rows.shape == cols.shape == vals.shape
    assert vals.dtype.name in COO_DTYPES
    assert rows.size <= 10
    if rows.size:
        assert 0 <= rows.min() and rows.max() < nrows
        assert 0 <= cols.min() and cols.max() < ncols


@settings(max_examples=40, deadline=None)
@given(replay_streams())
def test_replay_streams_hold_well_formed_records(stream):
    for batch in stream:
        n = batch.cycles.size
        assert batch.cycles.dtype == np.float64
        assert batch.evict.shape == batch.repack.shape == (n,)
        assert batch.repack.dtype == bool
        categories = [cat for cat, _ in batch.moved]
        stages = [stage for stage, _ in batch.stages]
        assert len(set(categories)) == len(categories)
        assert set(categories) <= set(TRAFFIC_CATEGORIES)
        assert len(set(stages)) == len(stages)
        assert set(stages) <= set(TRACE_STAGES)
        for _, column in batch.moved + batch.stages:
            assert column.shape == (n,) and column.dtype == np.float64
        assert isinstance(batch.fill, float)
        assert [row[0] for row in batch.rows()] == list(range(n))


@settings(max_examples=20, deadline=None)
@given(run_manifests())
def test_run_manifests_digest(manifest):
    assert len(manifest.digest()) == 16
