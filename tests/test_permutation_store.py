"""Reorder permutations as store entries.

:meth:`ExperimentContext.prepared` reads the (matrix, reorder)
permutation from the on-disk store before it runs a reorder; only a
miss reorders and stores it. Preprocess results built from a stored
permutation must match the preprocess golden, a ``CODE_VERSION`` bump
must miss the row without quarantining it, and a row that is not a
permutation of ``range(n)`` must be quarantined (SP604) exactly once
and recomputed, like a corrupt profile.
"""

from __future__ import annotations

import json

import pytest

import repro.engine.cache as cache_mod
from repro.engine.cache import ResultCache, _entry_name
from repro.experiments.runner import ExperimentContext
from repro.matrices.suite import suite_names
from repro.preprocess import pipeline
from tests.store_rows import keys, write_doc
from tests.test_goldens_layers import PREPROCESS_PATH, preprocess_doc

MATRICES = tuple(suite_names())
MATRIX = "gy"


@pytest.fixture(scope="module")
def golden():
    return json.loads(PREPROCESS_PATH.read_text())


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A store holding the default (``vanilla``) permutation of every
    suite matrix."""
    root = tmp_path_factory.mktemp("permutation-store")
    ctx = ExperimentContext(cache_dir=root)
    for name in MATRICES:
        ctx.prepared(name)
    assert ctx.metrics.value("cache.permutation_misses") == len(MATRICES)
    assert len(keys(root, "permutation")) == len(MATRICES)
    return root


def counted_reorders(monkeypatch) -> list:
    """Record the name of every registered reorder that runs."""
    calls = []
    for name, algorithm in list(pipeline.REORDER_ALGORITHMS.items()):
        def counting(matrix, _algorithm=algorithm, _name=name):
            calls.append(_name)
            return _algorithm(matrix)

        monkeypatch.setitem(pipeline.REORDER_ALGORITHMS, name, counting)
    return calls


def test_filled_store_serves_every_matrix_without_reordering(
        filled, golden, monkeypatch):
    calls = counted_reorders(monkeypatch)
    ctx = ExperimentContext(cache_dir=filled)
    served = {name: preprocess_doc(ctx.prepared(name)) for name in MATRICES}
    assert calls == []
    assert served == golden
    assert ctx.metrics.value("cache.permutation_hits") == len(MATRICES)
    assert ctx.metrics.value("cache.permutation_misses") == 0
    # Permutation probes never count as result lookups.
    assert ctx.metrics.value("cache.hits") == 0
    assert ctx.metrics.value("cache.misses") == 0


def test_storeless_context_reorders(golden, monkeypatch):
    calls = counted_reorders(monkeypatch)
    ctx = ExperimentContext()
    assert preprocess_doc(ctx.prepared(MATRIX)) == golden[MATRIX]
    assert calls == ["vanilla"]


def test_code_version_bump_misses_without_quarantine(
        tmp_path, golden, monkeypatch):
    ExperimentContext(cache_dir=tmp_path).prepared(MATRIX)
    monkeypatch.setattr(cache_mod, "CODE_VERSION", "999")
    calls = counted_reorders(monkeypatch)
    ctx = ExperimentContext(cache_dir=tmp_path)
    assert preprocess_doc(ctx.prepared(MATRIX)) == golden[MATRIX]
    assert calls == ["vanilla"]
    assert ctx.metrics.value("cache.permutation_misses") == 1
    assert ctx.metrics.value("cache.permutation_hits") == 0
    assert ctx.metrics.value("cache.quarantined") == 0
    assert ResultCache(tmp_path).quarantine_paths() == []
    # The stale row stays beside the new one; it is a miss, not damage.
    assert len(keys(tmp_path, "permutation")) == 2


def _damaged(damage: str, key: str, perm) -> str:
    if damage == "garbled":
        return "garbage{"
    values = perm.tolist()
    if damage == "wrong-length":
        values = values[:-1]
    elif damage == "not-a-permutation":
        values[0] = values[1]
    elif damage == "floats":
        values = [float(v) for v in values]
    return json.dumps({"key": key, "permutation": values})


@pytest.mark.parametrize(
    "damage", ["garbled", "wrong-length", "not-a-permutation", "floats"])
def test_bad_row_is_quarantined_once_and_recomputed(
        tmp_path, golden, monkeypatch, damage):
    computed = ExperimentContext(cache_dir=tmp_path).prepared(MATRIX)
    store = ResultCache(tmp_path)
    stem, key = store._permutation_entry(MATRIX, "vanilla")
    write_doc(tmp_path, key, _damaged(damage, key, computed.permutation))

    calls = counted_reorders(monkeypatch)
    ctx = ExperimentContext(cache_dir=tmp_path)
    assert preprocess_doc(ctx.prepared(MATRIX)) == golden[MATRIX]
    assert calls == ["vanilla"]
    assert ctx.metrics.value("cache.permutation_misses") == 1
    assert ctx.metrics.value("cache.quarantined") == 1
    assert ctx.lint_health().get("diagnostics[SP604]") == 1
    assert [p.name for p in store.quarantine_paths()] == [_entry_name(stem, key)]
    # The recomputed permutation re-populated the slot: no second
    # quarantine, no second reorder.
    again = ExperimentContext(cache_dir=tmp_path)
    again.prepared(MATRIX)
    assert calls == ["vanilla"]
    assert again.metrics.value("cache.permutation_hits") == 1
    assert again.metrics.value("cache.quarantined") == 0
    assert len(store.quarantine_paths()) == 1


def test_len_and_clear_with_permutations(tmp_path):
    ctx = ExperimentContext(cache_dir=tmp_path)
    ctx.simulate("ideal", "pr", MATRIX)
    store = ResultCache(tmp_path)
    assert len(store) == 1
    assert len(keys(tmp_path, "permutation")) == 1
    assert store.clear() == 1
    assert keys(tmp_path, "permutation") == []
    assert store.get_permutation(MATRIX, "vanilla", 1) is None
