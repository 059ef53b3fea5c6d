"""Workload profiles as store entries.

:meth:`ExperimentContext.profile` looks in memory, then in the on-disk
store, and only then characterizes and stores the profile. A served
profile must equal the computed one exactly, a ``CODE_VERSION`` bump
must retire it, and a corrupt entry must be quarantined (SP604),
surfaced and recomputed, like a corrupt result entry.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

import repro.engine.cache as cache_mod
from repro.engine.cache import ResultCache, _entry_name
from repro.experiments.runner import ExperimentContext
from repro.workloads.registry import workload_names
from tests.store_rows import keys, read_doc, write_doc

MATRIX = "gy"


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A store holding every workload's profile on ``gy``, plus the
    profiles and lint health of the context that computed them."""
    root = tmp_path_factory.mktemp("profile-store")
    ctx = ExperimentContext(matrices=(MATRIX,), cache_dir=root)
    computed = {w: ctx.profile(w, MATRIX) for w in workload_names()}
    assert ctx.metrics.value("cache.profile_misses") == len(computed)
    return root, computed, ctx.lint_health()


def no_characterization(monkeypatch):
    """Make any functional characterization in a context fail loudly."""
    def explode(self, matrix_name):
        raise AssertionError(f"characterized {matrix_name} on a store hit")

    monkeypatch.setattr(ExperimentContext, "graphblas_matrix", explode)


@pytest.mark.parametrize("workload", workload_names())
def test_served_profile_equals_computed(filled, monkeypatch, workload):
    root, computed, _ = filled
    no_characterization(monkeypatch)
    ctx = ExperimentContext(matrices=(MATRIX,), cache_dir=root)
    served = ctx.profile(workload, MATRIX)
    assert served == computed[workload]
    for f in fields(served):
        assert type(getattr(served, f.name)) is type(
            getattr(computed[workload], f.name)), f.name
    assert ctx.metrics.value("cache.profile_hits") == 1
    assert ctx.metrics.value("cache.profile_misses") == 0
    # Profile probes never count as result lookups.
    assert ctx.metrics.value("cache.hits") == 0
    assert ctx.metrics.value("cache.misses") == 0


def test_served_profiles_still_lint_once_per_workload(filled, monkeypatch):
    root, _, lint_health = filled
    no_characterization(monkeypatch)
    ctx = ExperimentContext(matrices=(MATRIX,), cache_dir=root)
    for workload in workload_names():
        ctx.profile(workload, MATRIX)
    assert ctx.lint_health() == lint_health


def test_code_version_bump_recomputes(tmp_path, monkeypatch):
    ExperimentContext(cache_dir=tmp_path).profile("pr", MATRIX)
    monkeypatch.setattr(cache_mod, "CODE_VERSION", "999")
    ctx = ExperimentContext(cache_dir=tmp_path)
    profile = ctx.profile("pr", MATRIX)
    assert ctx.metrics.value("cache.profile_misses") == 1
    assert ctx.metrics.value("cache.profile_hits") == 0
    assert profile == ExperimentContext().profile("pr", MATRIX)


@pytest.mark.parametrize("garbage", ["garbage{", '{"key": "wrong"}',
                                     '{"key": null, "profile": 1}'])
def test_corrupt_entry_is_quarantined_and_recomputed(tmp_path, garbage):
    computed = ExperimentContext(cache_dir=tmp_path).profile("bfs", MATRIX)
    store = ResultCache(tmp_path)
    stem, key = store._profile_entry("bfs", MATRIX)
    write_doc(tmp_path, key, garbage)

    ctx = ExperimentContext(cache_dir=tmp_path)
    assert ctx.profile("bfs", MATRIX) == computed
    assert ctx.metrics.value("cache.profile_misses") == 1
    assert ctx.metrics.value("cache.quarantined") == 1
    assert ctx.lint_health().get("diagnostics[SP604]") == 1
    assert [p.name for p in store.quarantine_paths()] == [_entry_name(stem, key)]
    # The recomputed profile re-populated the slot.
    again = ExperimentContext(cache_dir=tmp_path)
    assert again.profile("bfs", MATRIX) == computed
    assert again.metrics.value("cache.profile_hits") == 1


def test_undecodable_profile_is_quarantined(tmp_path):
    store = ResultCache(tmp_path)
    profile = ExperimentContext().profile("pr", MATRIX)
    key = store.put_profile("pr", MATRIX, profile)
    assert store.get_profile("pr", MATRIX) == profile
    doc = json.loads(read_doc(tmp_path, key))
    doc["profile"]["n_iterations"] = 0
    write_doc(tmp_path, key, json.dumps(doc))
    assert store.get_profile("pr", MATRIX) is None
    assert [d.code for d in store.pop_diagnostics()] == ["SP604"]
    assert keys(tmp_path, "profile") == []


def test_len_counts_results_and_clear_removes_profiles(tmp_path):
    ctx = ExperimentContext(cache_dir=tmp_path)
    ctx.simulate("ideal", "pr", MATRIX)
    store = ResultCache(tmp_path)
    # One result entry; its profile is stored beside it but not counted.
    assert len(store) == 1
    assert len(keys(tmp_path, "profile")) == 1
    # clear() returns the result entries it removed and drops profiles.
    assert store.clear() == 1
    assert len(store) == 0
    assert keys(tmp_path, "profile") == []
    assert store.get_profile("pr", MATRIX) is None
