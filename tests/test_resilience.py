"""Tests for the resilience layer: the pool worker-death regression,
the chunksize fix, the fault-injection harness, cache quarantine
semantics, and ``simulate_many``'s failure policies. The
``run_fanout`` policies themselves (raise/skip/retry) are
covered per backend by ``tests/test_scheduler_conformance.py``."""

import json
import os

import pytest

from repro.arch.config import SparsepipeConfig
from repro.engine import ResultCache
from repro.engine.cache import _entry_name
from repro.errors import InjectedFault, ReproError
from repro.experiments.runner import ExperimentContext
from repro.resilience import Fault, FaultPlan, activate, drain_fired
from repro.resilience import faults as faults_mod
from repro.scheduler import base as scheduler_base
from repro.scheduler import pool_chunksize, run_fanout
from tests.store_rows import keys, read_doc, write_doc

_PARENT_PID = os.getpid()


# ----------------------------------------------------------------------
# Module-level (picklable) worker functions
# ----------------------------------------------------------------------
def _double(x):
    return x * 2


def _die_on_three(x):
    """Simulates an OOM-killed worker: dies only in a pool worker, so
    the serial fallback in the parent completes normally."""
    if x == 3 and os.getpid() != _PARENT_PID:
        os._exit(1)
    return x * 2


class TestParallelMapRegressions:
    """Regressions of the process-pool map (the ``localpool`` backend)."""

    def test_worker_death_falls_back_to_serial(self):
        # Seed bug: BrokenProcessPool was not in the except clause, so
        # one OOM-killed worker crashed the whole sweep.
        outcome = run_fanout(_die_on_three, range(6), backend="localpool",
                             max_workers=2)
        assert outcome.results == [0, 2, 4, 6, 8, 10]

    def test_chunksize_uses_real_worker_count(self, monkeypatch):
        # Seed bug: with max_workers=None the heuristic divided by
        # len(items)//2 instead of the pool's real default, os.cpu_count().
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert pool_chunksize(64, None) == 8  # 64 / (4 * 2)
        assert pool_chunksize(64, 2) == 16    # explicit workers win
        assert pool_chunksize(1, None) == 1   # never below one
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool_chunksize(10, None) == 5  # cpu_count unknown -> 1

    def test_healthy_pool_still_works(self):
        outcome = run_fanout(_double, range(8), backend="localpool",
                             max_workers=2)
        assert outcome.results == [x * 2 for x in range(8)]
        assert not outcome.pool_broken

    def test_pool_runs_a_closure_over_local_state(self):
        # Workers are forked, so fn need not be picklable: a lambda
        # over a local dict runs in the workers, not the parent.
        state = {"offset": 10}
        outcome = run_fanout(lambda x: (x + state["offset"], os.getpid()),
                             range(4), backend="localpool", max_workers=2)
        assert [value for value, _ in outcome.results] == [10, 11, 12, 13]
        assert _PARENT_PID not in {pid for _, pid in outcome.results}
        assert not outcome.pool_broken

    def test_host_without_fork_degrades_silently(self, monkeypatch):
        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(scheduler_base.multiprocessing, "get_context",
                            no_fork)
        outcome = run_fanout(lambda x: (x * 2, os.getpid()), range(4),
                             backend="localpool", max_workers=2)
        assert outcome.results == [(x * 2, _PARENT_PID) for x in range(4)]
        assert outcome.ok and not outcome.pool_broken
        assert outcome.diagnostics == []


class TestSupervisedMap:
    """A pool break as ``simulate_many`` meets it: one SP601, every
    point completed in-process."""

    def test_worker_death_degrades_with_sp601(self):
        outcome = run_fanout(_die_on_three, range(6), backend="localpool",
                             max_workers=2)
        assert outcome.results == [0, 2, 4, 6, 8, 10]
        assert outcome.pool_broken
        assert [d.code for d in outcome.diagnostics] == ["SP601"]
        assert outcome.ok


class TestFaultPlan:
    def test_should_fire_is_pure_and_seeded(self):
        plan = FaultPlan(seed=1, faults={"s": Fault(kind="raise", rate=0.5)})
        fires = [plan.should_fire("s", str(k)) for k in range(200)]
        again = [plan.should_fire("s", str(k)) for k in range(200)]
        assert fires == again                      # deterministic
        assert 40 < sum(fires) < 160               # roughly the rate
        other = FaultPlan(seed=2, faults={"s": Fault(kind="raise", rate=0.5)})
        assert fires != [other.should_fire("s", str(k)) for k in range(200)]

    def test_explicit_keys_override_rate(self):
        plan = FaultPlan(seed=0, faults={
            "s": Fault(kind="raise", rate=0.0, keys=("a",))})
        assert plan.should_fire("s", "a")
        assert not plan.should_fire("s", "b")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Fault(kind="explode")

    def test_fires_at_most_once_per_key(self):
        plan = FaultPlan(seed=0, faults={"s": Fault(kind="raise", rate=1.0)})
        with activate(plan):
            with pytest.raises(InjectedFault):
                faults_mod.maybe_raise("s", "k")
            faults_mod.maybe_raise("s", "k")  # second call: no fire
            with pytest.raises(InjectedFault):
                faults_mod.maybe_raise("s", "other")
        assert len(drain_fired()) == 2

    def test_injected_fault_carries_sp607(self):
        plan = FaultPlan(seed=0, faults={"s": Fault(kind="raise")})
        with activate(plan):
            with pytest.raises(InjectedFault) as err:
                faults_mod.maybe_raise("s", "k")
        assert err.value.codes == ("SP607",)
        assert isinstance(err.value, ReproError)

    def test_corrupt_text_truncates_and_replaces(self):
        with activate(FaultPlan(seed=0, faults={
                "t": Fault(kind="corrupt_text", payload="truncate")})):
            assert faults_mod.maybe_corrupt_text("t", 1, "abcdef") == "abc"
        with activate(FaultPlan(seed=0, faults={
                "t": Fault(kind="corrupt_text", payload="garbage!")})):
            assert faults_mod.maybe_corrupt_text("t", 1, "abcdef") == "garbage!"
        # No plan: identity.
        assert faults_mod.maybe_corrupt_text("t", 1, "abcdef") == "abcdef"

    def test_corrupt_text_fires_once_per_key(self):
        # The cache.get site mangles a stored document's text; like
        # every site, a key fires at most once per armed plan, so the
        # re-read after a quarantine goes through.
        with activate(FaultPlan(seed=0, faults={
                "f": Fault(kind="corrupt_text", payload="truncate")})):
            assert faults_mod.maybe_corrupt_text("f", "a.json", "0123456789") \
                == "01234"
            assert faults_mod.maybe_corrupt_text("f", "a.json", "0123456789") \
                == "0123456789"
            assert faults_mod.maybe_corrupt_text("f", "b.json", "abcd") == "ab"
        assert [d.location for d in drain_fired()] == ["f[a.json]", "f[b.json]"]

    def test_worker_death_is_noop_outside_workers(self):
        # In the parent process a worker_death fault must never fire
        # (nor be consumed): the supervisor retries serially in-parent.
        plan = FaultPlan(seed=0, faults={
            "w": Fault(kind="worker_death", rate=1.0)})
        with activate(plan):
            faults_mod.maybe_die("w", "k")  # must not exit, not consume
            assert drain_fired() == []

    def test_hooks_are_noops_without_a_plan(self):
        faults_mod.maybe_raise("s", "k")
        faults_mod.maybe_die("s", "k")
        assert faults_mod.active_plan() is None


class TestCacheQuarantine:
    KEY = ("sparsepipe", "pr", "gy", "abc", None, None)

    def _result(self, backend):
        from repro.arch.simulator import SparsepipeSimulator
        from repro.matrices import banded_mesh
        from repro.preprocess import preprocess
        from tests.test_engine import make_profile

        prep = preprocess(banded_mesh(120, 6, 400, seed=3),
                          reorder=None, block_size=None)
        sim = SparsepipeSimulator(
            SparsepipeConfig(subtensor_cols=32, backend=backend))
        return sim.run(make_profile(n_iterations=2), prep)

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("corruption", ["truncated", "wrong_key", "edited"])
    def test_corrupt_entries_quarantine_and_repopulate(
            self, tmp_path, backend, corruption):
        cache = ResultCache(tmp_path)
        result = self._result(backend)
        key = cache.put(*self.KEY, result=result)
        text = read_doc(tmp_path, key)
        if corruption == "truncated":
            text = text[: len(text) // 2]
        elif corruption == "wrong_key":
            doc = json.loads(text)
            doc["key"] = "not the stored key"
            text = json.dumps(doc)
        else:  # hand-edited result payload
            doc = json.loads(text)
            doc["result"] = {"cycles": "tampered"}
            text = json.dumps(doc)
        write_doc(tmp_path, key, text)
        # Miss cleanly...
        assert cache.get(*self.KEY) is None
        # ...quarantine the corpse (never silently re-missed forever)...
        assert keys(tmp_path) == []
        # The corpse's name is the entry's stem plus a hash of its key,
        # byte for byte as seeded chaos plans hash it.
        name = "sparsepipe-pr-gy-937a1ad46fbb34792ab24bd5.json"
        assert _entry_name(*cache._entry(*self.KEY)) == name
        assert [p.name for p in cache.quarantine_paths()] == [name]
        assert (tmp_path / "quarantine" / name).read_text() == text
        diags = cache.pop_diagnostics()
        assert [d.code for d in diags] == ["SP604"]
        assert cache.pop_diagnostics() == []
        # ...and re-populate on the next put.
        cache.put(*self.KEY, result=result)
        assert cache.get(*self.KEY) == result

    def test_missing_file_is_plain_miss_no_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(*self.KEY) is None
        assert not cache.quarantine_dir.exists()
        assert cache.pop_diagnostics() == []

    def test_context_counts_quarantine(self, tmp_path):
        ctx = ExperimentContext(matrices=("gy",), cache_dir=tmp_path)
        ctx.simulate("ideal", "pr", "gy")
        (key,) = keys(tmp_path)
        write_doc(tmp_path, key, "garbage{")
        fresh = ExperimentContext(matrices=("gy",), cache_dir=tmp_path)
        fresh.simulate("ideal", "pr", "gy")
        assert fresh.metrics.counter("cache.quarantined").value == 1
        manifest = fresh.manifest("ideal", "pr", "gy")
        assert any(f.get("code") == "SP604" for f in manifest.faults)

    def test_entry_with_retired_coalesced_key_keeps_provenance(
            self, tmp_path):
        # Store entries written before the coalesced serving flag was
        # retired carry "coalesced": false in their manifest. Reading
        # one back must keep its "retried" status and SP6xx faults —
        # not drop the manifest and rebuild a clean "ok" one.
        ctx = ExperimentContext(matrices=("gy",), cache_dir=tmp_path)
        ctx.simulate("ideal", "pr", "gy")
        (key,) = keys(tmp_path)
        doc = json.loads(read_doc(tmp_path, key))
        fault = {"code": "SP602", "severity": "warning",
                 "message": "attempt 1/3 failed; retrying",
                 "location": "ideal/pr/gy"}
        doc["manifest"].update(
            coalesced=False, status="retried", faults=[fault])
        write_doc(tmp_path, key, json.dumps(doc))

        fresh = ExperimentContext(matrices=("gy",), cache_dir=tmp_path)
        fresh.simulate("ideal", "pr", "gy")
        manifest = fresh.manifest("ideal", "pr", "gy")
        assert manifest.from_cache
        assert manifest.status == "retried"
        assert manifest.faults == (fault,)
        assert manifest.digest() == ctx.manifest("ideal", "pr", "gy").digest()


class TestSimulateManyPolicies:
    POINTS = [("ideal", "pr", "gy"), ("ideal", "kcore", "gy")]
    PLAN = FaultPlan(seed=0, faults={
        "engine.run": Fault(kind="raise", rate=1.0)})

    def test_skip_returns_none_and_failed_manifest(self):
        ctx = ExperimentContext(on_error="skip")
        with activate(self.PLAN):
            results = ctx.simulate_many(self.POINTS)
        assert results == [None, None]
        for point in self.POINTS:
            manifest = ctx.manifest(*point)
            assert manifest.status == "failed"
            assert any(f.get("code") == "SP603" for f in manifest.faults)
        assert ctx.metrics.counter("resilience.failures").value == 2

    def test_retry_recovers_and_marks_manifest(self, tmp_path):
        ctx = ExperimentContext(on_error="retry", cache_dir=tmp_path)
        baseline = ExperimentContext().simulate_many(self.POINTS)
        with activate(self.PLAN):
            results = ctx.simulate_many(self.POINTS)
        assert results == baseline
        for point in self.POINTS:
            manifest = ctx.manifest(*point)
            assert manifest.status == "retried"
            assert any(f.get("code") == "SP602" for f in manifest.faults)
        assert ctx.metrics.counter("resilience.retries").value == 2
        # The store keeps the amended manifest: a warm rerun from a
        # fresh context still reports the retry and its fault records.
        warm = ExperimentContext(cache_dir=tmp_path)
        assert warm.simulate_many(self.POINTS) == baseline
        assert warm.metrics.counter("cache.disk_hits").value == 2
        for point in self.POINTS:
            manifest = warm.manifest(*point)
            assert manifest.from_cache
            assert manifest.status == "retried"
            assert manifest.faults == ctx.manifest(*point).faults

    @pytest.mark.parametrize("scheduler", ["inprocess", "localpool"])
    def test_retried_point_row_is_written_once(self, tmp_path, monkeypatch,
                                               scheduler):
        # The row is written once, with its final "retried" manifest,
        # by the sweeping process: never "ok" first and amended later.
        written = []
        real = ResultCache.put_many

        def spy(cache, entries):
            entries = list(entries)
            written.append([cache._entry(*point)[1]
                            for point, _result, _manifest in entries])
            return real(cache, entries)

        monkeypatch.setattr(ResultCache, "put_many", spy)
        ctx = ExperimentContext(on_error="retry", cache_dir=tmp_path,
                                scheduler=scheduler, max_workers=2)
        with activate(self.PLAN):
            ctx.simulate_many(self.POINTS)
        assert len(written) == 1
        assert sorted(written[0]) == keys(tmp_path)
        for key in written[0]:
            doc = json.loads(read_doc(tmp_path, key))
            assert doc["manifest"]["status"] == "retried"

    def test_raise_policy_is_default(self):
        with activate(self.PLAN):
            with pytest.raises(InjectedFault):
                ExperimentContext().simulate_many(self.POINTS)

    def test_retried_digest_matches_clean_digest(self):
        # Failure provenance is unstable metadata: surviving a fault
        # must not change run identity.
        clean = ExperimentContext()
        clean.simulate_many(self.POINTS)
        chaotic = ExperimentContext(on_error="retry")
        with activate(self.PLAN):
            chaotic.simulate_many(self.POINTS)
        for point in self.POINTS:
            assert chaotic.manifest(*point).digest() == \
                clean.manifest(*point).digest()

    def test_bad_policy_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="on_error"):
            ExperimentContext(on_error="explode")


class TestRaiseContract:
    """Under ``on_error="raise"`` the points before the failing one are
    recorded, in memory and in the store, and none after it — on both
    backends."""

    POINTS = [("ideal", "pr", "gy"), ("cpu", "pr", "gy"),
              ("sparsepipe", "pr", "gy"), ("ideal", "kcore", "gy"),
              ("cpu", "kcore", "gy")]
    #: The third point (k = 3) fails; engine.run keys are arch/workload.
    K = 3
    PLAN = FaultPlan(seed=0, faults={
        "engine.run": Fault(kind="raise", keys=("sparsepipe/pr",))})

    @pytest.mark.parametrize("scheduler", ["inprocess", "localpool"])
    def test_points_before_the_failure_are_recorded(self, tmp_path,
                                                    scheduler):
        before, after = self.POINTS[:self.K - 1], self.POINTS[self.K - 1:]
        ctx = ExperimentContext(cache_dir=tmp_path, scheduler=scheduler,
                                max_workers=2)
        with activate(self.PLAN):
            with pytest.raises(InjectedFault):
                ctx.simulate_many(self.POINTS)
        assert all(ctx.manifest(*p).status == "ok" for p in before)
        assert all(ctx.manifest(*p) is None for p in after)
        # Nothing after the failing point reached the store...
        assert len(keys(tmp_path)) == len(before)
        # ...and a fresh context serves the points before it from disk.
        fresh = ExperimentContext(cache_dir=tmp_path)
        assert fresh.simulate_many(before) == \
            ExperimentContext().simulate_many(before)
        assert fresh.metrics.value("cache.disk_hits") == len(before)
        assert fresh.metrics.value("cache.misses") == 0
