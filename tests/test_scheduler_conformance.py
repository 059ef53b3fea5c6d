"""Scheduler-backend conformance suite.

One parametrized suite run identically against both ``run_fanout``
backends (``inprocess`` / ``localpool``): backend-name validation,
the supervised failure policies (raise/skip/retry), worker death,
the pool that ``max_workers`` alone picks, and sweep-level
conformance —
bit-identical ``SimResult``s and digest-stable manifests regardless of
substrate. Backends may not special-case their way out: the test ids
name the backend, so a failure reads as a conformance violation of
that backend.
"""

import collections
import json
import os
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.arch import autotune
from repro.arch.config import SparsepipeConfig
from repro.arch.profile import WorkloadProfile
from repro.engine.registry import run_engine
from repro.errors import ConfigError
from repro.experiments.runner import ARCHITECTURES, ExperimentContext
from repro.matrices import rmat
from repro.obs.metrics import MetricsRegistry
from repro.preprocess import pipeline
from repro.resilience import Fault, FaultPlan, activate
from repro.scheduler import BACKENDS, FanoutOutcome, run_fanout
from repro.testing import digest
from repro.workloads.base import Workload
from repro.workloads.registry import workload_names

_PARENT_PID = os.getpid()

#: Cheap simulation points for the sweep-conformance tests.
SWEEP_POINTS = [
    ("sparsepipe", "pr", "gy"),
    ("ideal", "pr", "gy"),
    ("cpu", "pr", "gy"),
]

#: Committed digests of the default-config grid, one per
#: ``arch/workload/matrix`` (perfbench's ``grid`` family).
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

#: Matrices whose every (arch, workload) column the pool-path digest
#: test sweeps.
POOL_GRID_MATRICES = ("gy", "bu", "g2")


# ----------------------------------------------------------------------
# Module-level (picklable) job functions
# ----------------------------------------------------------------------
def _double(x):
    return x * 2


def _pid(_x):
    return os.getpid()


def _always_fails(x):
    raise ValueError(f"permanent failure on {x}")


_CALLS = collections.Counter()


def _flaky_once(x):
    """Fails the first time each value is seen in this process — a
    worker-side first attempt leaves the parent's counter untouched,
    so the in-process retry recovers on every backend."""
    _CALLS[x] += 1
    if _CALLS[x] == 1:
        raise ValueError(f"transient failure on {x}")
    return x * 2


def _die_outside_parent(x):
    """Worker death: exits hard anywhere but the submitting process."""
    if os.getpid() != _PARENT_PID:
        os._exit(17)
    return x * 2


_PARENT_RUNS = []


def _die_or_fail_on_one(x):
    """Worker death outside the submitting process; in it, item 1
    always fails. Records every item the parent runs."""
    if os.getpid() != _PARENT_PID:
        os._exit(17)
    _PARENT_RUNS.append(x)
    if x == 1:
        raise ValueError(f"permanent failure on {x}")
    return x * 2


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def fanout(backend):
    """``run_fanout`` on the parametrized backend."""
    def run(fn, items, **options):
        return run_fanout(fn, items, backend=backend, **options)

    return run


class TestProtocol:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown scheduler"):
            run_fanout(_double, [1], backend="carrier-pigeon")

    @pytest.mark.parametrize("max_workers, pooled",
                             [(None, False), (1, False), (2, True)])
    def test_max_workers_alone_picks_the_pool(self, max_workers, pooled):
        metrics = MetricsRegistry()
        pids = run_fanout(_pid, range(4), max_workers=max_workers,
                          metrics=metrics).results
        assert (_PARENT_PID not in pids) == pooled
        backend = "localpool" if pooled else "inprocess"
        assert metrics.value(f"scheduler.backend.{backend}") == 1


class TestPolicies:
    """run_fanout's raise/skip/retry semantics, per backend."""

    def test_identical_results(self, fanout):
        outcome = fanout(_double, range(6))
        assert outcome.results == [0, 2, 4, 6, 8, 10]
        assert outcome.ok and not outcome.pool_broken

    def test_empty_items(self, fanout):
        outcome = fanout(_double, [])
        assert outcome == FanoutOutcome(results=[])

    def test_raise_policy_propagates(self, fanout):
        with pytest.raises(ValueError, match="permanent"):
            fanout(_always_fails, [1, 2])

    def test_skip_policy_records_failures(self, fanout):
        outcome = fanout(_always_fails, [1, 2, 3], on_error="skip")
        assert outcome.results == [None, None, None]
        assert not outcome.ok
        assert [f.index for f in outcome.failures] == [0, 1, 2]
        assert all(f.diagnostic.code == "SP603" for f in outcome.failures)

    def test_retry_policy_recovers_transients(self, fanout):
        _CALLS.clear()
        outcome = fanout(_flaky_once, [4, 5], on_error="retry")
        assert outcome.results == [8, 10]
        assert outcome.ok
        assert sorted(outcome.retried) == [0, 1]
        assert all(d.code == "SP602"
                   for diags in outcome.retried.values() for d in diags)

    def test_retry_policy_exhausts_to_failure(self, fanout):
        outcome = fanout(_always_fails, [1], on_error="retry")
        assert outcome.results == [None]
        assert outcome.failures[0].attempts == 3

    def test_unknown_policy_rejected(self, fanout):
        with pytest.raises(ValueError, match="on_error"):
            fanout(_double, [1], on_error="ignore")

    def test_worker_death_degrades_not_crashes(self, fanout, backend):
        """A dead worker is a substrate degradation (SP601 + in-process
        completion) on the pool backend and a non-event on the
        in-process one — never a failed sweep."""
        outcome = fanout(_die_outside_parent, range(4), max_workers=2)
        assert outcome.results == [0, 2, 4, 6]
        assert outcome.ok
        if backend == "inprocess":
            assert not outcome.pool_broken and not outcome.diagnostics
        else:
            assert outcome.pool_broken
            assert {d.code for d in outcome.diagnostics} == {"SP601"}

    def test_raise_policy_stops_at_first_failure(self, fanout):
        """Under ``"raise"`` the in-process tail runs item by item: with
        every pool worker dead, the parent runs items 0 and 1 and
        raises — it does not finish the sweep first."""
        _PARENT_RUNS.clear()
        with pytest.raises(ValueError, match="permanent"):
            fanout(_die_or_fail_on_one, range(6), max_workers=2)
        assert _PARENT_RUNS == [0, 1]

    def test_metrics_counters_flow(self, fanout, backend):
        metrics = MetricsRegistry()
        fanout(_double, range(3), metrics=metrics)
        assert metrics.counter("scheduler.submitted").value == 3
        assert metrics.counter("scheduler.completed").value == 3
        assert metrics.counter(f"scheduler.backend.{backend}").value == 1


class TestSweepConformance:
    """simulate_many on an explicit backend: bit-identical SimResults
    and digest-stable manifests versus the serial reference."""

    def test_results_and_digests_match_serial_reference(self, backend):
        reference = ExperimentContext()
        baseline = reference.simulate_many(SWEEP_POINTS)

        context = ExperimentContext(max_workers=2, scheduler=backend)
        results = context.simulate_many(SWEEP_POINTS)

        assert results == baseline
        for point in SWEEP_POINTS:
            assert context.manifest(*point).digest() == \
                reference.manifest(*point).digest()
            assert context.manifest(*point).status == "ok"

    def test_scheduler_counters_reach_context_metrics(self, backend):
        context = ExperimentContext(max_workers=2, scheduler=backend)
        context.simulate_many(SWEEP_POINTS)
        metrics = context.metrics.to_dict()
        assert metrics["scheduler.submitted"]["value"] == len(SWEEP_POINTS)
        assert f"scheduler.backend.{backend}" in metrics

    @pytest.mark.parametrize("name", ["carrier-pigeon", "spool"])
    def test_unknown_backend_rejected_at_context_construction(self, name):
        with pytest.raises(ConfigError, match="unknown scheduler"):
            ExperimentContext(scheduler=name)

    def test_lint_health_matches_serial_reference(self, backend):
        """Suppressed verifier warnings (cg's SP203s) reach the sweeping
        context on every backend, once per workload."""
        points = [(a, w, "gy") for a in ("ideal", "cpu")
                  for w in ("cg", "pr")]
        reference = ExperimentContext()
        reference.simulate_many(points)
        context = ExperimentContext(max_workers=2, scheduler=backend)
        context.simulate_many(points)
        assert context.lint_health() == reference.lint_health()
        assert context.lint_health()["diagnostics[SP203]"] >= 2

    def test_pool_grid_matches_expected_digests(self):
        """Every arch x workload column of three matrices through the
        pool path, against the committed grid digests."""
        expected = json.loads(EXPECTED.read_text())["grid"]
        context = ExperimentContext(max_workers=2, scheduler="localpool")
        points = [(a, w, m) for a in ARCHITECTURES
                  for w in workload_names() for m in POOL_GRID_MATRICES]
        results = context.simulate_many(points)
        assert len(points) == 198
        mismatched = [
            "/".join(p) for p, r in zip(points, results)
            if digest(r.to_dict()) != expected["/".join(p)]
        ]
        assert mismatched == []


#: Points of the store-reading tests: every arch on three workloads
#: (gcn overrides ``profile``) and two matrices.
STORE_POINTS = [(a, w, m) for a in ARCHITECTURES
                for w in ("pr", "kcore", "gcn") for m in ("gy", "bu")]

#: A config no filled store holds a result for.
NEW_CONFIG = replace(SparsepipeConfig(), subtensor_cols=64)


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A store holding every profile and permutation of
    :data:`STORE_POINTS` (and their default-config results), plus the
    store-less reference results under :data:`NEW_CONFIG`."""
    root = tmp_path_factory.mktemp("pool-store")
    ExperimentContext(cache_dir=root).simulate_many(STORE_POINTS)
    reference = ExperimentContext(config=NEW_CONFIG)
    return root, reference.simulate_many(STORE_POINTS)


@pytest.fixture
def filled_store(filled, tmp_path):
    """A private copy of the filled store (a sweep adds its results)."""
    root, expected = filled
    return shutil.copytree(root, tmp_path / "store"), expected


@pytest.fixture
def no_recompute(monkeypatch):
    """Characterization and every reorder raise — in this process and,
    through fork, in every pool worker started after the patch."""
    def refuse(*args, **kwargs):
        raise AssertionError("recomputed what the store holds")

    monkeypatch.setattr(Workload, "profile", refuse)
    for name in list(pipeline.REORDER_ALGORITHMS):
        monkeypatch.setitem(pipeline.REORDER_ALGORITHMS, name, refuse)


class TestPoolReadsTheStore:
    """Both backends run one closure over the sweeping context, so pool
    workers and the in-process tail read profiles and permutations from
    the context's memo and store instead of recomputing them."""

    def test_pooled_new_config_sweep_recomputes_nothing(
            self, filled_store, no_recompute):
        root, expected = filled_store
        context = ExperimentContext(cache_dir=root, config=NEW_CONFIG,
                                    max_workers=2, scheduler="localpool")
        assert context.simulate_many(STORE_POINTS) == expected
        assert context.metrics.value("resilience.pool_breaks") == 0
        assert context.metrics.value("cache.misses") == len(STORE_POINTS)
        # The parent read each (workload, matrix) profile once, before
        # the fan-out, exactly as an in-process sweep does.
        assert context.metrics.value("cache.profile_hits") == 6
        assert context.metrics.value("cache.permutation_hits") == 2

    def test_one_point_localpool_fanout_uses_the_store(
            self, filled_store, no_recompute):
        root, expected = filled_store
        context = ExperimentContext(cache_dir=root, config=NEW_CONFIG,
                                    max_workers=2, scheduler="localpool")
        assert context.simulate_many(STORE_POINTS[:1]) == expected[:1]
        assert context.metrics.value("cache.profile_hits") == 1
        assert context.metrics.value("cache.permutation_hits") == 1

    def test_tail_after_worker_death_uses_the_store(
            self, filled_store, no_recompute):
        root, expected = filled_store
        context = ExperimentContext(cache_dir=root, config=NEW_CONFIG,
                                    max_workers=2, scheduler="localpool")
        plan = FaultPlan(seed=0, faults={
            "parallel.worker": Fault(kind="worker_death", rate=1.0)})
        with activate(plan):
            assert context.simulate_many(STORE_POINTS) == expected
        assert context.metrics.value("resilience.pool_breaks") == 1
        # Every point ran in the parent, from the store: one profile
        # read per (workload, matrix), the rest from the memo.
        assert context.metrics.value("cache.profile_hits") == 6
        assert context.metrics.value("cache.profile_misses") == 0


class TestAutotunePool:
    """``autotune_subtensor_cols`` probes its candidate widths in forked
    workers iff more than one worker is allowed, and selects the same
    width and result either way."""

    CANDIDATES = (16, 64, 256)

    def tune(self, tmp_path, monkeypatch, max_workers):
        """``(best, result, pids)``: ``pids`` has one line per
        ``run_engine`` call, written by the process that made it."""
        log = tmp_path / f"pids-{max_workers}.txt"

        def recording(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return run_engine(*args, **kwargs)

        monkeypatch.setattr(autotune, "run_engine", recording)
        profile = WorkloadProfile(
            name="pr", semiring_name="mul_add", has_oei=True,
            n_iterations=8, path_ewise_ops=2,
        )
        best, result = autotune.autotune_subtensor_cols(
            profile, rmat(500, 4000, seed=5), candidates=self.CANDIDATES,
            max_workers=max_workers,
        )
        return best, result, [int(pid) for pid in log.read_text().split()]

    def test_probes_run_in_forked_workers(self, tmp_path, monkeypatch):
        _best, _result, pids = self.tune(tmp_path, monkeypatch, 2)
        # Every probe in a worker, then the full run here.
        assert len(pids) == len(self.CANDIDATES) + 1
        assert _PARENT_PID not in pids[:-1]
        assert pids[-1] == _PARENT_PID

    @pytest.mark.parametrize("max_workers", [None, 1])
    def test_probes_run_in_process(self, tmp_path, monkeypatch,
                                   max_workers):
        best, result, pids = self.tune(tmp_path, monkeypatch, max_workers)
        assert pids == [_PARENT_PID] * (len(self.CANDIDATES) + 1)
        pooled_best, pooled_result, _ = self.tune(tmp_path, monkeypatch, 2)
        assert (best, result) == (pooled_best, pooled_result)
