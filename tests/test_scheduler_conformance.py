"""Scheduler-backend conformance suite.

One parametrized suite run identically against both ``run_fanout``
backends (``inprocess`` / ``localpool``): backend-name validation,
the supervised failure policies (raise/skip/retry), the watchdog,
worker death, and sweep-level conformance —
bit-identical ``SimResult``s and digest-stable manifests regardless of
substrate. Backends may not special-case their way out: the test ids
name the backend, so a failure reads as a conformance violation of
that backend.
"""

import collections
import json
import os
import time
from pathlib import Path

import pytest

from repro.errors import ConfigError, WatchdogTimeout
from repro.experiments.runner import ARCHITECTURES, ExperimentContext
from repro.obs.metrics import MetricsRegistry
from repro.scheduler import BACKENDS, FanoutOutcome, run_fanout
from repro.testing import digest
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


def _slow(x):
    time.sleep(30)
    return x  # pragma: no cover - the watchdog fires first


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
        outcome = fanout(_flaky_once, [4, 5], on_error="retry", retries=2)
        assert outcome.results == [8, 10]
        assert outcome.ok
        assert sorted(outcome.retried) == [0, 1]
        assert all(d.code == "SP602"
                   for diags in outcome.retried.values() for d in diags)

    def test_retry_policy_exhausts_to_failure(self, fanout):
        outcome = fanout(_always_fails, [1], on_error="retry", retries=2)
        assert outcome.results == [None]
        assert outcome.failures[0].attempts == 3

    def test_watchdog_times_out_hung_item(self, fanout):
        outcome = fanout(_slow, [1], on_error="skip", timeout_s=0.2)
        assert outcome.results == [None]
        error = outcome.failures[0].error
        assert "SP606" in error or "Watchdog" in error or "watchdog" in error

    def test_watchdog_raise_policy(self, fanout):
        with pytest.raises(WatchdogTimeout):
            fanout(_slow, [1], timeout_s=0.2)

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
