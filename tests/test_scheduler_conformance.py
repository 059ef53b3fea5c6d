"""Scheduler-backend conformance suite.

One parametrized suite run identically against both backends
(``inprocess`` / ``localpool``): protocol semantics
(submit/poll/shutdown), the supervised failure policies
(raise/skip/retry), the watchdog, and sweep-level conformance —
bit-identical ``SimResult``s and digest-stable manifests regardless of
substrate. Backends may not special-case their way out: the test ids
name the backend, so a failure reads as a conformance violation of
that backend.
"""

import collections
import os
import time

import pytest

from repro.errors import ConfigError, WatchdogTimeout
from repro.experiments.runner import ExperimentContext
from repro.obs.metrics import MetricsRegistry
from repro.scheduler import (
    BACKENDS as SCHEDULER_BACKENDS,
    DONE,
    FAILED,
    PENDING,
    FanoutOutcome,
    create_scheduler,
    run_fanout,
)

BACKENDS = ("inprocess", "localpool")

_PARENT_PID = os.getpid()

#: Cheap simulation points for the sweep-conformance tests.
SWEEP_POINTS = [
    ("sparsepipe", "pr", "gy"),
    ("ideal", "pr", "gy"),
    ("cpu", "pr", "gy"),
]


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


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def make_scheduler(backend):
    """Factory for schedulers of the parametrized backend; everything
    created through it is shut down at teardown."""
    created = []

    def factory(**options):
        sched = create_scheduler(backend, **options)
        created.append(sched)
        return sched

    yield factory
    for sched in created:
        sched.shutdown()


class TestProtocol:
    def test_registry_knows_every_backend(self):
        assert set(SCHEDULER_BACKENDS) == set(BACKENDS)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown scheduler"):
            create_scheduler("carrier-pigeon")

    def test_submit_poll_lifecycle(self, make_scheduler, backend):
        sched = make_scheduler()
        job = sched.submit(_double, 21)
        assert job.status == PENDING
        assert job.job_id.startswith(backend)
        assert sched.poll(job) == DONE
        assert job.result == 42

    def test_failure_is_a_status_not_a_crash(self, make_scheduler):
        sched = make_scheduler()
        job = sched.submit(_always_fails, 1)
        assert sched.poll(job) == FAILED
        assert isinstance(job.exception, Exception)
        assert "permanent" in job.error


class TestPolicies:
    """run_fanout's raise/skip/retry semantics, per backend."""

    def test_identical_results(self, make_scheduler):
        sched = make_scheduler()
        outcome = run_fanout(sched, _double, range(6))
        assert outcome.results == [0, 2, 4, 6, 8, 10]
        assert outcome.ok and not outcome.pool_broken

    def test_empty_items(self, make_scheduler):
        outcome = run_fanout(make_scheduler(), _double, [])
        assert outcome == FanoutOutcome(results=[])

    def test_raise_policy_propagates(self, make_scheduler):
        with pytest.raises(ValueError, match="permanent"):
            run_fanout(make_scheduler(), _always_fails, [1, 2])

    def test_skip_policy_records_failures(self, make_scheduler):
        outcome = run_fanout(
            make_scheduler(), _always_fails, [1, 2, 3], on_error="skip")
        assert outcome.results == [None, None, None]
        assert [f.index for f in outcome.failures] == [0, 1, 2]
        assert all(f.diagnostic.code == "SP603" for f in outcome.failures)

    def test_retry_policy_recovers_transients(self, make_scheduler):
        _CALLS.clear()
        outcome = run_fanout(
            make_scheduler(), _flaky_once, [4, 5],
            on_error="retry", retries=2)
        assert outcome.results == [8, 10]
        assert outcome.ok
        assert sorted(outcome.retried) == [0, 1]
        assert all(d.code == "SP602"
                   for diags in outcome.retried.values() for d in diags)

    def test_retry_policy_exhausts_to_failure(self, make_scheduler):
        outcome = run_fanout(
            make_scheduler(), _always_fails, [1],
            on_error="retry", retries=2)
        assert outcome.results == [None]
        assert outcome.failures[0].attempts == 3

    def test_watchdog_times_out_hung_item(self, make_scheduler):
        sched = make_scheduler(timeout_s=0.2)
        outcome = run_fanout(sched, _slow, [1], on_error="skip")
        assert outcome.results == [None]
        error = outcome.failures[0].error
        assert "SP606" in error or "Watchdog" in error or "watchdog" in error

    def test_watchdog_raise_policy(self, make_scheduler):
        with pytest.raises(WatchdogTimeout):
            run_fanout(make_scheduler(timeout_s=0.2), _slow, [1])

    def test_unknown_policy_rejected(self, make_scheduler):
        with pytest.raises(ValueError, match="on_error"):
            run_fanout(make_scheduler(), _double, [1], on_error="ignore")

    def test_worker_death_degrades_not_crashes(self, make_scheduler,
                                               backend):
        """A dead worker is a substrate degradation (SP601 + in-process
        completion) on the pool backend and a non-event on the
        in-process one — never a failed sweep."""
        sched = make_scheduler(max_workers=2)
        outcome = run_fanout(sched, _die_outside_parent, range(4))
        assert outcome.results == [0, 2, 4, 6]
        assert outcome.ok
        if backend == "inprocess":
            assert not outcome.pool_broken and not outcome.diagnostics
        else:
            assert outcome.pool_broken
            assert {d.code for d in outcome.diagnostics} == {"SP601"}

    def test_metrics_counters_flow(self, make_scheduler, backend):
        metrics = MetricsRegistry()
        run_fanout(make_scheduler(), _double, range(3), metrics=metrics)
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
