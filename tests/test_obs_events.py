"""Regression lock on the simulator's observer event contract.

The :mod:`repro.engine.instrumentation` docstring promises three
things downstream observers (timeline, metrics, step traces) depend
on; this file turns each promise into a test:

1. ``step`` is always the **last** event of its step — every transfer /
   prefetch / evict / repack is flushed before its step commits;
2. ``FILL_STEP`` fires exactly once per OEI pair (and once per
   single-iteration stream tail);
3. with **no observers registered neither backend constructs a
   batch at all** — the zero-observer fast path really is event-free,
   not merely event-discarding.
"""

import numpy as np
import pytest

from repro.arch.config import SparsepipeConfig
from repro.arch.profile import WorkloadProfile
from repro.arch import fastpath as fastpath_module
from repro.arch import simulator as simulator_module
from repro.arch.simulator import SparsepipeSimulator
from repro.engine.instrumentation import (
    FILL_STEP,
    EventLogObserver,
    Instrumentation,
    ReplayBatch,
)
from repro.formats.coo import COOMatrix


def _coo(n=24, density=0.25, seed=7):
    gen = np.random.default_rng(seed)
    dense = (gen.random((n, n)) < density) * gen.uniform(0.1, 1.0, (n, n))
    return COOMatrix.from_dense(dense)


def _profile(n_iterations, has_oei=True):
    return WorkloadProfile(
        name="p", semiring_name="mul_add", has_oei=has_oei,
        n_iterations=n_iterations, path_ewise_ops=1,
    )


def _run(n_iterations, has_oei=True, observers=None):
    log = EventLogObserver()
    obs = [log] if observers is None else observers
    SparsepipeSimulator(SparsepipeConfig()).run(
        _profile(n_iterations, has_oei), _coo(), observers=obs
    )
    return log.events


class TestStepIsLastEventOfItsStep:
    def test_stream_ends_with_a_step_event(self):
        events = _run(4)
        assert events and events[0][0] != "step"
        assert events[-1][0] == "step"

    def test_no_event_dangles_after_its_step(self):
        """Every non-step event is followed (eventually) by the step
        event that closes it — i.e. the stream never ends mid-step and
        no two step events are adjacent to orphaned work."""
        events = _run(5)
        open_work = False
        for ev in events:
            if ev[0] == "step":
                open_work = False
            else:
                open_work = True
        assert not open_work

    def test_every_step_commits_some_prior_event_kinds(self):
        kinds = {ev[0] for ev in _run(4)}
        assert {"step", "transfer"} <= kinds


class TestFillStepContract:
    @pytest.mark.parametrize(
        "n_iterations,has_oei,expected_fills",
        [
            (4, True, 2),   # two OEI pairs
            (6, True, 3),   # three pairs
            (5, True, 3),   # two pairs + one stream tail
            (1, True, 1),   # single stream
            (3, False, 3),  # no OEI: one fill per sequential iteration
        ],
    )
    def test_fill_once_per_pair_or_stream(
        self, n_iterations, has_oei, expected_fills
    ):
        events = _run(n_iterations, has_oei=has_oei)
        fills = [ev for ev in events if ev[0] == "step" and ev[1] == FILL_STEP]
        assert len(fills) == expected_fills

    def test_fill_steps_carry_no_moved_bytes(self):
        for ev in _run(4):
            if ev[0] == "step" and ev[1] == FILL_STEP:
                assert ev[3] == {}

    def test_non_fill_step_indices_are_non_negative(self):
        steps = [ev[1] for ev in _run(4) if ev[0] == "step"]
        assert all(s >= 0 or s == FILL_STEP for s in steps)
        assert any(s >= 0 for s in steps)


class _CountingInstrumentation(Instrumentation):
    """Counts every batch the simulator hands its observers."""

    calls = 0

    def replay(self, batch):
        _CountingInstrumentation.calls += 1
        super().replay(batch)


class _CountingBatch(ReplayBatch):
    """Counts every batch either backend builds."""

    built = 0

    def __init__(self, *args, **kwargs):
        _CountingBatch.built += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def counting(monkeypatch):
    monkeypatch.setattr(
        simulator_module, "Instrumentation", _CountingInstrumentation
    )
    monkeypatch.setattr(simulator_module, "ReplayBatch", _CountingBatch)
    monkeypatch.setattr(fastpath_module, "ReplayBatch", _CountingBatch)
    _CountingInstrumentation.calls = 0
    _CountingBatch.built = 0


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
class TestZeroObserverFastPath:
    def test_no_events_constructed_without_observers(self, counting, backend):
        sim = SparsepipeSimulator(SparsepipeConfig(backend=backend))
        sim.run(_profile(4), _coo(), observers=())
        assert sim.last_backend == backend
        assert _CountingInstrumentation.calls == 0
        assert _CountingBatch.built == 0

    def test_counting_shim_detects_observed_runs(self, counting, backend):
        """The shim itself is live: with one observer the counters
        move, so the zeros above are meaningful."""
        SparsepipeSimulator(SparsepipeConfig(backend=backend)).run(
            _profile(4), _coo(), observers=[EventLogObserver()]
        )
        assert _CountingInstrumentation.calls > 0
        assert _CountingBatch.built > 0

    def test_zero_observer_result_is_bit_identical(self, backend):
        """Attaching (or omitting) observers never changes the model:
        the observed and fast-path results agree exactly."""
        config = SparsepipeConfig(backend=backend)
        observed = SparsepipeSimulator(config).run(
            _profile(4), _coo(), observers=[EventLogObserver()]
        )
        bare = SparsepipeSimulator(config).run(
            _profile(4), _coo(), observers=()
        )
        assert bare.cycles == observed.cycles
        assert bare.traffic.bytes_by_category == observed.traffic.bytes_by_category
        assert bare.compute_ops == observed.compute_ops
