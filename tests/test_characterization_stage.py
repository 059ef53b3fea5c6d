"""The characterization stage of ``simulate_many`` and the caches its
threads share.

A sweep computes its missing profiles on threads before the fan-out.
Its result must not depend on the thread count. The per-thread
rank-major stream and the lazy matrix images must hold when threads
contract at once, and a failing characterization must reach the point
that needs it exactly as a serial sweep reports it.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.experiments import ExperimentContext
from repro.graphblas import Matrix, ops
from repro.graphblas import matrix as matrix_module
from repro.matrices import road_network
from repro.workloads.base import Workload
from repro.workloads.pagerank import PageRank


def test_profiles_do_not_depend_on_the_thread_count(monkeypatch):
    keys = [("ideal", w, m) for w in ("bgs", "gmres", "cg", "pr")
            for m in ("gy", "co", "ad")]
    callers = []
    profile = Workload.profile

    def recording(self, *args, **kwargs):
        callers.append(threading.current_thread())
        return profile(self, *args, **kwargs)

    monkeypatch.setattr(Workload, "profile", recording)
    by_width = {}
    for width in (1, 2):
        callers.clear()
        ctx = ExperimentContext(max_workers=width, scheduler="inprocess")
        ctx._characterize(keys)
        by_width[width] = ctx._profiles
        assert len(callers) == len(keys)
        on_main = {t is threading.main_thread() for t in callers}
        assert on_main == {width == 1}
    assert by_width[1] == by_width[2]
    assert set(by_width[1]) == {(w, m) for _, w, m in keys}


def test_each_thread_keeps_its_own_rank_major_stream():
    # The turns are fixed: a, b, a, b. One slot for both threads would
    # lose each matrix's run to the other and build no stream.
    a = Matrix(road_network(60, 150, seed=1))
    b = Matrix(road_network(60, 150, seed=2))
    turn = threading.Barrier(2)
    streams = []

    def contract_a():
        ops._rank_major(a, False)
        turn.wait()
        turn.wait()
        streams.append(ops._rank_major(a, False))
        turn.wait()

    def contract_b():
        turn.wait()
        ops._rank_major(b, False)
        turn.wait()
        turn.wait()
        streams.append(ops._rank_major(b, False))

    threads = [threading.Thread(target=f) for f in (contract_a, contract_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert sum(s is not None for s in streams) == 2


def test_lazy_images_are_built_once_under_racing_threads(monkeypatch):
    matrices = [Matrix(road_network(80, 200, seed=s)) for s in range(4)]
    build = matrix_module.CSRMatrix.from_coo
    builds = []

    def counting_build(coo):
        builds.append(coo)
        return build(coo)

    monkeypatch.setattr(matrix_module.CSRMatrix, "from_coo", counting_build)

    errors = []

    def reach():
        try:
            for m in matrices:
                assert m.csr is m.csr
                m.col_ids
        except BaseException as exc:  # reported by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=reach) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(builds) == len(matrices)
    assert {id(coo) for coo in builds} == {id(m.coo) for m in matrices}


class TestFailingCharacterization:
    """pr's functional run raises: the stage leaves pr/gy uncomputed and
    the point that needs it fails in its own attempt."""

    POINTS = [("ideal", "pr", "gy"), ("ideal", "kcore", "gy")]

    @pytest.fixture(autouse=True)
    def failing_pr(self, monkeypatch):
        def boom(self, matrix, **params):
            raise RuntimeError("pr diverged")

        monkeypatch.setattr(PageRank, "run_functional", boom)

    @pytest.mark.parametrize("width", [1, 2])
    def test_skip_records_the_failure(self, width):
        ctx = ExperimentContext(on_error="skip", max_workers=width,
                                scheduler="inprocess")
        pr, kcore = ctx.simulate_many(self.POINTS)
        assert pr is None and kcore is not None
        manifest = ctx.manifest(*self.POINTS[0])
        assert manifest.status == "failed"
        assert manifest.faults == (
            {"code": "SP603", "severity": "error",
             "message": "failed after 1 attempt(s): pr diverged",
             "location": "ideal/pr/gy", "hint": ""},
            {"error": "RuntimeError('pr diverged')"},
        )
        assert ctx.manifest(*self.POINTS[1]).status == "ok"
        assert ctx.metrics.value("resilience.failures") == 1

    @pytest.mark.parametrize("width", [1, 2])
    def test_raise_propagates_the_error(self, width):
        ctx = ExperimentContext(max_workers=width, scheduler="inprocess")
        with pytest.raises(RuntimeError, match="pr diverged"):
            ctx.simulate_many(self.POINTS)
        assert ctx.manifest(*self.POINTS[0]) is None
        assert ctx.manifest(*self.POINTS[1]) is None
