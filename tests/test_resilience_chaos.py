"""Chaos suite: run real sweeps under an armed :class:`FaultPlan` and
assert the resilience layer delivers the acceptance criteria — the
sweep completes, results are bit-identical to a fault-free run, and
every injected fault is visible as an SP6xx record in the manifests.

The sweep class is parametrized over both scheduler backends
(``inprocess`` / ``localpool``): the same fault plan must be survived
identically no matter which substrate runs the points. What differs
per backend is only the *degradation* signature — the in-process
backend has no workers to lose, so it never records SP601 — captured
in :data:`DEGRADE`.

``REPRO_CHAOS_SEED`` overrides the plan seed (default 1234) and
``REPRO_CHAOS_DIR`` pins the cache/quarantine directory so CI can
upload it as an artifact when the suite fails; both default to
hermetic per-test values.
"""

import contextlib
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.arch.config import SparsepipeConfig
from repro.engine.cache import ResultCache
from repro.errors import FormatError, InjectedFault
from repro.experiments.runner import ExperimentContext
from repro.formats import read_matrix_market
from repro.obs.capture import capture_run
from repro.resilience import Fault, FaultPlan, activate, drain_fired
from tests.store_rows import write_doc

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1234"))

BACKENDS = ("inprocess", "localpool")

#: Degradation codes each backend is *expected* to surface under
#: worker death at rate 1.0 — the in-process backend has no worker
#: processes to lose, so the worker_death site never fires for it.
DEGRADE = {
    "inprocess": frozenset(),
    "localpool": frozenset({"SP601"}),
}

#: 2 archs x 2 workloads on one matrix: enough distinct fault keys for
#: every site, small enough to keep the suite fast.
POINTS = [
    ("sparsepipe", "pr", "gy"),
    ("ideal", "pr", "gy"),
    ("sparsepipe", "kcore", "gy"),
    ("ideal", "kcore", "gy"),
]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def chaos_dir(tmp_path):
    override = os.environ.get("REPRO_CHAOS_DIR")
    if override:
        path = Path(override) / "chaos"
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path


def _plan():
    return FaultPlan(seed=SEED, faults={
        "parallel.worker": Fault(kind="worker_death", rate=1.0),
        "cache.get": Fault(kind="corrupt_text", rate=1.0),
        "engine.run": Fault(kind="raise", rate=1.0),
    })


class TestChaosSweep:
    def test_sweep_survives_every_fault_site(self, chaos_dir, backend):
        cache_dir = chaos_dir / f"cache-{backend}"

        # Fault-free baseline; also populates the disk cache so the
        # chaos run exercises the cache.get corruption site.
        clean = ExperimentContext(cache_dir=cache_dir)
        baseline = clean.simulate_many(POINTS)
        assert all(m.status == "ok" for m in clean.manifests.values())

        chaotic = ExperimentContext(
            cache_dir=cache_dir, max_workers=2, on_error="retry",
            scheduler=backend)
        with activate(_plan()):
            results = chaotic.simulate_many(POINTS)
        fired = drain_fired()

        # Acceptance: the sweep completes, bit-identical to fault-free.
        assert results == baseline

        # Every injected fault is visible: SP607 fire records in this
        # process (cache corruption per entry + one transient raise per
        # point retried in-process after the pool broke)...
        assert all(d.code == "SP607" for d in fired)
        sites = {d.location.split("[")[0] for d in fired}
        assert {"cache.get", "engine.run"} <= sites

        # ...quarantined corpses on disk...
        quarantined = list(cache_dir.glob("quarantine/*.json"))
        assert len(quarantined) == len(POINTS)

        # ...and SP6xx provenance in every point's manifest. Which
        # degradation codes appear is the only backend-specific part.
        codes = set()
        for point in POINTS:
            manifest = chaotic.manifest(*point)
            assert manifest.status == "retried"
            codes.update(f.get("code") for f in manifest.faults)
        assert {"SP602", "SP604"} | DEGRADE[backend] <= codes

        # Sweep-wide counters account the same events.
        assert chaotic.metrics.counter("cache.quarantined").value == len(POINTS)
        pool_breaks = chaotic.metrics.counter("resilience.pool_breaks").value
        if DEGRADE[backend]:
            assert pool_breaks >= 1
        else:
            assert pool_breaks == 0
        assert chaotic.metrics.counter("resilience.retries").value >= len(POINTS)

    def test_chaos_leaves_identical_digests(self, chaos_dir, backend):
        # Surviving faults is unstable provenance: run identity (the
        # manifest digest) must match an undisturbed context's.
        clean = ExperimentContext()
        clean.simulate_many(POINTS[:2])
        chaotic = ExperimentContext(
            max_workers=2, on_error="retry", scheduler=backend)
        with activate(_plan()):
            chaotic.simulate_many(POINTS[:2])
        for point in POINTS[:2]:
            assert chaotic.manifest(*point).digest() == \
                clean.manifest(*point).digest()

    def test_repeat_run_is_deterministic(self, tmp_path, backend):
        # Same seed, same faults, same outcome — chaos runs reproduce.
        outcomes = []
        for attempt in ("a", "b"):
            ctx = ExperimentContext(
                cache_dir=tmp_path / attempt, max_workers=2, on_error="retry")
            ctx.simulate_many(POINTS[:2])  # populate cache
            chaotic = ExperimentContext(
                cache_dir=tmp_path / attempt, max_workers=2,
                on_error="retry", scheduler=backend)
            with activate(_plan()):
                results = chaotic.simulate_many(POINTS[:2])
            statuses = tuple(
                chaotic.manifest(*p).status for p in POINTS[:2])
            outcomes.append((results, statuses))
        assert outcomes[0] == outcomes[1]


class TestChaosStoreRead:
    """A new-config sweep over a store whose ``pr/gy`` profile row is
    damaged. The sweeping process reads the row before the fan-out on
    both backends, so it is quarantined once, and its SP604 reaches the
    context and one point's manifest."""

    POINTS = [(a, w, "gy") for a in ("sparsepipe", "ideal", "cpu")
              for w in ("pr", "kcore")]
    CONFIG = replace(SparsepipeConfig(), subtensor_cols=64)

    def sweep(self, cache_dir, backend, plan=None, **options):
        """Fill the store, damage the row, sweep :data:`CONFIG` over it
        (under ``plan``, if given); returns the sweeping context after
        checking its results against a fault-free run."""
        ExperimentContext(cache_dir=cache_dir).simulate_many(self.POINTS)
        baseline = ExperimentContext(config=self.CONFIG).simulate_many(
            self.POINTS)
        _stem, key = ResultCache(cache_dir)._profile_entry("pr", "gy")
        write_doc(cache_dir, key, "garbage{")

        context = ExperimentContext(cache_dir=cache_dir, config=self.CONFIG,
                                    max_workers=2, scheduler=backend,
                                    **options)
        with activate(plan) if plan else contextlib.nullcontext():
            assert context.simulate_many(self.POINTS) == baseline
        assert len(list(cache_dir.glob("quarantine/*.json"))) == 1
        return context

    def assert_quarantined_once(self, context):
        assert context.metrics.value("cache.quarantined") == 1
        assert context.lint_health()["diagnostics[SP604]"] == 1
        # The SP604 goes to the first point, in fan-out order, that
        # needs the row: sparsepipe/pr/gy.
        recorded = [[f for f in context.manifest(*p).faults
                     if f.get("code") == "SP604"] for p in self.POINTS]
        assert list(map(len, recorded)) == [1, 0, 0, 0, 0, 0]

    def test_corrupt_profile_row_is_quarantined_once(self, chaos_dir,
                                                     backend):
        context = self.sweep(chaos_dir / f"profile-{backend}", backend)
        self.assert_quarantined_once(context)

    def test_quarantine_survives_a_failed_attempt(self, chaos_dir, backend):
        """Every point's first attempt raises (a pool worker's, on
        ``localpool``) and its retry runs in this process: the SP604
        is still counted once and kept in one manifest."""
        plan = FaultPlan(seed=SEED, faults={
            "engine.run": Fault(kind="raise", rate=1.0)})
        context = self.sweep(chaos_dir / f"retry-{backend}", backend,
                             plan=plan, on_error="retry")
        self.assert_quarantined_once(context)
        assert all(context.manifest(*p).status == "retried"
                   for p in self.POINTS)


class TestChaosIngest:
    MTX = (
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n"
        "1 1 1.0\n"
        "2 2 2.0\n"
        "3 3 3.0\n"
    )

    def test_corrupted_entry_line_fails_with_line_number(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(self.MTX)
        plan = FaultPlan(seed=SEED, faults={
            "ingest.entry": Fault(kind="corrupt_text", rate=0.0,
                                  keys=("4",), payload="1 1 bogus extra")})
        with activate(plan):
            with pytest.raises(FormatError, match="line 4") as err:
                read_matrix_market(path)
        assert "SP605" in err.value.codes
        # The fault fired exactly where the plan said.
        fired = drain_fired()
        assert [d.location for d in fired] == ["ingest.entry[4]"]

    def test_clean_file_reads_under_inactive_site(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(self.MTX)
        plan = FaultPlan(seed=SEED, faults={
            "ingest.entry": Fault(kind="corrupt_text", rate=0.0)})
        with activate(plan):
            coo = read_matrix_market(path)
        assert coo.shape == (3, 3) and coo.nnz == 3
        assert drain_fired() == []


class TestChaosObservedRun:
    """Observed runs route through ``run_engine`` too, so the
    ``engine.run`` site covers them — ``capture_run`` (the trace CLI's
    substrate) is not a side door around the chaos harness."""

    def test_capture_run_hits_engine_run_site(self):
        plan = FaultPlan(seed=SEED, faults={
            "engine.run": Fault(kind="raise", rate=1.0)})
        with activate(plan):
            with pytest.raises(InjectedFault):
                capture_run("pr", matrix="gy")
        fired = drain_fired()
        sites = {d.location.split("[")[0] for d in fired}
        assert "engine.run" in sites
