"""The one-file result store under damage and concurrent fire.

Four layers of lock-in for :class:`repro.engine.cache.ResultCache`:

- **Layout** — every entry, result and profile, lives in one
  ``store.sqlite`` per directory; one key is one row; one result row's
  document text is pinned byte for byte.
- **Damage** — a store file that is not a database is quarantined
  whole (one SP604) and the store starts empty; a store copied after
  its writer process exited serves every entry; a ``CODE_VERSION``
  bump misses every old entry, result and profile alike.
- **Stress** — many threads and many processes hammering one store
  concurrently produce no lost updates, no torn reads, no quarantine
  events and no ``*.tmp`` debris.
- **Injected corruption** — the ``cache.get`` fault site mangles the
  stored text; every mangled row is quarantined as its entry name and
  repopulates on the next put.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

import repro
import repro.engine.cache as cache_mod
from repro.arch.config import SparsepipeConfig
from repro.arch.simulator import SparsepipeSimulator
from repro.arch.stats import SimResult
from repro.engine.cache import STORE_FILE, ResultCache, _entry_name
from repro.engine.instrumentation import StepTraceObserver
from repro.errors import Diagnostic
from repro.experiments.runner import ExperimentContext
from repro.matrices import banded_mesh
from repro.obs.manifest import build_manifest
from repro.obs.metrics import MetricsRegistry
from repro.preprocess import preprocess
from repro.resilience.faults import Fault, FaultPlan, activate
from repro.scheduler import run_fanout
from tests.store_rows import keys, read_doc
from tests.test_engine import make_profile


@pytest.fixture(scope="module")
def result() -> SimResult:
    prep = preprocess(banded_mesh(120, 6, 400, seed=3),
                      reorder=None, block_size=None)
    return SparsepipeSimulator(SparsepipeConfig(subtensor_cols=32)).run(
        make_profile(n_iterations=2), prep, observers=[StepTraceObserver()])


def _key(i: int):
    """Distinct cache key for index ``i`` (varies the config digest)."""
    return ("sparsepipe", "pr", "gy", f"cfg-{i:04d}", None, None)


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------
class TestLayout:
    def test_same_key_is_one_entry(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        first = cache.put(*_key(0), result=result)
        second = cache.put(*_key(0), result=result)
        assert first == second
        assert len(cache) == 1
        assert cache.get(*_key(0)) == result

    def test_every_entry_lives_in_one_file(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        for i in range(8):
            cache.put(*_key(i), result=result)
        cache.put_profile("pr", "gy", make_profile())
        assert len(cache) == 8
        assert len(keys(tmp_path, "profile")) == 1
        cache.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == [STORE_FILE]

    def test_stored_doc_text_is_pinned(self, tmp_path, result):
        """One result row's ``doc`` text, byte for byte: the result and
        a manifest with a fault record, under a fixed wall time and git
        revision (the only fields that vary between runs)."""
        config = SparsepipeConfig(subtensor_cols=32)
        fault = Diagnostic.warning("SP602", "retried once", "worker-1")
        manifest = replace(build_manifest(
            "sparsepipe", "pr", "gy", config, None, None, result=result,
            wall_time_s=0.25, status="retried", faults=[fault.as_dict()],
        ), git_rev="0123abc")
        cache = ResultCache(tmp_path)
        key = cache.put("sparsepipe", "pr", "gy", config.cache_key(), None,
                        None, result=result, manifest=manifest)
        text = read_doc(tmp_path, key)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "7a2868fa193ccbc06b57b1fefe79bd8ede32cc391434a736b6a6f1774f3bb057")


# ----------------------------------------------------------------------
# Damage
# ----------------------------------------------------------------------
def _filled_store(root: Path, result: SimResult) -> None:
    cache = ResultCache(root)
    for i in range(40):
        cache.put(*_key(i), result=result)
    cache.close()


class TestStoreDamage:
    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_not_a_database_is_quarantined_whole(
            self, tmp_path, result, damage):
        _filled_store(tmp_path, result)
        store = tmp_path / STORE_FILE
        if damage == "garbage":
            store.write_bytes(b"\x00garbage{" * 512)
        else:
            store.write_bytes(store.read_bytes()[: store.stat().st_size // 2])
        damaged = store.read_bytes()
        # A leftover write-ahead log moves with its store file.
        (tmp_path / (STORE_FILE + "-wal")).write_bytes(b"stale log")

        cache = ResultCache(tmp_path)
        diags = cache.pop_diagnostics()
        assert [d.code for d in diags] == ["SP604"]
        corpse = tmp_path / "quarantine" / "store-0.sqlite"
        assert diags[0].location == str(corpse)
        assert corpse.read_bytes() == damaged
        assert (tmp_path / "quarantine" / "store-0.sqlite-wal").exists()
        # The store starts fresh and works.
        assert len(cache) == 0
        assert cache.get(*_key(0)) is None
        cache.put(*_key(0), result=result)
        assert cache.get(*_key(0)) == result
        assert cache.pop_diagnostics() == []

    def test_sweep_over_a_garbage_store_does_not_crash(self, tmp_path):
        point = ("ideal", "pr", "gy")
        expected = ExperimentContext(matrices=("gy",)).simulate(*point)
        (tmp_path / STORE_FILE).write_text("not a database")
        ctx = ExperimentContext(matrices=("gy",), cache_dir=tmp_path)
        assert ctx.simulate_many([point]) == [expected]
        # A second corpse gets its own name.
        ctx._disk.close()
        (tmp_path / STORE_FILE).write_text("not a database either")
        again = ExperimentContext(matrices=("gy",), cache_dir=tmp_path)
        assert again._disk.pop_diagnostics()[0].location == str(
            tmp_path / "quarantine" / "store-1.sqlite")

    def test_copy_after_writer_exit_serves_every_entry(
            self, tmp_path, result):
        # The writer is a separate interpreter that exits without an
        # explicit close; only the store file itself is copied.
        writer = tmp_path / "writer"
        (tmp_path / "result.json").write_text(json.dumps(result.to_dict()))
        script = (
            "import json, sys\n"
            "from repro.arch.stats import SimResult\n"
            "from repro.engine.cache import ResultCache\n"
            "result = SimResult.from_dict(json.load(open(sys.argv[2])))\n"
            "cache = ResultCache(sys.argv[1])\n"
            "for i in range(25):\n"
            "    cache.put('sparsepipe', 'pr', 'gy', f'cfg-{i:04d}', None,"
            " None, result=result)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        subprocess.run(
            [sys.executable, "-c", script, str(writer),
             str(tmp_path / "result.json")],
            check=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        copy = tmp_path / "copy"
        copy.mkdir()
        shutil.copy2(writer / STORE_FILE, copy / STORE_FILE)
        registry = MetricsRegistry()
        cache = ResultCache(copy, metrics=registry)
        assert all(cache.get(*_key(i)) == result for i in range(25))
        assert registry.value("cache.hits") == 25
        assert registry.value("cache.misses") == 0

    def test_code_version_bump_misses_results_and_profiles(
            self, tmp_path, result, monkeypatch):
        old = ResultCache(tmp_path)
        for i in range(5):
            old.put(*_key(i), result=result)
        for workload in ("pr", "bfs"):
            old.put_profile(workload, "gy", make_profile())
        old.close()
        monkeypatch.setattr(cache_mod, "CODE_VERSION", "stale-cache-probe")
        registry = MetricsRegistry()
        bumped = ResultCache(tmp_path, metrics=registry)
        assert all(bumped.get(*_key(i)) is None for i in range(5))
        assert all(bumped.get_profile(w, "gy") is None for w in ("pr", "bfs"))
        assert registry.value("cache.misses") == 5
        assert registry.value("cache.hits") == 0
        assert registry.value("cache.profile_misses") == 2
        assert registry.value("cache.profile_hits") == 0
        # Misses, not corruption: nothing is quarantined.
        assert bumped.pop_diagnostics() == []


# ----------------------------------------------------------------------
# Concurrency stress (threads + processes)
# ----------------------------------------------------------------------
N_KEYS = 12

#: Worker processes start from a fresh interpreter, like a second CLI
#: sweep on the same directory. Forked children that inherit an open
#: store are the pool path's case (``test_forked_children_...``).
SPAWN = multiprocessing.get_context("spawn")


def _hammer(cache: ResultCache, doc: dict, seed: int, n_ops: int) -> int:
    """Mixed put/get workload against ``cache``; returns the number of
    successful validated reads. Every writer writes the *identical*
    result per key, so any read that returns a result must equal it —
    anything else is a lost update or torn read."""
    expected = SimResult.from_dict(doc)
    rng = random.Random(seed)
    hits = 0
    for _ in range(n_ops):
        i = rng.randrange(N_KEYS)
        if rng.random() < 0.5:
            cache.put(*_key(i), result=expected)
        else:
            got = cache.get(*_key(i))
            if got is not None:
                assert got == expected, f"torn/lost entry for key {i}"
                hits += 1
    return hits


def _process_worker(root: str, doc: dict, seed: int, n_ops: int) -> int:
    return _hammer(ResultCache(root), doc, seed, n_ops)


def _assert_store_sane(cache: ResultCache, result: SimResult) -> None:
    """Post-stress invariants: no debris, no quarantine, every written
    key readable and exact."""
    assert list(cache.root.rglob("*.tmp")) == []
    assert cache.quarantine_paths() == []
    assert cache.pop_diagnostics() == []
    survivors = 0
    for i in range(N_KEYS):
        got = cache.get(*_key(i))
        if got is not None:
            assert got == result
            survivors += 1
    assert survivors == len(cache) >= 1


def _run_threads(threads) -> None:
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()


class TestConcurrencyStress:
    def test_thread_stress_no_lost_updates(self, tmp_path, result):
        cache = ResultCache(tmp_path / "store")
        doc = result.to_dict()
        errors: list = []

        def worker(seed: int) -> None:
            try:
                _hammer(cache, doc, seed, n_ops=120)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        # Switch threads often, so a put and a probe interleave inside
        # the store rather than between calls.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        _assert_store_sane(cache, result)

    def test_process_stress_no_lost_updates(self, tmp_path, result):
        root = tmp_path / "store"
        doc = result.to_dict()
        with ProcessPoolExecutor(max_workers=4, mp_context=SPAWN) as pool:
            futures = [
                pool.submit(_process_worker, str(root), doc, seed, 80)
                for seed in range(4)
            ]
            for future in futures:
                future.result(timeout=120)  # re-raises worker assertions
        _assert_store_sane(ResultCache(root), result)

    def test_threads_and_processes_together(self, tmp_path, result):
        root = tmp_path / "store"
        doc = result.to_dict()
        cache = ResultCache(root)
        errors: list = []

        def worker(seed: int) -> None:
            try:
                _hammer(cache, doc, seed, n_ops=60)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(4)]
        with ProcessPoolExecutor(max_workers=2, mp_context=SPAWN) as pool:
            futures = [
                pool.submit(_process_worker, str(root), doc, seed + 100, 60)
                for seed in range(2)
            ]
            _run_threads(threads)
            for future in futures:
                future.result(timeout=120)
        assert errors == []
        _assert_store_sane(cache, result)


    def test_open_waits_out_a_held_write_lock(self, tmp_path, result):
        """A new store another connection holds a write transaction on:
        opening it waits for the lock, even where SQLite refuses the
        journal-mode switch as busy without applying its busy timeout."""
        import sqlite3

        root = tmp_path / "store"
        root.mkdir()
        holder = sqlite3.connect(root / STORE_FILE, isolation_level=None,
                                 check_same_thread=False)
        holder.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.3, holder.execute, args=("COMMIT",))
        release.start()
        try:
            cache = ResultCache(root)
            assert release.finished.is_set()
        finally:
            release.join()
            holder.close()
        busy_ms = cache._open().execute("PRAGMA busy_timeout").fetchone()[0]
        assert busy_ms == cache_mod.BUSY_TIMEOUT_S * 1000
        cache.put(*_key(0), result=result)
        assert cache.get(*_key(0)) == result

    def test_forked_children_open_their_own_connection(self, tmp_path,
                                                        result):
        """Pool workers fork with the parent's store open; each must
        open its own connection on first use and leave the parent's
        working."""
        cache = ResultCache(tmp_path / "store")
        doc = result.to_dict()
        cache.put(*_key(0), result=result)
        parent_db = cache._open()

        def work(seed: int):
            _hammer(cache, doc, seed, n_ops=60)
            return os.getpid(), cache._open() is not parent_db

        outcome = run_fanout(work, range(4), backend="localpool",
                             max_workers=2)
        assert outcome.ok and not outcome.pool_broken
        assert os.getpid() not in {pid for pid, _ in outcome.results}
        assert all(own for _, own in outcome.results)
        assert cache._open() is parent_db
        assert _hammer(cache, doc, seed=99, n_ops=60) >= 1
        _assert_store_sane(cache, result)


class TestSweepWrites:
    """A sweep's result rows are written by the sweeping process, one
    writer call per fan-out, whichever backend simulated them."""

    POINTS = [("sparsepipe", "pr", "gy"), ("ideal", "pr", "gy"),
              ("cpu", "kcore", "gy"), ("sparsepipe", "kcore", "gy")]
    WIDE = replace(SparsepipeConfig(), subtensor_cols=64)

    @pytest.fixture
    def fixed_wall_time(self, monkeypatch):
        class Fixed:
            def __enter__(self):
                self.elapsed = 0.25
                return self

            def __exit__(self, *exc):
                pass

        monkeypatch.setattr("repro.experiments.runner.Stopwatch", Fixed)

    @staticmethod
    def docs(root):
        return {key: read_doc(root, key) for key in keys(root)}

    def test_pooled_rows_are_written_by_the_sweeping_process(
            self, tmp_path, monkeypatch):
        # The spy appends to a file, so a call in a forked pool worker
        # would show up too.
        log = tmp_path / "writes.log"
        real = ResultCache.put_many

        def spy(cache, entries):
            entries = list(entries)
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {len(entries)}\n")
            return real(cache, entries)

        monkeypatch.setattr(ResultCache, "put_many", spy)
        ctx = ExperimentContext(cache_dir=tmp_path / "store",
                                scheduler="localpool", max_workers=2)
        ctx.simulate_many(self.POINTS)
        ctx.simulate_many(self.POINTS, config=self.WIDE)
        calls = [line.split() for line in log.read_text().splitlines()]
        assert calls == [[str(os.getpid()), str(len(self.POINTS))]] * 2
        assert len(keys(tmp_path / "store")) == 2 * len(self.POINTS)

    def test_pooled_docs_equal_in_process_docs(self, tmp_path,
                                               fixed_wall_time):
        for scheduler in ("inprocess", "localpool"):
            ExperimentContext(
                cache_dir=tmp_path / scheduler, scheduler=scheduler,
                max_workers=2).simulate_many(self.POINTS)
        serial = self.docs(tmp_path / "inprocess")
        assert len(serial) == len(self.POINTS)
        assert self.docs(tmp_path / "localpool") == serial
        doc = json.loads(next(iter(serial.values())))
        assert doc["manifest"]["wall_time_s"] == 0.25


class TestInjectedCorruption:
    def test_read_faults_quarantine_rows(self, tmp_path, result):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=registry)
        stored = {}
        for i in range(4):
            name = _entry_name(*cache._entry(*_key(i)))
            stored[name] = read_doc(tmp_path, cache.put(*_key(i), result=result))
        plan = FaultPlan(seed=7, faults={
            "cache.get": Fault(kind="corrupt_text", rate=1.0),
        })
        with activate(plan):
            for i in range(4):
                assert cache.get(*_key(i)) is None
        # Each corpse is kept under its entry name, holding the
        # (truncated) text the probe read; the rows are gone.
        assert [p.name for p in cache.quarantine_paths()] == sorted(stored)
        for corpse in cache.quarantine_paths():
            text = stored[corpse.name]
            assert corpse.read_text() == text[: len(text) // 2]
        diags = cache.pop_diagnostics()
        assert [d.code for d in diags] == ["SP604"] * 4
        assert registry.value("cache.misses") == 4
        assert len(cache) == 0
        # ...and the slots repopulate on the next put.
        cache.put(*_key(0), result=result)
        assert cache.get(*_key(0)) == result
