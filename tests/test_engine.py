"""Tests for the engine layer: the architecture registry, pluggable
instrumentation, the persistent result cache, and the parallel
experiment fan-out."""

import ast
import hashlib
import json
import pickle
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import repro
import repro.engine.registry as registry_mod
import repro.experiments.runner as runner_mod
from repro.arch.config import SparsepipeConfig
from repro.arch.profile import WorkloadProfile
from repro.arch.simulator import SparsepipeSimulator
from repro.engine import (
    FILL_STEP,
    CounterObserver,
    EventLogObserver,
    Instrumentation,
    Observer,
    ResultCache,
    StepTraceObserver,
    arch_names,
    create_engine,
    get_arch,
)
from repro.errors import ConfigError
from tests.store_rows import write_doc
from repro.experiments.runner import ExperimentContext
from repro.matrices import banded_mesh
from repro.preprocess import preprocess

BUILTINS = ("sparsepipe", "ideal", "oracle", "cpu", "gpu", "software_oei")


def make_profile(**overrides) -> WorkloadProfile:
    base = dict(
        name="pr",
        semiring_name="mul_add",
        has_oei=True,
        n_iterations=4,
        path_ewise_ops=2,
        side_ewise_ops=1,
        aux_streams=0,
        writeback_streams=1,
    )
    base.update(overrides)
    return WorkloadProfile(**base)


@pytest.fixture(scope="module")
def prep():
    return preprocess(banded_mesh(300, 12, 1800, seed=7), reorder=None, block_size=None)


class TestRegistry:
    def test_builtins_in_canonical_order(self):
        assert arch_names() == BUILTINS

    def test_unknown_architecture_raises(self):
        with pytest.raises(ConfigError, match="unknown architecture"):
            get_arch("tpu")

    def test_unknown_error_lists_alternatives(self):
        with pytest.raises(ConfigError, match="sparsepipe"):
            create_engine("npu")

    def test_takes_config_flags(self):
        assert get_arch("sparsepipe").takes_config
        assert get_arch("ideal").takes_config
        assert not get_arch("cpu").takes_config
        assert not get_arch("software_oei").takes_config

    def test_config_reaches_the_engine(self):
        config = SparsepipeConfig(subtensor_cols=64)
        engine = create_engine("sparsepipe", config)
        assert isinstance(engine, SparsepipeSimulator)
        assert engine.config.subtensor_cols == 64

    def test_configless_creation_uses_defaults(self):
        engine = create_engine("sparsepipe")
        assert engine.config == SparsepipeConfig()

    def test_every_builtin_runs(self, prep):
        profile = make_profile(n_iterations=2)
        for name in BUILTINS:
            engine = create_engine(name)
            result = engine.run(profile, prep)
            assert result.cycles > 0, name


def _engine_like_classes():
    """``(module, class)`` of every top-level class under ``baselines/``
    and in ``arch/simulator.py`` that defines ``run``."""
    root = Path(repro.__file__).resolve().parent
    paths = sorted((root / "baselines").glob("*.py"))
    found = set()
    for path in paths + [root / "arch" / "simulator.py"]:
        parts = path.relative_to(root).with_suffix("").parts
        module = ".".join(("repro",) + parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "run"
                for item in node.body
            ):
                found.add((module, node.name))
    return found


class TestArchTable:
    def test_every_engine_class_is_a_table_row(self):
        """An engine class missing from the table is invisible to the
        CLI, the sweeps and ExperimentContext; a row without one is a
        dangling name."""
        rows = {row[:2] for row in registry_mod.ARCHS.values()}
        assert _engine_like_classes() == rows

    def test_every_row_resolves_to_an_engine(self):
        for name in arch_names():
            cls = get_arch(name).cls
            # The Engine protocol is ``run`` alone.
            assert not hasattr(cls, "prepare"), name
            assert callable(getattr(cls, "run", None)), name

    def test_each_class_resolves_once(self):
        assert get_arch("cpu") is get_arch("cpu")


class TestCacheKey:
    def test_equal_configs_equal_keys(self):
        assert SparsepipeConfig().cache_key() == SparsepipeConfig().cache_key()

    def test_different_configs_differ(self):
        base = SparsepipeConfig()
        assert base.cache_key() != replace(base, subtensor_cols=64).cache_key()
        assert base.cache_key() != replace(base, buffer_bytes=1024).cache_key()

    def test_key_is_compact_hex(self):
        key = SparsepipeConfig().cache_key()
        assert len(key) == 16
        int(key, 16)  # raises if not hex

    def test_default_key_is_pinned(self):
        # Every existing store entry is filed under this key: a change
        # to it silently orphans them all.
        assert SparsepipeConfig().cache_key() == "94f01259053557b4"

    def test_memo_is_invisible(self):
        cfg = SparsepipeConfig(subtensor_cols=64)
        before = (asdict(cfg), hash(cfg), repr(cfg), pickle.dumps(cfg))
        key = cfg.cache_key()
        assert cfg.cache_key() is key  # memoized, not recomputed
        assert (asdict(cfg), hash(cfg), repr(cfg), pickle.dumps(cfg)) == before
        assert cfg == SparsepipeConfig(subtensor_cols=64)
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg
        assert "_cache_key" not in vars(clone)
        assert clone.cache_key() == key

    def test_replace_gets_a_fresh_correct_key(self):
        base = SparsepipeConfig()
        base.cache_key()
        variant = replace(base, subtensor_cols=32, detailed_dram=True)
        assert "_cache_key" not in vars(variant)
        doc = json.dumps(asdict(variant), sort_keys=True, default=float)
        expected = hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]
        assert variant.cache_key() == expected != base.cache_key()


class TestInstrumentation:
    def test_zero_observer_matches_default_except_samples(self, prep):
        """The default is the zero-observer run; a step-trace observer
        adds Fig 15's samples and changes nothing else."""
        profile = make_profile()
        sim = SparsepipeSimulator(SparsepipeConfig(subtensor_cols=32))
        default = sim.run(profile, prep)
        bare = sim.run(profile, prep, observers=())
        traced = sim.run(profile, prep, observers=[StepTraceObserver()])
        assert default == bare
        assert bare.bandwidth_samples == []
        assert traced.bandwidth_samples  # the observer yields Fig 15 samples
        assert bare.cycles == traced.cycles  # bit-identical, not approx
        assert bare.traffic == traced.traffic
        assert replace(bare, bandwidth_samples=traced.bandwidth_samples) == traced

    def test_step_events_close_each_step(self, prep):
        log = EventLogObserver()
        sim = SparsepipeSimulator(SparsepipeConfig(subtensor_cols=32))
        sim.run(make_profile(), prep, observers=[log])
        assert log.events[-1][0] == "step"
        # Every non-step event belongs to the step event that follows it.
        open_step = None
        for ev in log.events:
            if ev[0] == "step":
                step = ev[1]
                if open_step is not None and step != FILL_STEP:
                    assert step == open_step
                open_step = None
            elif ev[0] in ("evict", "repack", "prefetch"):
                if open_step is None:
                    open_step = ev[1]
                else:
                    assert ev[1] == open_step

    def test_fill_steps_once_per_pair(self, prep):
        log = EventLogObserver()
        sim = SparsepipeSimulator(SparsepipeConfig(subtensor_cols=32))
        sim.run(make_profile(n_iterations=4), prep, observers=[log])
        fills = [e for e in log.events if e[0] == "step" and e[1] == FILL_STEP]
        assert len(fills) == 2  # 4 OEI iterations = 2 pairs

    def test_counters_agree_with_result(self, prep):
        counter = CounterObserver()
        sim = SparsepipeSimulator(SparsepipeConfig(subtensor_cols=32))
        result = sim.run(make_profile(), prep, observers=[counter])
        assert counter.cycles == result.cycles
        assert sum(counter.transfer_bytes.values()) == pytest.approx(
            result.traffic.total_bytes
        )
        for cat, n_bytes in counter.transfer_bytes.items():
            assert result.traffic.bytes_by_category[cat] == pytest.approx(n_bytes)
        assert counter.repack_events == result.repack_events
        assert counter.evict_bytes == pytest.approx(result.oom_evicted_bytes)
        flat = counter.as_dict()
        assert flat["steps"] == counter.steps
        assert "transfer_bytes[csc]" in flat

    def test_multiple_observers_see_the_same_stream(self, prep):
        a, b = EventLogObserver(), EventLogObserver()
        sim = SparsepipeSimulator(SparsepipeConfig(subtensor_cols=32))
        sim.run(make_profile(), prep, observers=[a, b])
        assert a.events == b.events

    def test_find_returns_first_of_type(self):
        trace = StepTraceObserver()
        instr = Instrumentation((CounterObserver(), trace))
        assert instr.find(StepTraceObserver) is trace
        assert instr.find(EventLogObserver) is None

    def test_instrumentation_truthiness(self):
        assert not Instrumentation(())
        assert Instrumentation((Observer(),))

    def test_pipeline_activity_observer_renders(self, prep):
        from repro.arch.pipeline_viz import PipelineActivityObserver

        obs = PipelineActivityObserver()
        sim = SparsepipeSimulator(SparsepipeConfig(subtensor_cols=32))
        sim.run(make_profile(), prep, observers=[obs])
        names = set(obs.bottlenecks())
        assert obs.steps
        assert names <= {"os", "ewise", "is", "extra", "memory", "overhead"}
        chart = obs.render_bottlenecks(max_steps=8)
        assert "#" in chart or "+" in chart


class TestResultCache:
    def _result(self, prep):
        sim = SparsepipeSimulator(SparsepipeConfig(subtensor_cols=32))
        return sim.run(make_profile(), prep)

    def test_round_trip(self, prep, tmp_path):
        result = self._result(prep)
        cache = ResultCache(tmp_path)
        key = ("sparsepipe", "pr", "gy", "abc123", "vanilla", 256)
        assert cache.get(*key) is None
        cache.put(*key, result=result)
        assert len(cache) == 1
        restored = cache.get(*key)
        assert restored == result  # dataclass equality, bit-for-bit floats

    def test_distinct_keys_do_not_collide(self, prep, tmp_path):
        result = self._result(prep)
        cache = ResultCache(tmp_path)
        cache.put("sparsepipe", "pr", "gy", "abc", None, None, result=result)
        assert cache.get("sparsepipe", "pr", "gy", "OTHER", None, None) is None
        assert cache.get("ideal", "pr", "gy", "abc", None, None) is None

    def test_code_version_bump_invalidates(self, prep, tmp_path):
        result = self._result(prep)
        key = ("sparsepipe", "pr", "gy", "abc", None, None)
        ResultCache(tmp_path, code_version="1").put(*key, result=result)
        assert ResultCache(tmp_path, code_version="1").get(*key) == result
        assert ResultCache(tmp_path, code_version="2").get(*key) is None

    def test_corrupt_entry_is_a_miss(self, prep, tmp_path):
        result = self._result(prep)
        cache = ResultCache(tmp_path)
        key = ("sparsepipe", "pr", "gy", "abc", None, None)
        row = cache.put(*key, result=result)
        write_doc(tmp_path, row, "not json{")
        assert cache.get(*key) is None
        doc = {"key": "wrong", "result": result.to_dict()}
        cache.put(*key, result=result)
        write_doc(tmp_path, row, json.dumps(doc))
        assert cache.get(*key) is None

    def test_clear_removes_everything(self, prep, tmp_path):
        result = self._result(prep)
        cache = ResultCache(tmp_path)
        cache.put("a", "pr", "gy", "k", None, None, result=result)
        cache.put("b", "pr", "gy", "k", None, None, result=result)
        assert cache.clear() == 2
        assert len(cache) == 0


class TestDiskCachedContext:
    def test_warm_rerun_skips_all_simulation(self, tmp_path, monkeypatch):
        cold = ExperimentContext(
            workloads=("pr",), matrices=("gy",), cache_dir=tmp_path
        )
        first = cold.simulate("ideal", "pr", "gy")

        def explode(*a, **kw):  # a warm rerun must never build an engine
            raise AssertionError("engine constructed on a warm rerun")

        warm = ExperimentContext(
            workloads=("pr",), matrices=("gy",), cache_dir=tmp_path
        )
        monkeypatch.setattr(runner_mod, "run_engine", explode)
        second = warm.simulate("ideal", "pr", "gy")
        assert second == first
        many = warm.simulate_many([("ideal", "pr", "gy")] * 3)
        assert many == [first] * 3

    def test_code_version_bump_forces_resimulation(self, tmp_path, monkeypatch):
        import repro.engine.cache as cache_mod

        ctx = ExperimentContext(matrices=("gy",), cache_dir=tmp_path)
        ctx.simulate("ideal", "pr", "gy")
        monkeypatch.setattr(cache_mod, "CODE_VERSION", "999")
        fresh = ExperimentContext(matrices=("gy",), cache_dir=tmp_path)
        ran = []
        real = runner_mod.run_engine

        def counting(name, config, *a, **kw):
            ran.append(name)
            return real(name, config, *a, **kw)

        monkeypatch.setattr(runner_mod, "run_engine", counting)
        fresh.simulate("ideal", "pr", "gy")
        assert ran == ["ideal"]


class TestStoreCounters:
    """``cache.hits`` / ``cache.misses`` count one store probe per
    point: a fresh point is exactly one miss on either backend, and a
    warm rerun is exactly one hit per point."""

    POINTS = [("ideal", "pr", "gy"), ("ideal", "sssp", "gy"),
              ("sparsepipe", "pr", "gy")]

    @pytest.mark.parametrize("scheduler", ["inprocess", "localpool"])
    def test_one_probe_per_point(self, tmp_path, scheduler):
        cold = ExperimentContext(
            cache_dir=tmp_path, scheduler=scheduler, max_workers=2)
        first = cold.simulate_many(self.POINTS)
        assert cold.metrics.value("cache.misses") == len(self.POINTS)
        assert cold.metrics.value("cache.hits") == 0
        warm = ExperimentContext(
            cache_dir=tmp_path, scheduler=scheduler, max_workers=2)
        assert warm.simulate_many(self.POINTS) == first
        assert warm.metrics.value("cache.hits") == len(self.POINTS)
        assert warm.metrics.value("cache.misses") == 0
        # A warm point never needs its profile.
        assert warm.metrics.value("cache.profile_hits") == 0
        assert warm.metrics.value("cache.profile_misses") == 0


class TestSimulateMany:
    POINTS = [
        ("sparsepipe", "pr", "gy"),
        ("ideal", "pr", "gy"),
        ("software_oei", "pr", "gy"),
        ("sparsepipe", "sssp", "ro"),
        ("ideal", "sssp", "ro"),
    ]

    def test_parallel_equals_serial_bit_for_bit(self):
        serial = ExperimentContext().simulate_many(self.POINTS)
        parallel = ExperimentContext(max_workers=2).simulate_many(self.POINTS)
        assert parallel == serial

    def test_results_in_input_order(self):
        ctx = ExperimentContext()
        results = ctx.simulate_many(self.POINTS)
        assert [r is ctx.simulate(*p) for p, r in zip(self.POINTS, results)] == [
            True
        ] * len(self.POINTS)

    def test_duplicates_collapse_to_one_entry(self):
        ctx = ExperimentContext(max_workers=2)
        results = ctx.simulate_many([("ideal", "pr", "gy")] * 4)
        assert len(results) == 4
        assert all(r is results[0] for r in results)

    def test_unknown_architecture_rejected_up_front(self):
        with pytest.raises(ConfigError, match="unknown architecture"):
            ExperimentContext().simulate_many([("tpu", "pr", "gy")])

    def test_explicit_workers_override_context_default(self):
        serial = ExperimentContext()
        wide = ExperimentContext(max_workers=2)
        assert serial.simulate_many(self.POINTS) == \
            wide.simulate_many(self.POINTS)
        # More than one worker alone picks the pool.
        assert serial.metrics.value("scheduler.backend.inprocess") == 1
        assert wide.metrics.value("scheduler.backend.localpool") == 1
