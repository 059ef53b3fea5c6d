"""Tests for the AST self-lint (repro.analysis.selfcheck)."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.selfcheck import selfcheck


def write_tree(root: Path, files: dict) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


class TestRealTree:
    def test_library_is_clean(self):
        report = selfcheck()
        assert report.ok, report.format()

    def test_library_has_no_warnings_either(self):
        assert len(selfcheck()) == 0


class TestForbiddenImports:
    def test_sp901_scipy_import(self, tmp_path):
        write_tree(tmp_path, {"mod.py": "import scipy.sparse\n"})
        report = selfcheck(tmp_path)
        assert report.has("SP901")

    def test_sp901_networkx_from_import(self, tmp_path):
        write_tree(tmp_path, {"mod.py": "from networkx import DiGraph\n"})
        assert selfcheck(tmp_path).has("SP901")

    def test_numpy_is_allowed(self, tmp_path):
        write_tree(tmp_path, {"mod.py": "import numpy as np\n"})
        assert not selfcheck(tmp_path).has("SP901")


class TestBaselineRegistration:
    def test_sp902_unregistered_engine(self, tmp_path):
        write_tree(tmp_path, {
            "baselines/rogue.py": """
                class RogueEngine:
                    def run(self, profile, prep, paper_nnz=None):
                        return None
            """,
        })
        assert selfcheck(tmp_path).has("SP902")

    def test_registered_engine_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "baselines/good.py": """
                from repro.engine.registry import register_arch

                @register_arch("good", description="ok")
                class GoodEngine:
                    def run(self, profile, prep, paper_nnz=None):
                        return None
            """,
        })
        assert not selfcheck(tmp_path).has("SP902")

    def test_helper_module_without_engines_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "baselines/util.py": "def helper():\n    return 1\n",
        })
        assert not selfcheck(tmp_path).has("SP902")


class TestCacheKeyFields:
    def test_sp903_field_missing_from_cache_key(self, tmp_path):
        write_tree(tmp_path, {
            "config.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Cfg:
                    lanes: int = 8
                    buffer_kb: int = 512

                    def cache_key(self):
                        return str(self.lanes)  # forgets buffer_kb
            """,
        })
        report = selfcheck(tmp_path)
        assert report.has("SP903")
        assert "buffer_kb" in str(report.errors[0])

    def test_asdict_wholesale_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "config.py": """
                from dataclasses import asdict, dataclass

                @dataclass(frozen=True)
                class Cfg:
                    lanes: int = 8
                    buffer_kb: int = 512

                    def cache_key(self):
                        return str(sorted(asdict(self).items()))
            """,
        })
        assert not selfcheck(tmp_path).has("SP903")

    def test_explicit_every_field_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "config.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Cfg:
                    lanes: int = 8
                    buffer_kb: int = 512

                    def cache_key(self):
                        return f"{self.lanes}-{self.buffer_kb}"
            """,
        })
        assert not selfcheck(tmp_path).has("SP903")

    def test_dataclass_without_cache_key_is_ignored(self, tmp_path):
        write_tree(tmp_path, {
            "config.py": """
                from dataclasses import dataclass

                @dataclass
                class Plain:
                    x: int = 0
            """,
        })
        assert not selfcheck(tmp_path).has("SP903")


class TestDeterminism:
    def test_sp904_random_import_in_hot_path(self, tmp_path):
        write_tree(tmp_path, {"arch/sim.py": "import random\n"})
        assert selfcheck(tmp_path).has("SP904")

    def test_sp904_unseeded_default_rng(self, tmp_path):
        write_tree(tmp_path, {
            "oei/exec.py": """
                import numpy as np
                rng = np.random.default_rng()
            """,
        })
        assert selfcheck(tmp_path).has("SP904")

    def test_seeded_default_rng_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "oei/exec.py": """
                import numpy as np
                rng = np.random.default_rng(7)
            """,
        })
        assert not selfcheck(tmp_path).has("SP904")

    def test_sp904_wall_clock_in_hot_path(self, tmp_path):
        write_tree(tmp_path, {
            "engine/timer.py": """
                import time

                def stamp():
                    return time.perf_counter()
            """,
        })
        assert selfcheck(tmp_path).has("SP904")

    def test_wall_clock_outside_hot_path_is_allowed(self, tmp_path):
        write_tree(tmp_path, {
            "experiments/bench.py": """
                import time

                def stamp():
                    return time.perf_counter()
            """,
        })
        assert not selfcheck(tmp_path).has("SP904")


class TestStepLoops:
    def test_sp905_step_loop_outside_reference_backend(self, tmp_path):
        write_tree(tmp_path, {
            "arch/shiny.py": """
                def walk(plan):
                    total = 0.0
                    for s in range(plan.n_steps):
                        total += s
                    return total
            """,
        })
        assert selfcheck(tmp_path).has("SP905")

    def test_reference_backend_may_loop_over_steps(self, tmp_path):
        write_tree(tmp_path, {
            "arch/simulator.py": """
                def walk(plan):
                    for s in range(plan.n_steps):
                        pass
            """,
        })
        assert not selfcheck(tmp_path).has("SP905")

    def test_plain_range_loops_are_clean(self, tmp_path):
        write_tree(tmp_path, {
            "arch/other.py": """
                def walk(plan):
                    for s in range(plan.n_subtensors):
                        pass
                    for k in range(10):
                        pass
            """,
        })
        assert not selfcheck(tmp_path).has("SP905")

    def test_step_loops_outside_arch_are_out_of_scope(self, tmp_path):
        write_tree(tmp_path, {
            "oei/schedule.py": """
                def walk(schedule):
                    for s in range(schedule.n_steps):
                        pass
            """,
        })
        assert not selfcheck(tmp_path).has("SP905")


class TestBackendPins:
    def test_sp906_reference_backend_pin(self, tmp_path):
        write_tree(tmp_path, {
            "experiments/fig.py": """
                def drive(context, points):
                    return context.simulate_many(points, backend="reference")
            """,
        })
        assert selfcheck(tmp_path).has("SP906")

    def test_sp906_pin_in_config_construction(self, tmp_path):
        write_tree(tmp_path, {
            "obs/capture.py": """
                from repro.arch.config import SparsepipeConfig

                def snapshot(profile, prep):
                    cfg = SparsepipeConfig(backend="reference")
                    return cfg
            """,
        })
        assert selfcheck(tmp_path).has("SP906")

    def test_vectorized_pin_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "experiments/fig.py": """
                def drive(context, points):
                    return context.simulate_many(points, backend="vectorized")
            """,
        })
        assert not selfcheck(tmp_path).has("SP906")

    def test_backend_variable_passthrough_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "experiments/fig.py": """
                def drive(context, points, backend):
                    return context.simulate_many(points, backend=backend)
            """,
        })
        assert not selfcheck(tmp_path).has("SP906")


class TestResilienceDeterminism:
    """SP904's hot-path scope now includes resilience/ — the fault
    injector must stay seed-derived."""

    def test_sp904_fires_in_resilience(self, tmp_path):
        write_tree(tmp_path, {
            "resilience/chaos.py": """
                import numpy as np
                rng = np.random.default_rng()
            """,
        })
        assert selfcheck(tmp_path).has("SP904")

    def test_sp904_wall_clock_in_resilience(self, tmp_path):
        write_tree(tmp_path, {
            "resilience/sup.py": """
                import time

                def stamp():
                    return time.monotonic()
            """,
        })
        assert selfcheck(tmp_path).has("SP904")


class TestPoolGlobals:
    def test_sp911_global_mutated_outside_initializer(self, tmp_path):
        write_tree(tmp_path, {
            "engine/state.py": """
                _CACHE = None

                def set_cache(cache):
                    global _CACHE
                    _CACHE = cache
            """,
        })
        report = selfcheck(tmp_path)
        assert report.has("SP911")
        assert "_CACHE" in str(report.errors[0])

    def test_initializer_style_mutators_are_sanctioned(self, tmp_path):
        write_tree(tmp_path, {
            "engine/state.py": """
                _CACHE = None
                _LOADED = False

                def _init_worker_context(cache):
                    global _CACHE
                    _CACHE = cache

                def _ensure_builtin():
                    global _LOADED
                    _LOADED = True

                def install_hooks():
                    global _CACHE
                    _CACHE = {}
            """,
        })
        assert not selfcheck(tmp_path).has("SP911")

    def test_sp911_out_of_scope_outside_service_arc(self, tmp_path):
        write_tree(tmp_path, {
            "formats/reader.py": """
                _STATE = None

                def set_state(x):
                    global _STATE
                    _STATE = x
            """,
        })
        assert not selfcheck(tmp_path).has("SP911")


class TestAtomicWrites:
    def test_sp912_bare_write_text(self, tmp_path):
        write_tree(tmp_path, {
            "engine/cache.py": """
                def put(path, payload):
                    path.write_text(payload)
            """,
        })
        assert selfcheck(tmp_path).has("SP912")

    def test_sp912_json_dump_to_w_handle(self, tmp_path):
        write_tree(tmp_path, {
            "resilience/manifest.py": """
                import json

                def save(path, doc):
                    with open(path, "w") as fh:
                        json.dump(doc, fh)
            """,
        })
        assert selfcheck(tmp_path).has("SP912")

    def test_tmp_rename_protocol_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "engine/cache.py": """
                import os

                def put(path, payload):
                    tmp = path.with_suffix(f".{os.getpid()}.tmp")
                    tmp.write_text(payload)
                    tmp.replace(path)
            """,
        })
        assert not selfcheck(tmp_path).has("SP912")

    def test_read_only_open_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "engine/cache.py": """
                import json

                def get(path):
                    with open(path, "r") as fh:
                        return json.load(fh)
            """,
        })
        assert not selfcheck(tmp_path).has("SP912")

    def test_fault_injector_is_checked_too(self, tmp_path):
        # The fault hooks corrupt text in memory, so faults.py has no
        # exemption: a bare file write there is a finding like anywhere.
        write_tree(tmp_path, {
            "resilience/faults.py": """
                def corrupt(path):
                    path.write_text("garbage")
            """,
        })
        assert selfcheck(tmp_path).has("SP912")


class TestBlockingWaits:
    def test_sp913_time_sleep_poll(self, tmp_path):
        write_tree(tmp_path, {
            "resilience/faults.py": """
                import time

                def wait_for(flag):
                    while not flag():
                        time.sleep(0.1)
            """,
        })
        assert selfcheck(tmp_path).has("SP913")

    def test_sp913_unbounded_future_result(self, tmp_path):
        write_tree(tmp_path, {
            "scheduler/base.py": """
                def drain(futures):
                    return [f.result() for f in futures]
            """,
        })
        assert selfcheck(tmp_path).has("SP913")

    def test_timeout_result_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "scheduler/base.py": """
                def drain(futures, timeout_s):
                    return [f.result(timeout=timeout_s) for f in futures]
            """,
        })
        assert not selfcheck(tmp_path).has("SP913")

    def test_sleep_outside_supervisor_scope_is_allowed(self, tmp_path):
        # (SP913's scope is supervisors; SP904 separately owns clocks.)
        write_tree(tmp_path, {
            "experiments/demo.py": """
                import time

                def pause():
                    time.sleep(1)
            """,
        })
        assert not selfcheck(tmp_path).has("SP913")


class TestPoolConfinement:
    def test_sp914_from_import_outside_backend(self, tmp_path):
        write_tree(tmp_path, {
            "experiments/runner.py": """
                from concurrent.futures import ProcessPoolExecutor

                def fan_out(fn, items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(fn, items))
            """,
        })
        assert selfcheck(tmp_path).has("SP914")

    def test_sp914_attribute_use_outside_backend(self, tmp_path):
        write_tree(tmp_path, {
            "arch/autotune.py": """
                import concurrent.futures

                def fan_out(fn, items):
                    pool = concurrent.futures.ProcessPoolExecutor()
                    return list(pool.map(fn, items))
            """,
        })
        assert selfcheck(tmp_path).has("SP914")

    def test_localpool_backend_may_name_the_pool(self, tmp_path):
        # The localpool backend lives in run_fanout's module.
        write_tree(tmp_path, {
            "scheduler/base.py": """
                from concurrent.futures import ProcessPoolExecutor

                def fan_out(fn, items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(fn, items))
            """,
        })
        assert not selfcheck(tmp_path).has("SP914")

    def test_sp914_other_scheduler_modules_are_not_exempt(self, tmp_path):
        write_tree(tmp_path, {
            "scheduler/__init__.py": """
                from concurrent.futures import ProcessPoolExecutor
            """,
        })
        assert selfcheck(tmp_path).has("SP914")

    def test_sp914_confinement_is_repo_wide(self, tmp_path):
        # Unlike the supervisor-scoped rules, SP914 has no include
        # list: a pool smuggled into *any* module dodges run_fanout's
        # supervision, so the whole tree is in scope.
        write_tree(tmp_path, {
            "analysis/offline_tool.py": """
                from concurrent.futures import ProcessPoolExecutor
            """,
        })
        assert selfcheck(tmp_path).has("SP914")


class TestPassFramework:
    def test_passes_subset_restricts_rules(self, tmp_path):
        from repro.analysis.selfcheck import PASSES

        write_tree(tmp_path, {
            "engine/bad.py": """
                import scipy

                def set_cache(cache):
                    global _CACHE
                    _CACHE = cache
            """,
        })
        sp901 = [p for p in PASSES if p.code == "SP901"]
        report = selfcheck(tmp_path, passes=sp901)
        assert report.has("SP901")
        assert not report.has("SP911")  # SP911 pass not run

    def test_applies_honors_include_exclude(self):
        from repro.analysis.selfcheck import PASSES

        by_code = {p.code: p for p in PASSES}
        assert by_code["SP905"].applies("arch/fastpath.py")
        assert not by_code["SP905"].applies("arch/simulator.py")
        assert by_code["SP912"].applies("resilience/cachemon.py")
        assert by_code["SP912"].applies("resilience/faults.py")
        assert not by_code["SP912"].applies("experiments/runner.py")
        assert by_code["SP904"].applies("resilience/faults.py")
        assert not by_code["SP911"].applies("arch/simulator.py")
        assert not by_code["SP902"].applies("baselines/__init__.py")

    def test_every_pass_code_is_registered(self):
        from repro.analysis.diagnostics import CODES
        from repro.analysis.selfcheck import PASSES

        for p in PASSES:
            assert p.code in CODES, p.code

    def test_every_scope_path_exists(self):
        # A scope naming a deleted module or package silently checks
        # nothing; every include/exclude path must exist in the tree.
        from repro.analysis.selfcheck import PASSES, _library_root

        root = _library_root()
        for p in PASSES:
            for rel in p.include + p.exclude:
                if not rel:
                    continue  # "" = the whole tree
                path = root / rel
                assert path.is_dir() if rel.endswith("/") else \
                    path.is_file(), f"{p.code}: {rel}"


class TestRegistryDuplicates:
    def test_register_code_rejects_duplicates(self):
        from repro.analysis.diagnostics import CODES, CodeSpec, register_code
        from repro.errors import Severity

        spec = CODES["SP901"]
        dup = CodeSpec("SP901", "impostor", Severity.WARNING, "nope")
        with pytest.raises(ValueError, match="duplicate diagnostic code"):
            register_code(dup)
        # The original registration is untouched.
        assert CODES["SP901"] is spec

    def test_register_code_accepts_fresh_code(self):
        from repro.analysis.diagnostics import CODES, CodeSpec, register_code
        from repro.errors import Severity

        fresh = CodeSpec("SP999", "test-only", Severity.WARNING, "scratch")
        try:
            assert register_code(fresh) is fresh
            assert CODES["SP999"] is fresh
        finally:
            CODES.pop("SP999", None)
