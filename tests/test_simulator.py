"""Integration tests of the Sparsepipe simulator and baseline models:
conservation invariants and the paper's headline qualitative results."""

import numpy as np
import pytest

from repro.arch import SparsepipeConfig, SparsepipeSimulator, CPU_DDR4
from repro.arch.profile import WorkloadProfile
from repro.baselines import CPUModel, GPUModel, IdealAccelerator, OracleAccelerator
from repro.engine.instrumentation import StepTraceObserver
from repro.errors import ConfigError
from repro.matrices import banded_mesh, bipartite_block, erdos_renyi
from repro.preprocess import preprocess


def make_profile(**overrides) -> WorkloadProfile:
    base = dict(
        name="pr",
        semiring_name="mul_add",
        has_oei=True,
        n_iterations=10,
        path_ewise_ops=2,
        side_ewise_ops=1,
        aux_streams=0,
        writeback_streams=1,
    )
    base.update(overrides)
    return WorkloadProfile(**base)


@pytest.fixture(scope="module")
def banded_prep():
    return preprocess(banded_mesh(600, 20, 5000, seed=3), reorder=None, block_size=None)


@pytest.fixture(scope="module")
def skewed_prep():
    return preprocess(
        bipartite_block(600, 6000, split=0.45, corner_share=0.9, seed=4),
        reorder=None,
        block_size=None,
    )


class TestConservation:
    def test_matrix_loaded_once_per_pair_when_window_fits(self, banded_prep):
        sim = SparsepipeSimulator(SparsepipeConfig(subtensor_cols=32))
        profile = make_profile(n_iterations=10)
        result = sim.run(profile, banded_prep)  # paper-size buffer: fits
        matrix_bytes = LoadPlanCache.get(banded_prep).matrix_stream_bytes
        # 5 pairs -> 5 matrix streams, no reloads.
        assert result.traffic.bytes_by_category["csr_reload"] == 0.0
        streamed = (
            result.traffic.bytes_by_category["csc"]
            + result.traffic.bytes_by_category["csr_eager"]
        )
        assert streamed == pytest.approx(5 * matrix_bytes, rel=1e-6)

    def test_odd_iteration_adds_one_stream(self, banded_prep):
        sim = SparsepipeSimulator(SparsepipeConfig(subtensor_cols=32))
        result = sim.run(make_profile(n_iterations=11), banded_prep)
        matrix_bytes = LoadPlanCache.get(banded_prep).matrix_stream_bytes
        assert result.traffic.matrix_bytes == pytest.approx(6 * matrix_bytes, rel=1e-6)

    def test_non_oei_streams_every_iteration(self, banded_prep):
        sim = SparsepipeSimulator(SparsepipeConfig(subtensor_cols=32))
        result = sim.run(make_profile(has_oei=False, n_iterations=10), banded_prep)
        matrix_bytes = LoadPlanCache.get(banded_prep).matrix_stream_bytes
        assert result.traffic.matrix_bytes == pytest.approx(10 * matrix_bytes, rel=1e-6)

    def test_small_buffer_causes_reload_traffic(self, skewed_prep):
        tight = SparsepipeSimulator(
            SparsepipeConfig(subtensor_cols=32, buffer_bytes=8 * 1024)
        )
        result = tight.run(make_profile(n_iterations=4), skewed_prep)
        assert result.oom_evicted_bytes > 0
        assert result.traffic.bytes_by_category["csr_reload"] > 0

    def test_reload_equals_evicted(self, skewed_prep):
        tight = SparsepipeSimulator(
            SparsepipeConfig(subtensor_cols=32, buffer_bytes=8 * 1024)
        )
        result = tight.run(make_profile(n_iterations=4), skewed_prep)
        assert result.traffic.bytes_by_category["csr_reload"] == pytest.approx(
            result.oom_evicted_bytes, rel=1e-9
        )

    def test_buffer_peak_respects_capacity(self, skewed_prep):
        capacity = 16 * 1024
        tight = SparsepipeSimulator(
            SparsepipeConfig(subtensor_cols=32, buffer_bytes=capacity,
                             csr_window_fraction=1.0)
        )
        result = tight.run(make_profile(n_iterations=4), skewed_prep)
        # Peak can exceed capacity by at most one admit batch before
        # eviction runs (enforcement is per step).
        one_subtensor = max(
            LoadPlanCache.get(skewed_prep).os_nnz.max() * 12.0, 12.0
        )
        assert result.buffer_peak_bytes <= capacity + one_subtensor * 2


class LoadPlanCache:
    _cache = {}

    @classmethod
    def get(cls, prep):
        key = id(prep)
        if key not in cls._cache:
            from repro.arch.loaders import LoadPlan

            cls._cache[key] = LoadPlan.from_matrix(prep, subtensor_cols=32)
        return cls._cache[key]


class TestPaperQualitative:
    """The headline claims of Section VI, as assertions."""

    def test_oei_beats_ideal_on_oei_workloads(self, banded_prep):
        cfg = SparsepipeConfig(subtensor_cols=32)
        sp = SparsepipeSimulator(cfg).run(make_profile(n_iterations=20), banded_prep)
        ideal = IdealAccelerator(cfg).run(make_profile(n_iterations=20), banded_prep)
        speedup = sp.speedup_over(ideal)
        assert 1.2 < speedup < 3.6  # paper: 1.21x-2.62x geomean, 3.59x max

    def test_non_oei_roughly_ties_ideal(self, banded_prep):
        cfg = SparsepipeConfig(subtensor_cols=32)
        profile = make_profile(has_oei=False, n_iterations=20)
        sp = SparsepipeSimulator(cfg).run(profile, banded_prep)
        ideal = IdealAccelerator(cfg).run(profile, banded_prep)
        assert 0.7 < sp.speedup_over(ideal) < 1.3  # paper: 0.75x-1.20x

    def test_oracle_is_upper_bound(self, banded_prep, skewed_prep):
        cfg = SparsepipeConfig(subtensor_cols=32)
        for prep in (banded_prep, skewed_prep):
            profile = make_profile(n_iterations=12)
            sp = SparsepipeSimulator(cfg).run(profile, prep)
            oracle = OracleAccelerator(cfg).run(profile, prep)
            assert oracle.seconds <= sp.seconds * 1.001

    def test_sparsepipe_beats_cpu_and_gpu(self, banded_prep):
        cfg = SparsepipeConfig(subtensor_cols=32)
        profile = make_profile(n_iterations=20)
        sp = SparsepipeSimulator(cfg).run(profile, banded_prep)
        cpu = CPUModel().run(profile, banded_prep)
        gpu = GPUModel().run(profile, banded_prep)
        assert sp.speedup_over(cpu) > 5.0
        assert sp.speedup_over(gpu) > 1.5

    def test_iso_cpu_still_beats_cpu(self, banded_prep):
        profile = make_profile(n_iterations=20)
        paper_nnz = banded_prep.matrix.nnz * 200  # consistent scaling
        iso_cpu = SparsepipeSimulator(
            SparsepipeConfig(subtensor_cols=32).with_memory(CPU_DDR4)
        ).run(profile, banded_prep, paper_nnz=paper_nnz)
        cpu = CPUModel().run(profile, banded_prep, paper_nnz=paper_nnz)
        # Paper: 1.31x-3.57x from the OEI dataflow alone.
        assert 1.1 < iso_cpu.speedup_over(cpu) < 4.5

    def test_eager_is_never_hurts(self, banded_prep):
        profile = make_profile(n_iterations=10)
        on = SparsepipeSimulator(
            SparsepipeConfig(subtensor_cols=32, eager_is=True)
        ).run(profile, banded_prep)
        off = SparsepipeSimulator(
            SparsepipeConfig(subtensor_cols=32, eager_is=False)
        ).run(profile, banded_prep)
        assert on.cycles <= off.cycles * 1.001

    def test_bandwidth_utilization_high_when_memory_bound(self, banded_prep):
        cfg = SparsepipeConfig(subtensor_cols=32)
        result = SparsepipeSimulator(cfg).run(make_profile(n_iterations=20), banded_prep)
        assert result.bandwidth_utilization > 0.6

    def test_compute_heavy_profile_lowers_utilization(self, banded_prep):
        cfg = SparsepipeConfig(subtensor_cols=32)
        light = SparsepipeSimulator(cfg).run(make_profile(n_iterations=10), banded_prep)
        heavy = SparsepipeSimulator(cfg).run(
            make_profile(n_iterations=10, path_ewise_ops=40, side_ewise_ops=40),
            banded_prep,
        )
        assert heavy.bandwidth_utilization < light.bandwidth_utilization

    def test_bandwidth_samples_cover_run(self, banded_prep):
        cfg = SparsepipeConfig(subtensor_cols=32)
        result = SparsepipeSimulator(cfg).run(
            make_profile(n_iterations=6), banded_prep,
            observers=[StepTraceObserver()],
        )
        assert len(result.bandwidth_samples) == 25
        shares = result.bandwidth_samples[0].category_share
        assert abs(sum(shares.values()) - 1.0) < 1e-6 or sum(shares.values()) == 0.0


class TestProfileValidation:
    def test_rejects_zero_iterations(self):
        with pytest.raises(ConfigError):
            make_profile(n_iterations=0)

    def test_rejects_bad_activity(self):
        with pytest.raises(ConfigError):
            make_profile(activity=(1.5,))

    def test_activity_defaults_to_one(self):
        profile = make_profile(activity=(0.5,))
        assert profile.activity_at(0) == 0.5
        assert profile.activity_at(5) == 1.0

    def test_from_program(self):
        from repro.workloads import get_workload

        prog = get_workload("pr").program()
        profile = WorkloadProfile.from_program(prog, n_iterations=7)
        assert profile.semiring_name == "mul_add"
        assert profile.has_oei
        assert profile.path_ewise_ops == 2
