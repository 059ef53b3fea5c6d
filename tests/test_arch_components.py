"""Unit tests for simulator components: config, memory, cores, buffer,
load plans, prefetcher, energy, area."""

import numpy as np
import pytest

from repro.arch.area import (
    AreaModel,
    PAPER_BUFFER_SHARE,
    PAPER_SPARSEPIPE_AREA_MM2,
)
from repro.arch.buffer import OnChipBuffer
from repro.arch.config import (
    CPU_DDR4,
    GPU_GDDR6X,
    PAPER_BUFFER_BYTES,
    MemoryConfig,
    SparsepipeConfig,
    scaled_buffer_bytes,
)
from repro.arch.cores import ComputePipeline
from repro.arch.energy import EnergyModel
from repro.arch.loaders import EagerPrefetcher, LoadPlan
from repro.arch.memory import MemoryController
from repro.arch.profile import WorkloadProfile
from repro.arch.simulator import SparsepipeSimulator
from repro.arch.stats import StepTrace, TrafficBreakdown
from repro.errors import BufferError_, ConfigError
from repro.formats.coo import COOMatrix
from repro.matrices import banded_mesh
from repro.preprocess import preprocess
from tests.conftest import random_coo
from tests.test_simulator import make_profile


class TestConfig:
    def test_table_ii_presets(self):
        assert CPU_DDR4.bandwidth_gbps == 40.0
        assert CPU_DDR4.read_latency_ns == 13.75
        assert GPU_GDDR6X.bandwidth_gbps == 504.0
        assert GPU_GDDR6X.write_latency_ns == 5.0

    def test_bytes_per_cycle(self):
        assert GPU_GDDR6X.bytes_per_cycle(1.0) == 504.0
        assert GPU_GDDR6X.bytes_per_cycle(2.0) == 252.0

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigError):
            MemoryConfig("bad", -1.0, 1.0, 1.0, "X")

    def test_scaled_buffer_preserves_ratio(self):
        paper = 64 * 1024 * 1024
        assert scaled_buffer_bytes(1000, 1000000) == pytest.approx(
            paper / 1000, rel=0.01
        )

    def test_scaled_buffer_floor(self):
        assert scaled_buffer_bytes(1, 10**9) == 4096

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SparsepipeConfig(pes_per_core=0)
        with pytest.raises(ConfigError):
            SparsepipeConfig(subtensor_cols=0)
        with pytest.raises(ConfigError):
            SparsepipeConfig(csr_window_fraction=0.0)
        with pytest.raises(ConfigError):
            SparsepipeConfig(dram_efficiency=1.5)

    @pytest.mark.parametrize("buffer_bytes", [0, -5])
    def test_non_positive_buffer_is_rejected(self, buffer_bytes):
        with pytest.raises(ConfigError, match="buffer_bytes"):
            SparsepipeConfig(buffer_bytes=buffer_bytes)

    def test_buffer_capacity_resolution_order(self):
        """Explicit bytes, else the paper capacity scaled by the
        matrix's share of the paper's nnz, else the paper capacity."""
        assert SparsepipeConfig(buffer_bytes=8192).buffer_capacity(
            1000, 10**6) == 8192
        assert SparsepipeConfig().buffer_capacity(1000, 10**6) == (
            scaled_buffer_bytes(1000, 10**6))
        assert SparsepipeConfig().buffer_capacity(1000) == PAPER_BUFFER_BYTES

    def test_simulator_reports_the_resolved_capacity(self):
        prep = preprocess(banded_mesh(60, 4, 200, seed=1),
                          reorder=None, block_size=None)
        plan = LoadPlan.from_matrix(prep, 32)
        config = SparsepipeConfig(subtensor_cols=32)
        result = SparsepipeSimulator(config).run(
            make_profile(), prep, paper_nnz=10**6)
        assert result.extra["buffer_capacity_bytes"] == float(
            config.buffer_capacity(plan.total_nnz, 10**6))

    def test_with_memory_swaps_only_memory(self):
        cfg = SparsepipeConfig()
        iso_cpu = cfg.with_memory(CPU_DDR4)
        assert iso_cpu.memory is CPU_DDR4
        assert iso_cpu.pes_per_core == cfg.pes_per_core

    def test_seconds(self):
        cfg = SparsepipeConfig(clock_ghz=2.0)
        assert cfg.seconds(2e9) == 1.0


class TestMemoryController:
    def test_cycles_include_dram_efficiency(self):
        cfg = SparsepipeConfig(dram_efficiency=0.5)
        mem = MemoryController(cfg)
        assert mem.cycles_for(504.0) == pytest.approx(2.0)

    def test_transfer_records_traffic(self):
        mem = MemoryController(SparsepipeConfig())
        mem.transfer("csc", 100.0)
        mem.transfer("vector", 50.0)
        assert mem.traffic.total_bytes == 150.0
        assert mem.traffic.matrix_bytes == 100.0

    def test_unknown_category(self):
        mem = MemoryController(SparsepipeConfig())
        with pytest.raises(KeyError):
            mem.transfer("bogus", 1.0)

    def test_negative_bytes(self):
        mem = MemoryController(SparsepipeConfig())
        with pytest.raises(ValueError):
            mem.cycles_for(-1.0)


class TestComputePipeline:
    def test_os_cycles_spread_over_pes(self):
        cores = ComputePipeline(SparsepipeConfig(pes_per_core=100))
        assert cores.os_cycles(250) == 3
        assert cores.os_cycles(0) == 0.0

    def test_feature_dim_multiplies(self):
        cores = ComputePipeline(SparsepipeConfig(pes_per_core=100))
        assert cores.os_cycles(100, feature_dim=4) == 4

    def test_ewise_cycles_scale_with_ops(self):
        cores = ComputePipeline(SparsepipeConfig(pes_per_core=64))
        assert cores.ewise_cycles(64, n_ops=3) == 3
        assert cores.ewise_cycles(64, n_ops=0) == 0.0

    def test_tree_depth_log2(self):
        cores = ComputePipeline(SparsepipeConfig(pes_per_core=1024))
        assert cores.tree_depth == 10


class TestOnChipBuffer:
    def _buffer(self, capacity=120.0, fraction=1.0, el=12.0):
        return OnChipBuffer(capacity, fraction, el, repack_threshold=0.5)

    def test_admit_release_balance(self):
        buf = self._buffer()
        buf.admit({5: 4, 7: 2})
        assert buf.live_bytes == 6 * 12
        assert buf.release(5) == 4
        assert buf.release(7) == 2
        buf.drain_check()

    def test_peak_tracking(self):
        buf = self._buffer(capacity=1000.0)
        buf.admit({3: 5})
        buf.admit({4: 5})
        assert buf.peak_bytes == 10 * 12

    def test_oom_evicts_furthest_and_schedules_reload(self):
        buf = self._buffer(capacity=60.0)  # 5 elements
        buf.admit({10: 4, 20: 4})
        evicted = buf.enforce_capacity(current_step=0)
        assert evicted == 3 * 12  # down to 5 resident
        assert buf.pop_reload(20) == 3 * 12
        assert buf.pop_reload(10) == 0.0

    def test_eviction_never_takes_current_step(self):
        buf = self._buffer(capacity=12.0)
        buf.admit({3: 5})
        evicted = buf.enforce_capacity(current_step=3)
        assert evicted == 0.0  # everything needed now; nothing sane to evict

    def test_negative_admit_rejected(self):
        buf = self._buffer()
        with pytest.raises(BufferError_):
            buf.admit({1: -1})

    def test_drain_check_catches_leftovers(self):
        buf = self._buffer()
        buf.admit({9: 1})
        with pytest.raises(BufferError_):
            buf.drain_check()

    def test_slack_counts_prefetch(self):
        buf = self._buffer(capacity=100.0)
        buf.prefetch_resident_bytes = 40.0
        assert buf.slack_bytes() == 60.0

    def test_repack_events_fire(self):
        buf = self._buffer(capacity=10000.0)
        buf.admit({1: 10, 9: 2})
        buf.release(1)
        assert buf.repack_events >= 1


class TestLoadPlan:
    def test_structure_totals(self):
        coo = random_coo(3, n=40)
        plan = LoadPlan.from_matrix(coo, subtensor_cols=8)
        assert plan.n_subtensors == 5
        assert plan.n_steps == 7
        assert plan.os_nnz.sum() == coo.nnz
        assert plan.scatter_nnz.sum() == coo.nnz
        assert plan.matrix_stream_bytes == coo.nnz * 12.0

    def test_enter_counts_exclude_immediate(self):
        # Element (0, 30): load step 3, scatter step max(3, 0+2)=3 ->
        # immediate, never enters the window.
        coo = COOMatrix((40, 40), np.array([0]), np.array([30]), np.ones(1))
        plan = LoadPlan.from_matrix(coo, subtensor_cols=10)
        assert all(not c for c in plan.enter_counts)

    def test_enter_counts_cover_waiting_elements(self):
        # Element (35, 0): load 0, scatter 3+2=5.
        coo = COOMatrix((40, 40), np.array([35]), np.array([0]), np.ones(1))
        plan = LoadPlan.from_matrix(coo, subtensor_cols=10)
        assert plan.enter_counts[0] == {5: 1}

    def test_subtensor_widths(self):
        coo = random_coo(4, n=37)
        plan = LoadPlan.from_matrix(coo, subtensor_cols=10)
        assert list(plan.subtensor_width) == [10, 10, 10, 7]

    def test_rejects_rectangular(self):
        with pytest.raises(ConfigError):
            LoadPlan.from_matrix(COOMatrix.empty((3, 5)), subtensor_cols=2)

    def test_element_bytes_from_preprocess(self):
        from repro.preprocess import preprocess

        coo = random_coo(5, n=60, density=0.2)
        blocked = preprocess(coo, reorder=None, block_size=16)
        naive = preprocess(coo, reorder=None, block_size=None)
        plan_b = LoadPlan.from_matrix(blocked, subtensor_cols=8)
        plan_n = LoadPlan.from_matrix(naive, subtensor_cols=8)
        assert plan_b.element_bytes < plan_n.element_bytes


class TestEagerPrefetcher:
    def test_prefetch_reduces_future_demand(self):
        coo = random_coo(6, n=40)
        plan = LoadPlan.from_matrix(coo, subtensor_cols=8)
        pf = EagerPrefetcher(plan, enabled=True)
        future = float(plan.csc_bytes[2])
        moved = pf.prefetch(current=1, budget_bytes=future, slack_bytes=1e9)
        assert moved == pytest.approx(future)
        assert pf.demand(2) == 0.0
        assert pf.release_at(2) == pytest.approx(future)

    def test_prefetch_respects_slack(self):
        coo = random_coo(7, n=40)
        plan = LoadPlan.from_matrix(coo, subtensor_cols=8)
        pf = EagerPrefetcher(plan, enabled=True)
        assert pf.prefetch(0, budget_bytes=1e9, slack_bytes=10.0) <= 10.0

    def test_disabled_prefetcher_never_moves(self):
        coo = random_coo(8, n=40)
        plan = LoadPlan.from_matrix(coo, subtensor_cols=8)
        pf = EagerPrefetcher(plan, enabled=False)
        assert pf.prefetch(0, 1e9, 1e9) == 0.0

    def test_demand_consumed_once(self):
        coo = random_coo(9, n=40)
        plan = LoadPlan.from_matrix(coo, subtensor_cols=8)
        pf = EagerPrefetcher(plan, enabled=True)
        first = pf.demand(1)
        assert first > 0
        assert pf.demand(1) == 0.0


class TestStats:
    def test_traffic_merge(self):
        a, b = TrafficBreakdown(), TrafficBreakdown()
        a.add("csc", 10)
        b.add("csc", 5)
        b.add("vector", 2)
        merged = a.merged(b)
        assert merged.bytes_by_category["csc"] == 15
        assert merged.total_bytes == 17

    def test_samples_bins_sum_to_total(self):
        trace = StepTrace()
        for i in range(50):
            trace.record(10.0, {"csc": 100.0})
        samples = trace.samples(bytes_per_cycle=504.0, n_bins=25)
        assert len(samples) == 25
        assert samples[-1].progress == 1.0
        for s in samples:
            assert 0.0 <= s.utilization <= 1.0

    def test_empty_trace(self):
        assert StepTrace().samples(504.0) == []


class TestEnergyArea:
    def test_area_calibration_matches_paper(self):
        model = AreaModel()
        total = model.sparsepipe_mm2()
        assert total == pytest.approx(PAPER_SPARSEPIPE_AREA_MM2, rel=0.01)
        assert model.buffer_share() == pytest.approx(PAPER_BUFFER_SHARE, abs=0.01)

    def test_area_scales_with_buffer(self):
        model = AreaModel()
        assert model.sparsepipe_mm2(buffer_mb=32) < model.sparsepipe_mm2(buffer_mb=64)

    def test_perf_per_area(self):
        model = AreaModel()
        assert model.perf_per_area(2.0, 100.0) == 0.02
        with pytest.raises(ValueError):
            model.perf_per_area(1.0, 0.0)

    def test_energy_breakdown(self):
        from repro.arch.stats import SimResult

        result = SimResult(
            name="t", cycles=1.0, seconds=1.0, traffic=TrafficBreakdown(),
            bandwidth_utilization=0.0, bandwidth_samples=[], compute_ops=1e12,
            buffer_peak_bytes=0, oom_evicted_bytes=0, repack_events=0,
            n_iterations=1, sram_access_bytes=1e12,
        )
        result.traffic.add("csc", 1e12)
        breakdown = EnergyModel().evaluate(result)
        assert breakdown.compute_j == pytest.approx(0.8)
        assert breakdown.memory_j == pytest.approx(15.0)
        assert breakdown.buffer_j == pytest.approx(1.0)
        assert breakdown.total_j == pytest.approx(16.8)
