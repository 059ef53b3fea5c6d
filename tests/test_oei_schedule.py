"""Tests for the OEI step schedule."""

import pytest

from repro.analysis.bounds import traffic_bounds
from repro.arch.config import SparsepipeConfig
from repro.arch.loaders import LoadPlan
from repro.arch.profile import WorkloadProfile
from repro.matrices import banded_mesh
from repro.oei import OEISchedule
from repro.oei.schedule import EWISE_LAG, IS_LAG, oei_passes


class TestSchedule:
    def test_subtensor_count(self):
        assert OEISchedule(100, 16).n_subtensors == 7
        assert OEISchedule(96, 16).n_subtensors == 6
        assert OEISchedule(0, 16).n_subtensors == 0

    def test_last_subtensor_truncated(self):
        sched = OEISchedule(100, 16)
        last = sched.subtensor(6)
        assert last.start == 96 and last.stop == 100 and last.width == 4

    def test_subtensors_cover_all_columns(self):
        sched = OEISchedule(57, 9)
        covered = []
        for st in sched.subtensors():
            covered.extend(range(st.start, st.stop))
        assert covered == list(range(57))

    def test_n_steps_includes_drain(self):
        sched = OEISchedule(64, 16)
        assert sched.n_steps == 4 + IS_LAG

    def test_stage_lags(self):
        sched = OEISchedule(64, 16)
        assert sched.os_at(0).index == 0
        assert sched.ewise_at(0) is None
        assert sched.ewise_at(EWISE_LAG).index == 0
        assert sched.is_at(IS_LAG).index == 0
        assert sched.os_at(sched.n_steps - 1) is None
        assert sched.is_at(sched.n_steps - 1).index == sched.n_subtensors - 1

    def test_each_stage_touches_each_subtensor_once(self):
        sched = OEISchedule(40, 8)
        for stage in (sched.os_at, sched.ewise_at, sched.is_at):
            seen = [
                stage(s).index
                for s in range(sched.n_steps)
                if stage(s) is not None
            ]
            assert seen == list(range(sched.n_subtensors))

    def test_out_of_range_subtensor(self):
        with pytest.raises(IndexError):
            OEISchedule(10, 5).subtensor(2)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            OEISchedule(10, 0)


class TestOEIPasses:
    """The one iteration pass schedule every timing model walks."""

    FUSED = {
        0: [],
        1: [(0, False)],
        2: [(0, True)],
        3: [(0, True), (2, False)],
        4: [(0, True), (2, True)],
        5: [(0, True), (2, True), (4, False)],
    }

    @pytest.mark.parametrize("n", sorted(FUSED))
    def test_fused_pairs_then_an_odd_tail(self, n):
        assert list(oei_passes(n, fused=True)) == self.FUSED[n]

    @pytest.mark.parametrize("n", sorted(FUSED))
    def test_unfused_streams_every_iteration(self, n):
        assert list(oei_passes(n, fused=False)) == [(k, False) for k in range(n)]

    def test_static_bounds_count_the_schedule(self):
        profile = WorkloadProfile(
            name="pr", semiring_name="mul_add", has_oei=True, n_iterations=7,
            path_ewise_ops=2, side_ewise_ops=1, aux_streams=0,
            writeback_streams=1,
        )
        config = SparsepipeConfig()
        plan = LoadPlan.from_matrix(
            banded_mesh(200, 8, 1200, seed=1), config.subtensor_cols)
        bounds = traffic_bounds(profile, plan, config, capacity=1e6)
        passes = list(oei_passes(profile.n_iterations, profile.has_oei))
        assert bounds.n_pairs == sum(paired for _, paired in passes) == 3
        assert bounds.n_streams == sum(not paired for _, paired in passes) == 1
