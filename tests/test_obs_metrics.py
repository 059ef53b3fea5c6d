"""Unit tests for the metrics registry primitives and run manifests."""

from dataclasses import fields, replace

import pytest

from repro.obs import MetricsRegistry, RunManifest, build_manifest
from repro.obs.metrics import Histogram


class TestCounter:
    def test_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(2.5)
        assert reg.value("a") == 3.5

    def test_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("a").inc(-1.0)


class TestGauge:
    def test_set_overwrites(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(5.0)
        reg.gauge("g").set(2.0)
        assert reg.value("g") == 2.0

    def test_set_max_keeps_peak(self):
        reg = MetricsRegistry()
        reg.gauge("g").set_max(5.0)
        reg.gauge("g").set_max(2.0)
        assert reg.value("g") == 5.0


class TestHistogram:
    def test_buckets_are_cumulative_free_bins(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]  # <=1, <=10, +Inf overflow
        assert h.total == 55.5 and h.count == 3

    def test_boundary_lands_in_its_bucket(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(1.0)
        assert h.counts == [1, 0]

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_registry_value_reports_sum(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(3.0)
        reg.histogram("h").observe(4.0)
        assert reg.value("h") == 7.0


class TestRegistry:
    def test_type_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_missing_value_gets_default(self):
        assert MetricsRegistry().value("nope", default=-1.0) == -1.0

    def test_digest_tracks_content_not_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(1)
        a.counter("y").inc(2)
        b.counter("y").inc(2)
        b.counter("x").inc(1)
        assert a.digest() == b.digest()
        b.counter("x").inc(1)
        assert a.digest() != b.digest()

    def test_format_text_lists_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("sim.cycles").inc(10)
        reg.histogram("step.cycles").observe(2.0)
        text = reg.format_text()
        assert "sim.cycles" in text and "step.cycles" in text
        assert "count=1" in text


class TestManifest:
    def _manifest(self, **kwargs):
        reg = MetricsRegistry()
        reg.counter("sim.cycles").inc(100)
        defaults = dict(
            arch="sparsepipe", workload="bfs", matrix="gy",
            config="cfgkey", reorder="vanilla", block_size=256,
            registry=reg,
        )
        defaults.update(kwargs)
        return build_manifest(**defaults)

    def test_round_trips_through_dict(self):
        m = self._manifest(seed=3, wall_time_s=1.25)
        back = RunManifest.from_dict(m.to_dict())
        assert back == m
        assert back.digest() == m.digest()

    @pytest.mark.parametrize("status", ["ok", "retried", "failed"])
    def test_to_dict_digest_is_digest(self, status):
        faults = () if status == "ok" else (
            {"code": "SP602", "severity": "warning", "message": "retry 1"},
        )
        m = replace(self._manifest(seed=3, wall_time_s=0.5),
                    status=status, faults=faults)
        doc = m.to_dict()
        assert doc["digest"] == m.digest()
        assert list(doc) == [f.name for f in fields(RunManifest)] + ["digest"]

    def test_digest_excludes_wall_time_and_cache_flag(self):
        fast = self._manifest(wall_time_s=0.01)
        slow = self._manifest(wall_time_s=99.0)
        assert fast.digest() == slow.digest()
        assert fast.served_from_cache().digest() == fast.digest()
        assert fast.served_from_cache().from_cache is True

    def test_digest_tracks_identity_fields(self):
        assert self._manifest().digest() != self._manifest(seed=9).digest()
        assert (
            self._manifest().digest()
            != self._manifest(workload="pr").digest()
        )

    def test_needs_result_or_registry(self):
        with pytest.raises(ValueError):
            build_manifest(
                "sparsepipe", "bfs", "gy", "cfg", "vanilla", 256
            )
