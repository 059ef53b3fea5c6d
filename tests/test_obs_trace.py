"""Trace export, determinism, and manifest provenance tests.

Locks the externally visible artifacts of the observability layer:
the Chrome/Perfetto trace JSON validates against the Trace Event
Format contract, reruns of one configuration are **byte-identical**,
the written file is exactly ``json.dumps(..., sort_keys=True,
indent=1)``'s text of its document (on real runs, and against a
dict-building reference renderer on synthetic event streams), and
manifests distinguish fresh results from cache-served ones while
keeping the same stable digest.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import SparsepipeConfig
from repro.arch.simulator import SparsepipeSimulator
from repro.arch.stats import TRAFFIC_CATEGORIES
from repro.engine.instrumentation import FILL_STEP
from repro.experiments.runner import ExperimentContext
from repro.matrices.suite import SUITE
from repro.obs import (
    RunManifest,
    capture_run,
    validate_chrome_trace,
)
from repro.obs.manifest import build_manifest
from repro.obs.metrics import MetricsObserver
from repro.obs.timeline import TRACE_PID, TRACK_IDS, TimelineObserver
from tests.strategies import replay_streams, run_manifests


class TestChromeTraceExport:
    def test_capture_run_trace_validates(self):
        cap = capture_run("bfs", matrix="gy")
        doc = cap.timeline.to_chrome_trace(manifest=cap.manifest)
        events = validate_chrome_trace(doc)
        assert len(events) > 0
        assert doc["metadata"]["tsUnit"] == "cycles"
        assert doc["metadata"]["manifestDigest"] == cap.manifest.digest()

    def test_trace_has_expected_tracks(self):
        cap = capture_run("bfs", matrix="gy")
        doc = cap.timeline.to_chrome_trace()
        names = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev.get("ph") == "M" and ev["name"] == "thread_name"
        }
        assert {"pipeline steps", "DRAM channel", "OS core"} <= names

    def test_written_file_round_trips(self, tmp_path):
        cap = capture_run("bfs", matrix="gy")
        trace_path, manifest_path = cap.write_trace(tmp_path / "trace.json")
        assert trace_path.exists() and manifest_path.exists()
        doc = json.loads(trace_path.read_text())
        validate_chrome_trace(doc)
        sidecar = json.loads(manifest_path.read_text())
        assert sidecar["digest"] == cap.manifest.digest()
        assert RunManifest.from_dict(sidecar).digest() == cap.manifest.digest()


class TestDeterminism:
    def test_trace_json_is_byte_identical_across_runs(self, tmp_path):
        a = capture_run("bfs", matrix="gy")
        b = capture_run("bfs", matrix="gy")
        pa, _ = a.write_trace(tmp_path / "a.json")
        pb, _ = b.write_trace(tmp_path / "b.json")
        assert pa.read_bytes() == pb.read_bytes()

    def test_manifest_digest_is_stable_across_runs(self):
        a = capture_run("pr", matrix="gy")
        b = capture_run("pr", matrix="gy")
        assert a.manifest.digest() == b.manifest.digest()
        # Wall time differs between runs but never enters the digest.
        assert a.manifest.metrics_digest == b.manifest.metrics_digest

    def test_different_workloads_get_different_digests(self):
        a = capture_run("bfs", matrix="gy")
        b = capture_run("pr", matrix="gy")
        assert a.manifest.digest() != b.manifest.digest()


class TestCacheProvenance:
    def test_fresh_then_served_manifests(self, tmp_path):
        fresh_ctx = ExperimentContext(cache_dir=tmp_path)
        fresh_ctx.simulate("sparsepipe", "bfs", "gy")
        fresh = fresh_ctx.manifest("sparsepipe", "bfs", "gy")
        assert fresh is not None
        assert fresh.from_cache is False
        assert fresh.wall_time_s is not None and fresh.wall_time_s >= 0.0

        served_ctx = ExperimentContext(cache_dir=tmp_path)
        served_ctx.simulate("sparsepipe", "bfs", "gy")
        served = served_ctx.manifest("sparsepipe", "bfs", "gy")
        assert served is not None
        assert served.from_cache is True
        # Cache service changes provenance, never identity.
        assert served.digest() == fresh.digest()
        assert served_ctx.metrics.value("cache.disk_hits") == 1.0

    def test_manifest_to_dict_marks_cache_service(self, tmp_path):
        ctx = ExperimentContext(cache_dir=tmp_path)
        ctx.simulate("sparsepipe", "bfs", "gy")
        again = ExperimentContext(cache_dir=tmp_path)
        again.simulate("sparsepipe", "bfs", "gy")
        doc = again.manifest("sparsepipe", "bfs", "gy").to_dict()
        assert doc["from_cache"] is True

    def test_served_result_is_identical_to_fresh(self, tmp_path):
        ctx = ExperimentContext(cache_dir=tmp_path)
        fresh = ctx.simulate("sparsepipe", "bfs", "gy")
        again = ExperimentContext(cache_dir=tmp_path)
        served = again.simulate("sparsepipe", "bfs", "gy")
        assert served.cycles == fresh.cycles
        assert served.traffic.bytes_by_category == fresh.traffic.bytes_by_category


#: Observed-run variants: flat and banked DRAM, plus a 20 kB buffer
#: that spills on ``gy`` (so evict events get written too).
WRITER_VARIANTS = {
    "flat": {},
    "banked": {"detailed_dram": True},
    "tight": {"buffer_bytes": 20000},
}


@pytest.fixture(scope="module")
def context():
    return ExperimentContext()


class TestWrittenBytes:
    """The bytes ``write`` streams from pre-rendered event text are
    ``json.dumps``'s own text of the document they parse to."""

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("variant", sorted(WRITER_VARIANTS))
    def test_every_workload_writes_canonical_json(
        self, context, tmp_path, variant, backend
    ):
        matrix = "gy"
        config = SparsepipeConfig(backend=backend, **WRITER_VARIANTS[variant])
        for workload in context.all_workloads():
            timeline, metrics = TimelineObserver(), MetricsObserver()
            result = SparsepipeSimulator(config).run(
                context.profile(workload, matrix), context.prepared(matrix),
                paper_nnz=SUITE[matrix].paper_nnz,
                observers=(timeline, metrics),
            )
            manifest = build_manifest(
                "sparsepipe", workload, matrix, config, context.reorder,
                context.block_size, registry=metrics.finalize(result),
                seed=0,
            )
            path = timeline.write(tmp_path / f"{workload}.json",
                                  manifest=manifest)
            data = path.read_bytes()
            expected = json.dumps(timeline.to_chrome_trace(manifest),
                                  sort_keys=True, indent=1)
            assert data == expected.encode("ascii"), workload
            events = json.loads(data)["traceEvents"]
            assert len(timeline.events) == sum(
                ev["ph"] != "M" for ev in events), workload


def reference_document(stream, manifest):
    """The trace document of ``stream`` built as dicts, event by event
    — the renderer's reference."""
    events = []
    total, steps = 0.0, 0
    pid, tids = TRACE_PID, TRACK_IDS
    stage_tracks = {"os": "os", "ewise": "ewise", "is": "is",
                    "extra": "extra", "memory": "dram"}
    for batch in stream:
        n = batch.cycles.size
        for j in range(n + 1):
            fill = j == n
            step = FILL_STEP if fill else j
            cycles = batch.fill if fill else batch.cycles[j]
            moved = {} if fill else {
                cat: column[j].item() for cat, column in batch.moved
            }
            stage_cycles = {} if fill else {
                stage: column[j].item() for stage, column in batch.stages
            }
            transfers = [(cat, val) for cat, val in moved.items() if val]
            prefetch = moved.get("csr_eager", 0.0)
            evict = 0.0 if fill else batch.evict[j].item()
            repack = not fill and bool(batch.repack[j])
            start = total
            total = total + float(cycles)
            steps += not fill
            events.append({
                "name": "fill" if fill else f"step {step}",
                "ph": "X", "ts": start, "dur": float(cycles), "pid": pid,
                "tid": tids["pipeline"], "cat": "sim",
                "args": {"step": int(step),
                         "moved_bytes": float(sum(moved.values()))},
            })
            for stage, busy in stage_cycles.items():
                if stage in stage_tracks and busy > 0.0:
                    events.append({
                        "name": stage, "ph": "X", "ts": start,
                        "dur": float(busy), "pid": pid,
                        "tid": tids[stage_tracks[stage]], "cat": "sim",
                        "args": {},
                    })
            if transfers or not fill:
                pending = {}
                for cat, val in transfers:
                    pending[cat] = pending.get(cat, 0.0) + val
                events.append({
                    "name": "dram bytes", "ph": "C", "ts": start,
                    "pid": pid, "tid": tids["dram"], "cat": "traffic",
                    "args": {c: pending.get(c, 0.0)
                             for c in TRAFFIC_CATEGORIES},
                })
            for name, amount, track in (("prefetch", prefetch, "loaders"),
                                        ("evict", evict, "buffer")):
                if amount:
                    events.append({
                        "name": name, "ph": "i", "ts": start, "s": "t",
                        "pid": pid, "tid": tids[track], "cat": "sim",
                        "args": {"bytes": float(amount)},
                    })
            if repack:
                events.append({
                    "name": "repack", "ph": "i", "ts": start, "s": "t",
                    "pid": pid, "tid": tids["buffer"], "cat": "sim",
                    "args": {},
                })
    metadata = {"tsUnit": "cycles", "totalCycles": total, "steps": steps}
    if manifest is not None:
        metadata["manifest"] = manifest.stable_dict()
        metadata["manifestDigest"] = manifest.digest()
    return {
        "traceEvents": TimelineObserver()._metadata_events() + events,
        "displayTimeUnit": "ns",
        "metadata": metadata,
    }


class TestRendererProperty:
    @settings(max_examples=60, deadline=None)
    @given(stream=replay_streams(),
           manifest=st.one_of(st.none(), run_manifests()))
    def test_written_text_matches_json_dumps(self, stream, manifest):
        timeline = TimelineObserver()
        # Synthetic streams fold infinities of both signs into NaN.
        with np.errstate(invalid="ignore", over="ignore"):
            for batch in stream:
                timeline.on_replay(batch)
        with tempfile.TemporaryDirectory() as tmp:
            path = timeline.write(Path(tmp) / "trace.json",
                                  manifest=manifest)
            text = path.read_text(encoding="ascii")
        expected = reference_document(stream, manifest)
        assert text == json.dumps(expected, sort_keys=True, indent=1)
        assert len(timeline.events) == len(expected["traceEvents"]) - 9
