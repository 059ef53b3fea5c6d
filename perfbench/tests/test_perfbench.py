"""Unit tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for entry in (str(BENCH), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import spans  # noqa: E402
import verify  # noqa: E402


def span(name, start, end, parent=-1, tag=None, value=None):
    return [name, tag, start, end, parent, None, value]


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_children():
    recs = [
        span("experiments.context", 0.0, 10.0),
        span("graphblas.mxv", 1.0, 3.0, parent=0),
        span("graphblas.vxm", 4.0, 8.0, parent=0),
        span("graphblas.matrix", 5.0, 6.0, parent=2),
    ]
    assert spans.self_times(recs) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_uses_union_of_children_clipped_to_parent():
    recs = [
        span("a", 0.0, 10.0),
        span("b", 2.0, 6.0, parent=0),
        span("c", 5.0, 7.0, parent=0),   # overlaps b: union is [2, 7]
        span("d", 9.0, 12.0, parent=0),  # runs past the parent: clipped
    ]
    assert spans.self_times(recs)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_times_partition_root_durations():
    rng = random.Random(7)
    recs, stack, t = [], [], 0.0
    for _ in range(200):
        if stack and rng.random() < 0.45:
            recs[stack.pop()][3] = t
        else:
            recs.append(span("x", t, None, parent=stack[-1] if stack else -1))
            stack.append(len(recs) - 1)
        t += rng.random()
    while stack:
        recs[stack.pop()][3] = t
        t += 1.0
    roots = sum(r[3] - r[2] for r in recs if r[4] < 0)
    assert sum(spans.self_times(recs)) == pytest.approx(roots)


def test_layer_metrics_coverage_counts_and_ratios():
    recs = [
        span("experiments.context", 0.0, 9.0),
        span("workloads.profile", 1.0, 5.0, parent=0, tag="gcn", value=30),
        span("workloads.profile", 1.5, 4.5, parent=1, tag="gcn", value=30),
        span("graphblas.mxv", 2.0, 3.0, parent=2),
        span("engine.cache.get", 5.0, 6.0, parent=0, value=1),
        span("engine.cache.get", 6.0, 7.0, parent=0, value=0),
        span("engine.run", 7.0, 8.5, parent=0, tag="ideal"),
    ]
    out = spans.layer_metrics(recs, traced_wall_s=10.0, store_mb=2.5)
    assert out["experiments.self_s"] == pytest.approx(1.5)
    assert out["workloads.profile_s"] == pytest.approx(3.0)
    # The nested (override -> base) profile counts once, inclusively.
    assert out["workloads.profiles"] == 1
    assert out["workloads.iterations"] == 30
    assert out["workloads.profile_s.gcn"] == pytest.approx(4.0)
    assert out["graphblas.mxv_calls"] == 1
    assert out["engine.cache.gets"] == 2
    assert out["engine.cache.hit_ratio"] == 0.5
    assert out["engine.run_s.ideal"] == pytest.approx(1.5)
    assert out["engine.cache.store_mb"] == 2.5
    assert out["trace.coverage"] == pytest.approx(0.9)
    assert out["trace.unattributed_s"] == pytest.approx(1.0)
    assert list(out) == [n for n, _ in spans.LAYER_METRICS]


# ----------------------------------------------------------------------
# Tracer and wrapper installation
# ----------------------------------------------------------------------
def test_tracer_records_only_while_active_with_parents_and_ops():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x + 1, "inner", value=lambda a, r: r)
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer",
                        op=lambda a, k, inherited: f"{inherited}:{a[0]}")
    assert outer(1) == 4 and tracer.spans == []
    tracer.active, tracer.op = True, "seg"
    assert outer(1) == 4
    (o_name, _, o_start, o_end, o_parent, o_op, _), i_rec = tracer.spans
    assert (o_name, o_parent, o_op) == ("outer", -1, "seg:1")
    assert i_rec[spans.PARENT] == 0 and i_rec[spans.OP] == "seg:1"
    assert i_rec[spans.VALUE] == 2
    assert o_start < i_rec[spans.START] < i_rec[spans.END] < o_end


def test_installation_rebinds_imported_names_and_restores_them():
    def original():
        return "x"

    defining = types.ModuleType("defining")
    importer = types.ModuleType("importer")
    defining.f = importer.g = original

    class Owner:
        def method(self):
            return 1

        @classmethod
        def build(cls):
            return cls

    tracer = spans.Tracer()
    tracer.active = True
    inst = spans.Installation()
    inst.everywhere(original, tracer.wrap(original, "f"), [defining, importer])
    inst.method(Owner, "method", tracer, "m")
    inst.method(Owner, "build", tracer, "b")
    assert importer.g() == "x" and Owner().method() == 1 and Owner.build() is Owner
    assert [s[spans.NAME] for s in tracer.spans] == ["f", "m", "b"]
    inst.remove()
    assert defining.f is original and importer.g is original
    assert "build" in Owner.__dict__ and Owner.build() is Owner
    assert len(tracer.spans) == 3


# ----------------------------------------------------------------------
# Digest checking
# ----------------------------------------------------------------------
def test_mismatches_flag_changed_and_unknown_operations():
    expected = {"a": "1", "b": "2"}
    assert verify.mismatches(expected, {"a": "1", "b": "2"}) == []
    assert verify.mismatches(expected, {"a": "1", "b": "3", "c": "4"}) == ["b", "c"]


def test_self_test_fires_only_for_a_real_corruption():
    expected = {"a": "1", "b": "2"}
    actual = dict(expected)
    assert verify.self_test(expected, actual, "a", "corrupted")
    # A "corruption" that leaves the digest unchanged is vacuous.
    assert not verify.self_test(expected, actual, "a", "1")
    assert not verify.self_test(expected, actual, "a", "corrupted",
                                golden_fired=False)


def test_trace_digest_ignores_git_revision_only():
    a = b'{"git_rev": "abc1234", "manifestDigest": "00ff", "x": 1}'
    b = b'{"git_rev": null, "manifestDigest": "11ee", "x": 1}'
    c = b'{"git_rev": null, "manifestDigest": "11ee", "x": 2}'
    assert verify.trace_digest(a, "m") == verify.trace_digest(b, "m")
    assert verify.trace_digest(b, "m") != verify.trace_digest(c, "m")
    assert verify.trace_digest(b, "m") != verify.trace_digest(b, "n")


def test_golden_diff_detects_a_corrupted_result():
    golden = json.loads((verify.GOLDEN_DIR / "pr.json").read_text())
    doc, digest = golden["result"], golden["metrics_digest"]
    assert verify.golden_diff("pr", doc, digest) == []
    corrupted = dict(doc, cycles=doc["cycles"] + 1.0)
    assert any("cycles" in line
               for line in verify.golden_diff("pr", corrupted, digest))
    assert verify.golden_diff("pr", doc, "0" * 16)


def test_expectations_cover_every_operation():
    import work

    expected = verify.load_expected()
    assert set(expected["grid"]) == {work.point_id(p) for p in work.grid_points()}
    assert len(expected["design"]) == 32 * len(work.design_points()) == 2816
    assert len(expected["captures"]) == len(work.captures()) == 66


# ----------------------------------------------------------------------
# Seeds order work, never choose it
# ----------------------------------------------------------------------
#: The operations each job will run, in the order it runs them.
VISIT_ORDER = {
    "cold_grid": lambda job: list(job.points),
    "design_sweep": lambda job: [
        (label, p) for label, _config, points in job.plan for p in points],
    "trace_capture": lambda job: list(job.plan),
    "warm_grid": lambda job: [p for order in job.orders for p in order],
}


@pytest.mark.parametrize("workload", sorted(VISIT_ORDER))
def test_seed_sets_order_not_work(tmp_path, workload):
    import work

    def order(seed):
        job = work.JOBS[workload](seed, str(tmp_path / "store"), tmp_path)
        return VISIT_ORDER[workload](job)

    one, again, two = order(1), order(1), order(2)
    assert one == again
    assert one != two
    assert sorted(one) == sorted(two)


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        spans.LAYER_METRICS)
