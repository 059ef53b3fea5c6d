"""The differential oracle: static bounds vs the simulator.

For every golden workload on both backends, build a
:class:`~repro.analysis.bounds.StaticReport` from structure alone and
check the simulated :class:`~repro.arch.stats.SimResult` against it —
every per-category traffic bound, the total, and the peak buffer
occupancy must hold (SP702/SP703 empty), and the static OEI verdict
must agree with what the simulator actually did (the profile's
``has_oei``). The vector/writeback bounds are additionally asserted
*tight* on constant-activity workloads, so a silently loosened
analyzer fails too.

A violation in either direction is a real bug: the analyzer's
soundness argument (docstring of :mod:`repro.analysis.bounds`) or the
simulator's accounting is wrong.
"""

from __future__ import annotations

import pytest

from repro.analysis.bounds import (
    ABS_TOLERANCE_BYTES,
    REL_TOLERANCE,
    static_report,
    traffic_bounds,
)
from repro.arch.config import SparsepipeConfig
from repro.arch.loaders import LoadPlan
from repro.arch.simulator import SparsepipeSimulator
from repro.arch.stats import TRAFFIC_CATEGORIES
from repro.experiments.runner import ExperimentContext
from repro.matrices.suite import SUITE
from repro.workloads.registry import get_workload, workload_names

MATRIX = "gy"
WORKLOADS = tuple(workload_names())
BACKENDS = ("vectorized", "reference")


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(workloads=WORKLOADS, matrices=(MATRIX,))


@pytest.fixture(scope="module")
def prep(context):
    return context.prepared(MATRIX)


def _point(context, prep, workload: str, backend: str):
    config = SparsepipeConfig(backend=backend)
    profile = context.profile(workload, MATRIX)
    plan = LoadPlan.from_matrix(prep, config.subtensor_cols)
    capacity = config.buffer_capacity(plan.total_nnz, SUITE[MATRIX].paper_nnz)
    report = static_report(
        get_workload(workload).build_graph(), profile, plan, config,
        capacity, matrix=MATRIX,
    )
    result = SparsepipeSimulator(config).run(
        profile, prep, paper_nnz=SUITE[MATRIX].paper_nnz, observers=()
    )
    return profile, report, result


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_holds(context, prep, workload, backend):
    profile, report, result = _point(context, prep, workload, backend)

    oracle = report.check_against(result)
    assert oracle.ok, oracle.format()
    assert not oracle.has("SP702") and not oracle.has("SP703")

    # Static legality agrees with what the simulator actually ran.
    assert report.oei.fusible == profile.has_oei
    # And the graph-level absint diagnostics are clean.
    assert report.diagnostics.ok, report.diagnostics.format()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_category_bounded(context, prep, workload):
    _, report, result = _point(context, prep, workload, "vectorized")
    for cat in TRAFFIC_CATEGORIES:
        actual = result.traffic.bytes_by_category[cat]
        bound = report.bounds.by_category[cat]
        assert actual <= bound * (1.0 + REL_TOLERANCE) + ABS_TOLERANCE_BYTES, (
            cat, actual, bound,
        )


def test_bounds_are_tight_where_claimed(context, prep):
    """cg/bgs never pair, have activity 1.0 throughout — the stream
    closed form must match the simulator to within float fold order."""
    for workload in ("cg", "bgs"):
        _, report, result = _point(context, prep, workload, "vectorized")
        assert result.traffic.total_bytes == pytest.approx(
            report.bounds.total_bytes, rel=1e-9
        )
        assert report.bounds.n_pairs == 0
        assert report.bounds.buffer_peak_bytes == 0.0
        assert result.buffer_peak_bytes == 0.0


def test_pair_counts_match_simulator_interleaving(context, prep):
    """The bound mirrors the simulator's pair/stream loop: an OEI
    profile with odd n_iterations ends on one trailing stream."""
    for workload in WORKLOADS:
        profile, report, _ = _point(context, prep, workload, "vectorized")
        n = profile.n_iterations
        if profile.has_oei:
            assert report.bounds.n_pairs == n // 2
            assert report.bounds.n_streams == n % 2
        else:
            assert report.bounds.n_pairs == 0
            assert report.bounds.n_streams == n


def test_violation_is_detected_not_swallowed(context, prep):
    """Corrupt a simulated result and the oracle must say SP702/SP703
    — guards against a vacuously-true check."""
    _, report, result = _point(context, prep, "pr", "vectorized")
    result.traffic.bytes_by_category["csc"] += 1e9
    oracle = report.check_against(result)
    assert oracle.has("SP702")

    _, report2, result2 = _point(context, prep, "pr", "vectorized")
    result2.buffer_peak_bytes = report2.bounds.buffer_peak_bytes * 2 + 10
    assert report2.check_against(result2).has("SP703")


def test_eager_toggle_shifts_bound_between_categories(context, prep):
    """eager_is=False must drop the csr_eager budget entirely (the
    bound mirrors the config branch, not a worst case over configs)."""
    profile = context.profile("pr", MATRIX)
    base = SparsepipeConfig(backend="vectorized")
    lazy = SparsepipeConfig(backend="vectorized", eager_is=False)
    plan = LoadPlan.from_matrix(prep, base.subtensor_cols)
    cap = base.buffer_capacity(plan.total_nnz, SUITE[MATRIX].paper_nnz)
    eager_b = traffic_bounds(profile, plan, base, cap)
    lazy_b = traffic_bounds(profile, plan, lazy, cap)
    assert eager_b.by_category["csr_eager"] > 0.0
    assert lazy_b.by_category["csr_eager"] == 0.0
    assert lazy_b.by_category["csc"] == eager_b.by_category["csc"]


def test_report_to_dict_is_json_plain(context, prep):
    import json

    _, report, _ = _point(context, prep, "gcn", "vectorized")
    doc = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert doc["workload"] == "gcn"
    assert doc["oei"]["fusible"] is True
    assert doc["bounds"]["total_bytes"] > 0
    assert all(e["nnz_hi"] is None or e["nnz_hi"] >= 0
               for e in doc["edges"].values())
