"""Tests for the experiment drivers on a reduced (workload x matrix)
subset — fast enough for the unit suite, exercising every figure's
logic end to end."""

import json
from pathlib import Path

import pytest

from repro.arch.config import SparsepipeConfig
from repro.errors import ConfigError
from repro.experiments import ExperimentContext
from repro.experiments import (
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    fig19,
    fig20,
    fig21,
    fig22,
    fig23,
    table1,
)
from repro.experiments.report import format_bar_series, format_table
from repro.experiments.runner import ARCHITECTURES
from repro.matrices.suite import suite_names
from repro.testing import digest
from repro.workloads.registry import workload_names

#: Committed digests of the default-config grid, one per
#: ``arch/workload/matrix`` (perfbench's ``grid`` family).
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


#: The headline numbers EXPERIMENTS.md prints, to the decimals it
#: prints them: Fig 14's per-application geomean speedups over the
#: ideal accelerator and its overall max, and Table I's measured
#: reuse-window (max%, avg%) per matrix.
FIG14_GEOMEANS = {
    "pr": 1.93, "kcore": 1.52, "bfs": 1.52, "sssp": 1.72, "kpp": 1.76,
    "knn": 1.57, "label": 1.69, "gcn": 2.12, "gmres": 1.64, "cg": 1.13,
    "bgs": 1.05,
}
FIG14_MAX = 2.26
TABLE1_MEASURED = {
    "ca": (47.3, 29.3), "gy": (2.7, 2.3), "g2": (4.9, 2.5),
    "co": (8.4, 5.8), "bu": (92.0, 46.1), "wi": (43.0, 22.3),
    "ad": (7.2, 4.7), "ro": (1.6, 1.0), "eu": (3.3, 2.2),
}


@pytest.fixture(scope="module")
def small_context() -> ExperimentContext:
    return ExperimentContext(
        workloads=("pr", "sssp", "cg"),
        matrices=("gy", "ro"),
    )


class TestRunner:
    def test_results_are_cached(self, small_context):
        a = small_context.simulate("sparsepipe", "pr", "gy")
        b = small_context.simulate("sparsepipe", "pr", "gy")
        assert a is b

    def test_equal_valued_configs_share_one_cache_entry(self, small_context):
        # Regression: keying on id(config) made every equal-valued
        # config instance a fresh cache entry (and, worse, let a
        # recycled id() serve a stale result).
        from repro.arch import SparsepipeConfig

        a = small_context.simulate(
            "ideal", "pr", "gy", config=SparsepipeConfig(subtensor_cols=128)
        )
        b = small_context.simulate(
            "ideal", "pr", "gy", config=SparsepipeConfig(subtensor_cols=128)
        )
        assert a is b

    def test_distinct_configs_get_distinct_entries(self, small_context):
        from repro.arch import SparsepipeConfig

        a = small_context.simulate(
            "sparsepipe", "pr", "gy", config=SparsepipeConfig(subtensor_cols=128)
        )
        b = small_context.simulate(
            "sparsepipe", "pr", "gy", config=SparsepipeConfig(subtensor_cols=64)
        )
        assert a is not b
        assert a.cycles != b.cycles

    def test_unknown_architecture(self, small_context):
        with pytest.raises(ConfigError):
            small_context.simulate("tpu", "pr", "gy")

    def test_speedup_positive(self, small_context):
        assert small_context.speedup("pr", "gy", over="ideal") > 0

    def test_subset_respected(self, small_context):
        assert small_context.all_workloads() == ("pr", "sssp", "cg")
        assert small_context.all_matrices() == ("gy", "ro")

    def test_prepared_variants_distinct(self, small_context):
        a = small_context.prepared("gy", reorder=None, block_size=None)
        b = small_context.prepared("gy", reorder="vanilla", block_size=256)
        assert a is not b
        assert a.blocked is None and b.blocked is not None


class TestDrivers:
    def test_table1_rows(self):
        rows = table1.run()
        assert len(rows) == 9
        assert all(0 <= r.max_pct <= 100 for r in rows)

    def test_fig14(self, small_context):
        rows = fig14.run(small_context)
        assert {r.workload for r in rows} == {"pr", "sssp", "cg"}
        for r in rows:
            assert set(r.speedups) == {"gy", "ro"}
            assert r.geomean > 0.5

    def test_fig15_uses_full_pairs(self):
        # Fig 15's pairs are fixed by the paper regardless of subset.
        ctx = ExperimentContext(matrices=("gy",))
        series = fig15.run(ctx)
        assert [(s.workload, s.matrix) for s in series] == [
            ("sssp", "bu"), ("knn", "eu"), ("kcore", "eu"), ("sssp", "wi"),
        ]

    def test_fig16(self, small_context):
        rows = fig16.run(small_context)
        for r in rows:
            assert r.iso_gpu_geomean > r.iso_cpu_geomean  # bandwidth gap

    def test_fig17_restricted_to_gpu_workloads(self, small_context):
        rows = fig17.run(small_context)
        assert {r.workload for r in rows} == {"bfs", "kcore", "pr", "sssp"}

    def test_fig18_upper_bound(self, small_context):
        rows = fig18.run(small_context)
        for r in rows:
            for v in r.fraction_of_oracle.values():
                assert v <= 1.001

    def test_fig19_variants(self, small_context):
        rows = fig19.run(small_context)
        assert [r.variant for r in rows] == ["none", "blocked", "reorder", "both"]

    def test_fig20_storage(self, small_context):
        rows = fig20.run_storage(small_context)
        assert all(0 < r.ratio_reordered < 1 for r in rows)

    def test_fig21_utilization_bounds(self, small_context):
        rows = fig21.run(small_context)
        for r in rows:
            for v in r.utilization.values():
                assert 0 < v <= 1.0

    def test_fig22_systems(self, small_context):
        rows = fig22.run(small_context)
        assert [r.system for r in rows] == ["cpu", "gpu", "sparsepipe"]

    def test_fig23_relative_energy(self, small_context):
        rows = fig23.run(small_context)
        for r in rows:
            assert r.relative_total > 0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), (10, 3.0)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_format_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            format_table(["a"], [(1, 2)])

    def test_format_bar_series(self):
        text = format_bar_series(["x", "yy"], [1.0, 2.0])
        assert "#" in text
        assert "yy" in text

    def test_format_bar_series_rejects_mismatch(self):
        with pytest.raises(ValueError):
            format_bar_series(["x"], [1.0, 2.0])

    def test_format_bar_series_zero_peak(self):
        text = format_bar_series(["x"], [0.0])
        assert "0.000" in text


class TestExport:
    def test_export_writes_complete_document(self, small_context, tmp_path):
        import json

        from repro.experiments.export import export_all

        path = export_all(tmp_path / "results.json", small_context)
        doc = json.loads(path.read_text())
        expected_sections = {
            "table1", "fig14", "fig15", "fig16", "fig17", "fig18",
            "fig19", "fig20a", "fig20b", "fig21", "fig22", "fig23",
            "summary", "metrics", "manifests",
        }
        assert set(doc) == expected_sections
        assert len(doc["table1"]) == 9
        assert all("claim" in c for c in doc["summary"])
        # Observability sections: the one-schema registry and one
        # provenance manifest per simulated point.
        assert doc["metrics"]["sim.runs"]["value"] >= 1
        assert doc["manifests"]
        assert all("digest" in m for m in doc["manifests"])

    def test_export_round_trips_numeric_types(self, small_context, tmp_path):
        import json

        from repro.experiments.export import export_all

        path = export_all(tmp_path / "r.json", small_context)
        doc = json.loads(path.read_text())
        for row in doc["fig14"]:
            assert isinstance(row["geomean"], float)


class TestSummary:
    def test_every_paper_claim_holds(self, full_context):
        from repro.experiments import summary

        claims = summary.run(full_context)
        assert len(claims) >= 10
        broken = [
            f"{c.claim}: paper {c.paper}, measured {c.measured}"
            for c in claims if not c.holds
        ]
        assert not broken, "claims that no longer hold:\n" + "\n".join(broken)

    def test_every_grid_point_matches_its_digest(self, full_context):
        """All 11 x 9 x 6 default-config points, every engine built
        through the architecture table, against the committed digests."""
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["grid"]
        points = [(a, w, m) for a in ARCHITECTURES
                  for w in workload_names() for m in suite_names()]
        results = full_context.simulate_many(points)
        assert len(points) == len(expected) == 594
        mismatched = [
            "/".join(p) for p, r in zip(points, results)
            if digest(r.to_dict()) != expected["/".join(p)]
        ]
        assert mismatched == []

    def test_reference_backend_matches_every_sparsepipe_digest(
            self, full_context):
        """All 99 ``sparsepipe`` points on the reference simulator, each
        whole result digested: an unobserved point runs with
        ``observers=()`` on either backend."""
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["grid"]
        points = [("sparsepipe", w, m)
                  for w in workload_names() for m in suite_names()]
        results = full_context.simulate_many(
            points, config=SparsepipeConfig(backend="reference"))
        assert len(points) == 99
        mismatched = [
            "/".join(p) for p, r in zip(points, results)
            if digest(r.to_dict()) != expected["/".join(p)]
        ]
        assert mismatched == []

    def test_fig14_headline_numbers(self, full_context):
        """Each number as EXPERIMENTS.md prints it; a drift names the
        number it moved."""
        rows = fig14.run(full_context)
        drift = [
            f"Fig 14 {r.workload} geomean {FIG14_GEOMEANS[r.workload]:.2f}"
            f" → {r.geomean:.2f}"
            for r in rows
            if f"{r.geomean:.2f}" != f"{FIG14_GEOMEANS[r.workload]:.2f}"
        ]
        overall = max(r.max for r in rows)
        if f"{overall:.2f}" != f"{FIG14_MAX:.2f}":
            drift.append(f"Fig 14 max {FIG14_MAX:.2f} → {overall:.2f}")
        assert sorted(r.workload for r in rows) == sorted(FIG14_GEOMEANS)
        assert not drift, "\n".join(drift)

    def test_table1_headline_numbers(self):
        drift = []
        rows = table1.run()
        for r in rows:
            for label, value, stated in (
                    ("max%", r.max_pct, TABLE1_MEASURED[r.matrix][0]),
                    ("avg%", r.avg_pct, TABLE1_MEASURED[r.matrix][1])):
                if f"{value:.1f}" != f"{stated:.1f}":
                    drift.append(
                        f"Table I {r.matrix} {label} {stated:.1f} → {value:.1f}")
        assert sorted(r.matrix for r in rows) == sorted(TABLE1_MEASURED)
        assert not drift, "\n".join(drift)

    def test_summary_main_prints_verdicts(self, small_context, capsys):
        from repro.experiments import summary

        summary.main(small_context)
        out = capsys.readouterr().out
        assert "paper" in out and "measured" in out
        assert "claims hold" in out
