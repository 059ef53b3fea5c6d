"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main
from repro.formats.matrix_market import write_matrix_market
from tests.conftest import random_coo

#: ``repro list``'s architecture section, verbatim: names, order and
#: descriptions.
ARCHITECTURES_SECTION = """\
architectures:
  sparsepipe   the Sparsepipe OEI pipeline simulator (Sections IV-V)
  ideal        idealized intra-operator accelerator, always at roofline
  oracle       perfect OEI executor, matrix streamed once per pair
  cpu          ALP/GraphBLAS multicore framework (AMD 5800X3D class)
  gpu          GraphBLAST/Gunrock GPU framework (RTX 4070 class)
  software_oei CPU running the OEI pair schedule in software (Sec II-B/VIII)

"""


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(["simulate", "-w", "pr", "-m", "gy"])
        assert args.workload == "pr" and args.matrix == "gy"

    def test_experiment_args(self):
        args = build_parser().parse_args(["experiment", "table1", "fig14"])
        assert args.ids == ["table1", "fig14"]


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pr" in out and "sssp" in out
        assert "ca" in out and "eu" in out
        section = out[out.index("architectures:"):out.index("experiments:")]
        assert section == ARCHITECTURES_SECTION

    def test_footprint(self, capsys):
        assert main(["footprint"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "bu" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "-w", "sssp", "-m", "gy"]) == 0
        out = capsys.readouterr().out
        assert "sparsepipe" in out and "oracle" in out

    def test_simulate_single_arch(self, capsys):
        assert main(["simulate", "-w", "pr", "-m", "gy", "-a", "ideal"]) == 0
        out = capsys.readouterr().out
        assert "ideal" in out and "oracle" not in out

    def test_simulate_skipped_point_prints_dashes_and_fails(self, capsys):
        argv = ["simulate", "-w", "pr", "-m", "nosuch", "-a", "ideal", "cpu",
                "--on-error", "skip"]
        assert main(argv) == 1
        rows = capsys.readouterr().out.splitlines()[-2:]
        assert [row.split() for row in rows] == [
            ["ideal", "-", "-", "-", "-"], ["cpu", "-", "-", "-", "-"]]

    def test_list_includes_software_oei(self, capsys):
        assert main(["list"]) == 0
        assert "software_oei" in capsys.readouterr().out

    def test_simulate_software_oei(self, capsys):
        assert main(["simulate", "-w", "bfs", "-m", "gy",
                     "-a", "software_oei", "cpu"]) == 0
        out = capsys.readouterr().out
        assert "software_oei" in out and "cpu" in out

    def test_analyze(self, tmp_path, capsys):
        path = tmp_path / "m.mtx"
        write_matrix_market(random_coo(2, n=30), path)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OEI reuse window" in out

    def test_unknown_experiment_id(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out


class TestLintCommands:
    def test_lint_all_workloads(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "pr: ok" in out
        assert "0 error(s)" in out

    def test_lint_named_workload(self, capsys):
        assert main(["lint", "cg"]) == 0
        out = capsys.readouterr().out
        assert "SP203" in out  # cg's reduction-scalar warning surfaces

    def test_lint_unknown_workload(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["lint", "nope"])

    def test_selfcheck(self, capsys):
        assert main(["selfcheck"]) == 0
        assert "ok" in capsys.readouterr().out


class TestExportCommand:
    def test_export_writes_json(self, tmp_path, monkeypatch, capsys):
        import repro.__main__ as cli
        from repro.experiments.runner import ExperimentContext

        # Shrink the sweep so the CLI test stays fast.
        monkeypatch.setattr(
            cli, "ExperimentContext",
            lambda **kw: ExperimentContext(
                workloads=("pr",), matrices=("gy",), **kw
            ),
        )
        out = tmp_path / "results.json"
        assert main(["export", str(out)]) == 0
        assert out.exists()
        import json

        doc = json.loads(out.read_text())
        assert "summary" in doc and "table1" in doc


class TestTraceCommand:
    def test_trace_args(self):
        args = build_parser().parse_args(["trace", "bfs", "-o", "t.json"])
        assert args.workload == "bfs" and args.out == "t.json"
        assert args.matrix == "gy" and args.arch == "sparsepipe"

    def test_trace_writes_valid_trace_and_manifest(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        assert main(["trace", "bfs", "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "cycles" in stdout and "perfetto" in stdout
        doc = json.loads(out.read_text())
        validate_chrome_trace(doc)
        manifest = json.loads((tmp_path / "trace.manifest.json").read_text())
        assert manifest["workload"] == "bfs"
        assert manifest["digest"] == doc["metadata"]["manifestDigest"]

    def test_trace_rejects_non_observable_arch(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["trace", "bfs", "-a", "cpu"])


class TestDiagnosticFormats:
    """--format json round-trips; --baseline budgets fail warnings too."""

    def test_lint_json_round_trips(self, capsys):
        import json

        assert main(["lint", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_errors"] == 0
        assert doc["counts"].get("SP203", 0) > 0
        # Each finding is the Diagnostic.as_dict shape.
        cg = doc["workloads"]["cg"]
        assert all({"code", "severity", "message"} <= set(d) for d in cg)

    def test_selfcheck_json_round_trips(self, capsys):
        import json

        assert main(["selfcheck", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_errors"] == 0 and doc["diagnostics"] == []

    def test_warn_only_lint_exits_zero(self, capsys):
        # cg/bgs only carry SP203 warnings; warnings never fail lint.
        assert main(["lint", "cg", "bgs"]) == 0

    def test_baseline_within_budget_exits_zero(self, capsys):
        from pathlib import Path

        baseline = str(
            Path(__file__).parent.parent / "diagnostics_baseline.json"
        )
        assert main(["lint", "--baseline", baseline]) == 0
        assert main(["selfcheck", "--baseline", baseline]) == 0

    def test_baseline_over_budget_fails_even_for_warnings(
        self, tmp_path, capsys
    ):
        import json

        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps({"lint": {"SP203": 0}}))
        assert main(["lint", "cg", "--baseline", str(baseline)]) == 1
        err = capsys.readouterr().err
        assert "baseline exceeded" in err and "SP203" in err

    def test_repo_baseline_matches_reality(self, capsys):
        """The committed baseline must equal today's counts exactly —
        stale budgets would let new findings hide under old ones."""
        import json
        from collections import Counter
        from pathlib import Path

        from repro.workloads.registry import lint_registry

        baseline = Path(__file__).parent.parent / "diagnostics_baseline.json"
        committed = json.loads(baseline.read_text(encoding="utf-8"))
        actual = Counter(
            c for r in lint_registry(None).values() for c in r.codes()
        )
        assert committed["lint"] == dict(actual)
        assert committed["selfcheck"] == {}


class TestCheckCommand:
    def test_check_args_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.workloads == [] and args.matrix == "gy"
        assert args.backend == "both" and args.format == "text"

    @pytest.mark.parametrize("argv", [
        ["check", "--jobs", "2"],
        ["check", "--on-error", "skip"],
        ["autotune", "-w", "pr", "-m", "gy", "--on-error", "skip"],
    ])
    def test_unread_context_flags_are_rejected(self, argv):
        """``check`` runs no pool and neither command a per-point sweep,
        so they do not take ``--jobs`` / ``--on-error``."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_check_single_point(self, capsys):
        assert main(["check", "pr", "--backend", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "pr" in out and "ok" in out
        assert "1 point(s) checked: 0 violation(s)" in out

    def test_check_json_round_trips(self, capsys):
        import json

        assert main(["check", "cg", "gcn", "--backend", "reference",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_errors"] == 0
        points = {p["workload"]: p for p in doc["points"]}
        assert points["cg"]["oei"]["fusible"] is False
        assert points["gcn"]["oei"]["fusible"] is True
        for p in doc["points"]:
            assert p["oracle_ok"] is True
            assert (p["simulated"]["total_bytes"]
                    <= p["bounds"]["total_bytes"] * (1 + 1e-9) + 1.0)

    def test_error_reports_exit_nonzero(self, monkeypatch, capsys):
        from repro.analysis.diagnostics import DiagnosticReport
        from repro.workloads import registry as wreg

        bad = DiagnosticReport(subject="graph fake")
        bad.add("SP202", "no contraction anywhere")
        monkeypatch.setattr(wreg, "lint_registry",
                            lambda names=None: {"fake": bad})
        assert main(["lint"]) == 1

        import importlib

        # The package re-exports the function under the module's own
        # name, so import the submodule explicitly before patching.
        sc = importlib.import_module("repro.analysis.selfcheck")
        broken = DiagnosticReport(subject="selfcheck fake")
        broken.add("SP911", "global mutated outside initializer")
        monkeypatch.setattr(sc, "selfcheck", lambda: broken)
        assert main(["selfcheck"]) == 1
