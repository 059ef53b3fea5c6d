"""Golden tests for the static IR verifier (repro.analysis).

Each deliberately broken graph in the corpus must produce its exact
diagnostic code — the codes are a stable public surface (docs/analysis
.md catalogues them), so these are change-detector tests on purpose.
"""

import warnings

import pytest

from repro.analysis import CODES, DiagnosticReport, DiagnosticWarning
from repro.analysis.passes import (
    lint_workload,
    verify_graph,
    verify_program,
    verify_schedule,
)
from repro.dataflow.compiler import compile_program
from repro.dataflow.graph import DataflowGraph, OpKind, OpNode, TensorKind
from repro.dataflow.program import EWiseInstr, OEIProgram, Operand, OperandKind
from repro.errors import (
    CompileError,
    ConfigError,
    Diagnostic,
    ScheduleError,
    Severity,
)
from repro.oei.validate import replay_schedule, validate_schedule
from repro.workloads.registry import WORKLOADS, lint_registry


def clean_graph() -> DataflowGraph:
    """A minimal legal OEI loop body (PageRank-shaped)."""
    g = DataflowGraph("clean")
    link = g.matrix("L")
    pr = g.vector("pr_next")
    y = g.vector("y")
    scaled = g.vector("scaled")
    new = g.vector("pr_new")
    g.scalar("teleport")
    g.vxm("spmv", pr, link, y, "mul_add")
    g.ewise("damp", "times", [y], scaled, immediate=0.85)
    g.ewise("teleport_add", "plus", [scaled], new, scalar_operand="teleport")
    g.carry(new, pr)
    return g


class TestVerifyGraphClean:
    def test_clean_graph_is_silent(self):
        report = verify_graph(clean_graph())
        assert report.ok
        assert len(report) == 0

    def test_report_format_mentions_subject(self):
        report = verify_graph(clean_graph())
        assert "ok" in report.format()


class TestStructuralPasses:
    def test_sp101_rank_mismatch(self):
        g = DataflowGraph("bad")
        u = g.vector("u")
        v = g.vector("v")
        y = g.vector("y")
        # vxm over two vectors: no matrix operand.
        g.vxm("spmv", u, v, y, "mul_add")
        report = verify_graph(g)
        assert report.has("SP101")

    def test_sp101_reduce_to_vector(self):
        g = DataflowGraph("bad")
        u = g.vector("u")
        out = g.vector("out")
        g.add_op(OpNode("fold", OpKind.REDUCE, (u,), out, op_name="plus"))
        report = verify_graph(g)
        assert report.has("SP101")

    def test_sp102_unknown_semiring(self):
        g = clean_graph()
        g.vxm("spmv2", g.tensors["pr_next"], g.tensors["L"],
              g.vector("y2"), "bogus_semiring")
        assert verify_graph(g).has("SP102")

    def test_sp103_unknown_ewise_op(self):
        g = clean_graph()
        g.ewise("mystery", "frobnicate", [g.tensors["y"]], g.vector("z"))
        assert verify_graph(g).has("SP103")

    def test_sp104_unknown_monoid(self):
        g = clean_graph()
        g.reduce("fold", g.tensors["y"], g.scalar("s"), "bogus_monoid")
        assert verify_graph(g).has("SP104")

    def test_sp105_multiply_produced(self):
        g = clean_graph()
        g.ewise("damp2", "times", [g.tensors["y"]], g.tensors["scaled"],
                immediate=0.5)
        assert verify_graph(g).has("SP105")

    def test_sp106_dangling_tensor_is_warning(self):
        g = clean_graph()
        g.vector("orphan")
        report = verify_graph(g)
        assert report.has("SP106")
        assert report.ok  # warning severity: still compiles

    def test_sp107_intra_iteration_cycle(self):
        g = DataflowGraph("bad")
        link = g.matrix("L")
        a = g.vector("a")
        b = g.vector("b")
        y = g.vector("y")
        g.vxm("spmv", a, link, y, "mul_add")
        g.ewise("fwd", "times", [a], b, immediate=2.0)
        g.ewise("bwd", "times", [b], a, immediate=0.5)
        assert verify_graph(g).has("SP107")

    def test_sp108_carry_from_unproduced(self):
        g = clean_graph()
        g.carry(g.vector("ghost"), g.vector("ghost_next"))
        assert verify_graph(g).has("SP108")

    def test_sp108_carry_kind_mismatch(self):
        g = clean_graph()
        s = g.scalar("alpha_next")
        g.loop_carried[g.tensors["pr_new"].name] = s.name
        assert verify_graph(g).has("SP108")

    def test_sp108_delay_chain_is_legal(self):
        # gmres-style delay chain: v -> prev1 -> prev2; only v is
        # produced, prev1 is legal because it is itself a carry target.
        g = clean_graph()
        prev1 = g.vector("prev1")
        prev2 = g.vector("prev2")
        g.carry(g.tensors["pr_new"], prev1)
        g.carry(prev1, prev2)
        report = verify_graph(g)
        assert not report.has("SP108")

    def test_sp109_operand_overflow(self):
        g = clean_graph()
        g.ewise("fma", "plus", [g.tensors["y"], g.tensors["scaled"]],
                g.vector("z"), scalar_operand="teleport")
        assert verify_graph(g).has("SP109")

    def test_sp110_constant_tensor_written(self):
        g = clean_graph()
        frozen = g.tensor("frozen", TensorKind.VECTOR, constant=True)
        g.ewise("clobber", "times", [g.tensors["y"]], frozen, immediate=1.0)
        assert verify_graph(g).has("SP110")

    def test_sp111_scalar_operand_names_vector(self):
        g = clean_graph()
        g.ewise("bad_scale", "times", [g.tensors["y"]], g.vector("z"),
                scalar_operand="scaled")
        assert verify_graph(g).has("SP111")

    def test_sp112_inconsistent_redeclaration_raises(self):
        g = clean_graph()
        with pytest.raises(CompileError) as exc:
            g.tensor("pr_next", TensorKind.SCALAR)
        assert "SP112" in exc.value.codes

    def test_sp113_duplicate_op_raises(self):
        g = clean_graph()
        with pytest.raises(CompileError) as exc:
            g.ewise("damp", "times", [g.tensors["y"]], g.vector("z"),
                    immediate=2.0)
        assert "SP113" in exc.value.codes

    def test_sp114_undeclared_tensor(self):
        g = clean_graph()
        stray = type(g.tensors["y"])("stray", TensorKind.VECTOR)
        with pytest.raises(CompileError) as exc:
            g.ewise("use_stray", "times", [stray], g.vector("z"),
                    immediate=1.0)
        assert "SP114" in exc.value.codes
        # Bypassing add_op, the verifier still catches it.
        g.ops.append(OpNode("sneak", OpKind.APPLY, (stray,),
                            g.vector("z2"), op_name="identity"))
        assert verify_graph(g).has("SP114")


class TestLegalityPasses:
    def test_sp201_mixed_semirings(self):
        g = clean_graph()
        g.vxm("spmv2", g.tensors["scaled"], g.tensors["L"],
              g.vector("y2"), "min_add")
        assert verify_graph(g).has("SP201")

    def test_sp202_no_contraction(self):
        g = DataflowGraph("pure_ewise")
        a = g.vector("a")
        b = g.vector("b")
        g.ewise("scale", "times", [a], b, immediate=2.0)
        assert verify_graph(g).has("SP202")

    def test_sp203_hidden_reduction_scalar_warns(self):
        g = DataflowGraph("cg_like")
        link = g.matrix("A")
        p = g.vector("p")
        q = g.vector("q")
        scaled = g.vector("scaled")
        alpha = g.scalar("alpha")
        g.vxm("spmv", p, link, q, "mul_add")
        g.reduce("fold", q, alpha, "plus")
        g.ewise("scale", "times", [q], scaled, scalar_operand="alpha")
        g.carry(scaled, p)
        report = verify_graph(g)
        assert report.has("SP203")
        assert report.ok  # warning, not error

    def test_sp204_missing_dual_storage_side(self):
        g = DataflowGraph("single_sided")
        link = g.matrix("L", formats=("csr",))
        pr = g.vector("pr_next")
        y = g.vector("y")
        new = g.vector("pr_new")
        g.vxm("spmv", pr, link, y, "mul_add")
        g.ewise("damp", "times", [y], new, immediate=0.85)
        g.carry(new, pr)
        report = verify_graph(g)
        assert report.has("SP204")
        assert "csc" in str(report.errors[0])

    def test_sp204_dual_storage_is_clean(self):
        g = clean_graph()
        g.matrix_formats["L"] = frozenset({"csc", "csr"})
        assert not verify_graph(g).has("SP204")

    def test_sp205_incompatible_dataflow_pin(self):
        g = DataflowGraph("pinned")
        link = g.matrix("L")
        pr = g.vector("pr_next")
        y = g.vector("y")
        new = g.vector("pr_new")
        g.vxm("spmv", pr, link, y, "mul_add", dataflow="is")
        g.ewise("damp", "times", [y], new, immediate=0.85)
        g.carry(new, pr)
        assert verify_graph(g).has("SP205")

    def test_legality_skipped_on_structural_errors(self):
        # A graph with no contraction AND a structural error reports
        # only the structural code (legality preconditions don't hold).
        g = DataflowGraph("both")
        a = g.vector("a")
        b = g.vector("b")
        g.ewise("x", "times", [a], b, immediate=2.0)
        g.ewise("y", "times", [a], b, immediate=3.0)  # SP105
        report = verify_graph(g)
        assert report.has("SP105")
        assert not report.has("SP202")


class TestVerifyProgram:
    def test_clean_program(self):
        program = compile_program(clean_graph())
        assert verify_program(program).ok

    def test_sp206_bad_instruction(self):
        program = OEIProgram(
            name="bad", semiring_name="mul_add",
            instructions=(EWiseInstr("frobnicate", 0, (Operand(OperandKind.Y),)),),
            result_reg=0, n_registers=1,
        )
        assert verify_program(program).has("SP206")

    def test_sp207_unknown_semiring(self):
        program = OEIProgram(name="bad", semiring_name="bogus")
        assert verify_program(program).has("SP207")

    def test_sp208_read_before_write(self):
        program = OEIProgram(
            name="bad", semiring_name="mul_add",
            instructions=(
                EWiseInstr("plus", 0, (Operand(OperandKind.Y),
                                       Operand(OperandKind.REG, 3))),
            ),
            result_reg=0, n_registers=4,
        )
        assert verify_program(program).has("SP208")

    def test_sp208_result_reg_never_written(self):
        program = OEIProgram(
            name="bad", semiring_name="mul_add",
            instructions=(EWiseInstr("identity", 0, (Operand(OperandKind.Y),)),),
            result_reg=7, n_registers=8,
        )
        assert verify_program(program).has("SP208")


class TestVerifySchedule:
    def test_fig8_skew_is_proven_clean(self):
        assert verify_schedule(1024, 64).ok

    def test_sp301_ewise_lag_zero(self):
        report = verify_schedule(1024, 64, ewise_lag=0)
        assert report.has("SP301")

    def test_sp301_is_lag_equal_to_ewise(self):
        report = verify_schedule(1024, 64, ewise_lag=1, is_lag=1)
        assert report.has("SP301")

    def test_sp302_insufficient_drain(self):
        report = verify_schedule(256, 64, n_steps=4)
        assert report.has("SP302")

    def test_sp306_bad_params(self):
        report = verify_schedule(1024, 0)
        assert report.has("SP306")

    def test_empty_matrix_is_legal(self):
        assert verify_schedule(0, 64).ok


class TestReplaySchedule:
    def test_replay_agrees_with_symbolic_proof(self):
        timeline, report = replay_schedule(300, 64)
        assert report.ok
        assert timeline.os_done == timeline.ewise_done == timeline.is_done

    def test_broken_lags_report_every_violation(self):
        _, report = replay_schedule(300, 64, ewise_lag=0, is_lag=1)
        # One SP304 per offending step, not just the first.
        assert report.codes().count("SP304") > 1

    def test_validate_schedule_raises_with_all_diagnostics(self):
        with pytest.raises(ScheduleError) as exc:
            validate_schedule(300, 64, ewise_lag=0, is_lag=1)
        assert exc.value.codes.count("SP304") > 1

    def test_validate_schedule_clean(self):
        timeline = validate_schedule(300, 64)
        assert timeline.os_done == list(range(5))


class TestCompileVerifyModes:
    def broken(self) -> DataflowGraph:
        g = clean_graph()
        g.vector("orphan")  # SP106 warning
        g.ewise("bad", "frobnicate", [g.tensors["y"]], g.vector("z"))  # SP103
        return g

    def test_default_mode_raises_with_codes(self):
        with pytest.raises(CompileError) as exc:
            compile_program(self.broken())
        assert "SP103" in exc.value.codes

    def test_warn_mode_emits_diagnostic_warnings(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            compile_program(self.broken(), verify="warn")
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, DiagnosticWarning)]
        assert any("SP103" in m for m in messages)
        assert any("SP106" in m for m in messages)

    def test_off_mode_is_bit_identical(self):
        checked = compile_program(clean_graph())
        unchecked = compile_program(clean_graph(), verify="off")
        assert checked.instructions == unchecked.instructions
        assert checked.result_reg == unchecked.result_reg
        assert checked.semiring_name == unchecked.semiring_name

    def test_off_mode_skips_broken_graph(self):
        program = compile_program(self.broken(), verify="off")
        assert program.name == "clean"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            compile_program(clean_graph(), verify="loud")


class TestShippedWorkloadsLintClean:
    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_workload_has_no_error_diagnostics(self, name):
        report = lint_workload(WORKLOADS[name])
        assert report.ok, report.format()

    def test_lint_registry_covers_all(self):
        reports = lint_registry()
        assert set(reports) == set(WORKLOADS)
        assert all(r.ok for r in reports.values())

    def test_cg_and_bgs_warn_about_reduction_scalars(self):
        # The reason cg/bgs lack an OEI path is visible as SP203.
        assert lint_workload(WORKLOADS["cg"]).has("SP203")
        assert lint_workload(WORKLOADS["bgs"]).has("SP203")


class TestDiagnosticPlumbing:
    def test_str_contains_code_severity_location_hint(self):
        d = Diagnostic.error("SP999", "boom", location="graph g", hint="fix it")
        text = str(d)
        assert "SP999" in text and "[error]" in text
        assert "graph g" in text and "fix it" in text

    def test_report_raise_attaches_only_errors(self):
        report = DiagnosticReport(subject="test")
        report.add("SP106", "dangling")
        report.add("SP101", "rank")
        with pytest.raises(CompileError) as exc:
            report.raise_if_errors()
        assert exc.value.codes == ("SP101",)

    def test_every_emitted_code_is_registered(self):
        for code, spec in CODES.items():
            assert spec.code == code
            assert isinstance(spec.severity, Severity)
            assert spec.hint

    def test_docs_catalogue_is_in_sync(self):
        from pathlib import Path

        doc = (Path(__file__).resolve().parent.parent
               / "docs" / "analysis.md").read_text(encoding="utf-8")
        missing = [code for code in CODES if code not in doc]
        assert not missing, f"docs/analysis.md lacks {missing}"


class TestLintHealth:
    def test_context_lint_health_collects_suppressed_warnings(self):
        from repro.experiments.runner import ExperimentContext

        ctx = ExperimentContext(workloads=("cg",), matrices=("gy",))
        ctx.profile("cg", "gy")
        health = ctx.lint_health()
        assert health["diagnostics[SP203]"] >= 2.0
        # Profiling the same workload again must not double-count.
        ctx.profile("cg", "gy")
        assert ctx.lint_health() == health

    def test_lint_health_reads_the_diagnostics_counters(self):
        from repro.experiments.runner import ExperimentContext

        ctx = ExperimentContext(workloads=("cg",), matrices=("gy",),
                                on_error="skip")
        ctx.profile("cg", "gy")
        ctx.simulate_many([("ideal", "pr", "gy"), ("ideal", "cg", "gy")],
                          block_size=-1)
        # Every count is a registry counter; the dict keeps its shape:
        # the total, then severities, then codes, each sorted.
        assert ctx.metrics.value("diagnostics.total") == 4.0
        assert list(ctx.lint_health().items()) == [
            ("diagnostics", 4.0),
            ("diagnostics[error]", 2.0),
            ("diagnostics[warning]", 2.0),
            ("diagnostics[SP203]", 2.0),
            ("diagnostics[SP603]", 2.0),
        ]
