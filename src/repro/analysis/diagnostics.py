"""Diagnostic code registry and report container.

Every defect class the static verifier (:mod:`repro.analysis.passes`)
and the AST self-lint (:mod:`repro.analysis.selfcheck`) can detect has
one stable entry in :data:`CODES`:

- ``SP1xx`` — dataflow-graph structure,
- ``SP2xx`` — fusion / OEI legality and compiled programs,
- ``SP3xx`` — pipeline-step schedule legality,
- ``SP6xx`` — runtime resilience (supervised sweeps, cache
  quarantine, strict ingest, fault injection),
- ``SP7xx`` — abstract interpretation (:mod:`repro.analysis.absint`):
  static/dynamic OEI disagreement and simulator-oracle bound
  violations,
- ``SP9xx`` — repository self-lint (AST rules over ``src/repro``),
  including the ``SP91x`` concurrency-safety family.

Codes are registered through :func:`register_code`, which rejects a
duplicate code at import time — a collision would otherwise silently
shadow the earlier rule's catalogue entry.

``docs/analysis.md`` catalogues the same table for humans; a golden
test keeps the two in sync. The :class:`Diagnostic` record itself lives
in :mod:`repro.errors` so every layer of the library can attach
diagnostics to its exceptions without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple, Type

from repro.errors import CompileError, Diagnostic, ReproError, Severity


class DiagnosticWarning(UserWarning):
    """Python warning category used by ``compile_program(verify="warn")``."""


@dataclass(frozen=True)
class CodeSpec:
    """Registry entry for one diagnostic code."""

    code: str
    title: str
    severity: Severity
    hint: str


def _spec(code: str, title: str, severity: Severity, hint: str) -> CodeSpec:
    return CodeSpec(code, title, severity, hint)


#: Every diagnostic code the toolchain can emit, keyed by code.
CODES: Dict[str, CodeSpec] = {}


def register_code(spec: CodeSpec) -> CodeSpec:
    """Register one diagnostic code; duplicate codes are an import-time
    error, never a silent shadow."""
    existing = CODES.get(spec.code)
    if existing is not None:
        raise ValueError(
            f"duplicate diagnostic code registration: {spec.code} "
            f"({existing.title!r} vs {spec.title!r})"
        )
    CODES[spec.code] = spec
    return spec


for _s in (
        # ---- SP1xx: graph structure -------------------------------------
        _spec("SP101", "rank-mismatch", Severity.ERROR,
              "give the op operands of the ranks its kind requires "
              "(vxm: vector x matrix -> vector; reduce: vector -> scalar)"),
        _spec("SP102", "unknown-semiring", Severity.ERROR,
              "use a semiring registered in repro.semiring.SEMIRINGS"),
        _spec("SP103", "unknown-ewise-op", Severity.ERROR,
              "use an operator from BINARY_OPS/UNARY_OPS matching the arity"),
        _spec("SP104", "unknown-monoid", Severity.ERROR,
              "reduce with a monoid registered in repro.semiring.MONOIDS"),
        _spec("SP105", "multiply-produced-tensor", Severity.ERROR,
              "give each op its own output tensor; merge writers explicitly"),
        _spec("SP106", "dangling-tensor", Severity.WARNING,
              "delete the unused declaration or wire it into an op"),
        _spec("SP107", "graph-cycle", Severity.ERROR,
              "break the intra-iteration cycle with a loop_carried edge"),
        _spec("SP108", "illegal-loop-carry", Severity.ERROR,
              "carry from a produced (or delay-chained) tensor into a "
              "same-kind, non-constant, non-produced tensor"),
        _spec("SP109", "operand-overflow", Severity.ERROR,
              "e-wise ops take at most two operands including "
              "scalar_operand and immediate; split the op"),
        _spec("SP110", "constant-tensor-written", Severity.ERROR,
              "constant tensors are read-only; write a fresh tensor"),
        _spec("SP111", "scalar-operand-misuse", Severity.ERROR,
              "scalar_operand must name a scalar, not a vector/matrix "
              "tensor; pass the tensor as a regular input"),
        _spec("SP112", "inconsistent-redeclaration", Severity.ERROR,
              "declare each tensor once, or redeclare with identical "
              "kind and constancy"),
        _spec("SP113", "duplicate-op", Severity.ERROR,
              "give every op a unique name within its graph"),
        _spec("SP114", "undeclared-tensor", Severity.ERROR,
              "declare tensors with graph.tensor()/vector()/matrix() "
              "before referencing them in an op"),
        # ---- SP2xx: fusion / OEI legality and compiled programs ---------
        _spec("SP201", "mixed-semirings", Severity.ERROR,
              "Sparsepipe preloads one opcode per kernel launch; split "
              "the loop body or unify the semiring"),
        _spec("SP202", "no-contraction", Severity.ERROR,
              "add the vxm/mxv/mxm the accelerator should run, or do "
              "not compile this graph"),
        _spec("SP203", "hidden-reduction-scalar", Severity.WARNING,
              "the scalar is reduced from this iteration's contraction "
              "output, so the e-wise chain is not sub-tensor dependent "
              "and OEI reuse is blocked; lag the scalar one iteration "
              "if the algorithm allows"),
        _spec("SP204", "missing-dual-storage-side", Severity.ERROR,
              "the OEI pair streams the shared matrix in CSC (OS) and "
              "CSR (IS); declare both sides in the matrix formats"),
        _spec("SP205", "incompatible-oei-directions", Severity.ERROR,
              "the source contraction of an OEI pair must allow the OS "
              "dataflow and the destination the IS dataflow"),
        _spec("SP206", "bad-instruction", Severity.ERROR,
              "e-wise instructions need a registered opcode of arity 1 "
              "or 2"),
        _spec("SP207", "unknown-program-semiring", Severity.ERROR,
              "compiled programs must name a registered semiring opcode"),
        _spec("SP208", "register-misuse", Severity.ERROR,
              "instructions may only read registers written earlier; "
              "result_reg must be written and n_registers must cover "
              "every destination"),
        _spec("SP210", "oei-path-dead-end", Severity.ERROR,
              "the fused e-wise chain must produce the destination "
              "contraction's input vector"),
        # ---- SP3xx: schedule legality -----------------------------------
        _spec("SP301", "stage-skew-violation", Severity.ERROR,
              "the Fig 8 skew needs 0 < EWISE_LAG < IS_LAG so each "
              "stage only reads data finished in an earlier step"),
        _spec("SP302", "insufficient-drain", Severity.ERROR,
              "a pair over S sub-tensors needs S + IS_LAG steps to "
              "drain; extend n_steps"),
        _spec("SP303", "bad-partition", Severity.ERROR,
              "sub-tensors must tile [0, n) contiguously with positive "
              "widths"),
        _spec("SP304", "replay-dependency-violation", Severity.ERROR,
              "a stage consumed a sub-tensor before its upstream stage "
              "finished it; restore the Fig 8 stage lags"),
        _spec("SP305", "replay-coverage-violation", Severity.ERROR,
              "each stage must process every sub-tensor exactly once, "
              "in order"),
        _spec("SP306", "invalid-schedule-params", Severity.ERROR,
              "n must be non-negative and subtensor_cols positive"),
        # ---- SP6xx: runtime resilience ----------------------------------
        _spec("SP601", "worker-pool-broken", Severity.WARNING,
              "the process pool died mid-sweep (a worker was killed, "
              "e.g. by the OOM killer); the remaining points were "
              "completed serially in-process"),
        _spec("SP602", "sweep-point-retried", Severity.WARNING,
              "a sweep point failed transiently and was retried; the "
              "retry outcome is recorded in the point's run manifest"),
        _spec("SP603", "sweep-point-failed", Severity.ERROR,
              "a sweep point exhausted its attempts under "
              "on_error='skip'/'retry'; it is recorded as failed in "
              "the run manifest and its result slot is None"),
        _spec("SP604", "cache-entry-quarantined", Severity.WARNING,
              "a corrupt result-cache entry was moved to quarantine/ "
              "so it can never be silently re-missed; the next put "
              "re-populates the slot"),
        _spec("SP605", "malformed-ingest", Severity.ERROR,
              "a MatrixMarket file failed validation; the error "
              "carries 'line <n>' context naming the offending line"),
        _spec("SP606", "watchdog-timeout", Severity.ERROR,
              "a sweep point exceeded the per-item watchdog budget; "
              "raise timeout_s or investigate the hang"),
        _spec("SP607", "fault-injected", Severity.INFO,
              "a deterministic FaultPlan fault fired at an "
              "instrumented site (chaos testing only)"),
        # ---- SP7xx: abstract interpretation -----------------------------
        _spec("SP701", "absint-oei-disagreement", Severity.ERROR,
              "the abstract interpreter and the dynamic oei_detect "
              "disagree on whether the graph admits an OEI pair; one "
              "of the two analyses is wrong — file a bug with the "
              "graph, do not silence the check"),
        _spec("SP702", "traffic-bound-violated", Severity.ERROR,
              "the simulated per-category DRAM traffic exceeded the "
              "static upper bound; either the analyzer under-counts "
              "or the simulator moves bytes the model says it cannot"),
        _spec("SP703", "buffer-bound-violated", Severity.ERROR,
              "the simulated peak buffer occupancy exceeded the "
              "static window + CSR-capacity bound; the buffer "
              "admitted state outside the no-eviction reuse window"),
        _spec("SP704", "absint-format-conflict", Severity.ERROR,
              "a contraction is pinned to a dataflow whose required "
              "storage side (OS: csc, IS: csr) is missing from the "
              "matrix's declared formats; declare the side or unpin"),
        # ---- SP9xx: repository self-lint --------------------------------
        _spec("SP901", "forbidden-import", Severity.ERROR,
              "scipy/networkx are test-only cross-checks (DESIGN.md); "
              "implement the functionality in-library"),
        _spec("SP902", "unregistered-baseline", Severity.ERROR,
              "decorate the engine class with @register_arch so the "
              "registry, CLI, and sweeps can see it"),
        _spec("SP903", "cache-key-field-missing", Severity.ERROR,
              "hash every dataclass field in cache_key() (or use "
              "asdict(self)) so config changes invalidate cached "
              "results"),
        _spec("SP904", "unseeded-nondeterminism", Severity.ERROR,
              "simulator/engine hot paths must be deterministic: seed "
              "the rng explicitly and keep wall-clock out of results"),
        _spec("SP905", "step-loop-outside-reference", Severity.ERROR,
              "per-step Python loops belong to the reference backend "
              "(arch/simulator.py) only; express the computation as "
              "array ops in repro.arch.fastpath instead"),
        _spec("SP906", "reference-backend-pin", Severity.ERROR,
              "library code must not pin backend=\"reference\": the "
              "vectorized backend serves every configuration "
              "(observers and detailed_dram included) bit-identically, "
              "so honor the caller's config; pins belong to tests and "
              "benchmarks only"),
        _spec("SP907", "unhonorable-observer-request", Severity.ERROR,
              "an observers= request was made of an architecture that "
              "is not registered observable=True; it has no event "
              "stream to attach to — silent downgrades are forbidden, "
              "so the request raises instead"),
        # ---- SP91x: concurrency safety (sweep execution) ---------------
        _spec("SP911", "pool-captured-global", Severity.ERROR,
              "mutable module-global state mutated outside a worker "
              "initializer is silently stale in pool workers (fork) "
              "or absent (spawn); move the mutation into an "
              "_init_worker/install-style initializer passed to the "
              "pool, or thread the state through arguments"),
        _spec("SP912", "non-atomic-cache-write", Severity.ERROR,
              "cache/state files must be written via the tmp-rename "
              "protocol (write to a pid-unique .tmp, then "
              "Path.replace) so a concurrent reader never observes a "
              "torn file; write the temp file and rename it"),
        _spec("SP913", "blocking-supervisor-wait", Severity.ERROR,
              "supervisor code must never block unboundedly: replace "
              "time.sleep polling with event/timeout waits and give "
              "every Future.result()/join a timeout so a hung worker "
              "cannot hang the sweep"),
        _spec("SP914", "pool-outside-scheduler-backend", Severity.ERROR,
              "ProcessPoolExecutor is an execution substrate and lives "
              "behind the supervised fan-out; only run_fanout's module "
              "(scheduler/base.py) may name it — call "
              "repro.scheduler.run_fanout(..., backend=\"localpool\") "
              "instead"),
    ):
    register_code(_s)
del _s


def diagnostic(code: str, message: str, location: str = "",
               hint: str = "") -> Diagnostic:
    """Build a :class:`Diagnostic` with the registry's default severity
    (and default hint, unless one is supplied)."""
    spec = CODES[code]
    return Diagnostic(code, spec.severity, message, location,
                      hint or spec.hint)


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics from one verification run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: What was verified, for report headers (e.g. ``graph pr``).
    subject: str = ""

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def add(self, code: str, message: str, location: str = "",
            hint: str = "") -> Diagnostic:
        """Emit one diagnostic by code (severity from the registry)."""
        d = diagnostic(code, message, location, hint)
        self.diagnostics.append(d)
        return d

    def append(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, other: "DiagnosticReport") -> "DiagnosticReport":
        self.diagnostics.extend(other.diagnostics)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics
                     if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics
                     if d.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was emitted."""
        return not self.errors

    def codes(self) -> Tuple[str, ...]:
        """All emitted codes, in emission order (with repeats)."""
        return tuple(d.code for d in self.diagnostics)

    def has(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    # ------------------------------------------------------------------
    # Rendering / raising
    # ------------------------------------------------------------------
    def format(self) -> str:
        """Human-readable multi-line rendering."""
        head = self.subject or "verification"
        if not self.diagnostics:
            return f"{head}: ok"
        lines = [f"{head}: {len(self.errors)} error(s), "
                 f"{len(self.warnings)} warning(s)"]
        lines.extend(f"  {d}" for d in self.diagnostics)
        return "\n".join(lines)

    def raise_if_errors(
        self, exc_type: Type[ReproError] = CompileError, header: str = ""
    ) -> None:
        """Raise ``exc_type`` carrying every error diagnostic, if any."""
        errors = self.errors
        if not errors:
            return
        head = header or (f"{self.subject or 'verification'} failed with "
                          f"{len(errors)} error(s)")
        body = "\n".join(f"  {d}" for d in errors)
        raise exc_type(f"{head}\n{body}", diagnostics=errors)
