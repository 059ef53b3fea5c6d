"""AST self-lint: repository invariants checked statically (SP9xx).

Custom :mod:`ast` rules over the library source tree enforce
invariants that DESIGN.md and PR history established but nothing
previously checked. Rules are organized as *passes*
(:class:`SelfCheckPass`): each file is parsed and walked **once** into
a shared :class:`ModuleContext`, and every pass declares the path
prefixes it opts into — adding a rule never adds another tree walk.

- **SP901** — no ``scipy``/``networkx`` imports in library code; they
  are test-only cross-checks.
- **SP903** — every field of a dataclass that defines ``cache_key()``
  must be consumed by it (directly, or wholesale via ``asdict``/
  ``vars``). This is exactly the PR-1 stale-cache bug class: a config
  field missing from the hash makes distinct configs collide in the
  result cache.
- **SP904** — no unseeded randomness inside the simulator/engine hot
  paths (``arch``, ``oei``, ``engine``, ``dataflow``, ``formats``,
  ``semiring``, ``resilience``), and no wall-clock reads anywhere
  outside ``repro.obs``: results must be deterministic and
  replayable, and timing is the observability layer's job.
  (``resilience`` joined the hot paths when the fault-injection layer
  shipped — its firing decisions are sha256-derived precisely so this
  rule can hold.)
- **SP905** — no ``for ... in range(<x>.n_steps)`` loops in ``arch/``
  outside the reference backend (``arch/simulator.py``). The
  vectorized backend exists precisely so per-step Python iteration
  stays confined to the reference implementation; a step loop leaking
  into other arch modules re-introduces the interpreter bottleneck the
  fast path removed.
- **SP906** — no ``backend="reference"`` pins in library code. Batched
  event synthesis made the vectorized backend serve every observed and
  banked-DRAM configuration bit-identically, so a library-side pin is
  never a requirement — it is a silent 2-10x slowdown (the Fig 15 bug
  class). Pins belong to tests and benchmarks, which live outside the
  package tree this lint walks.

The **SP91x concurrency-safety family** targets sweep execution
(pools, caches, supervisors):

- **SP911** — mutable module-global state (``global`` statements) in
  pool-adjacent packages may only be mutated inside initializer-style
  functions (``_worker_boot``, ``install``, ``mark_worker``): a global
  mutated anywhere else is silently stale in forked pool workers and
  absent under spawn.
- **SP912** — files in ``engine/``/``resilience/`` must be written
  via the tmp-rename protocol (write a pid-unique temp file, then
  ``Path.replace``): a function that writes a file but never renames
  one can expose a torn file to a concurrent reader.
- **SP913** — supervisor code (``resilience/``, ``scheduler/``) must
  not block unboundedly: ``time.sleep`` polling and no-timeout
  ``Future.result()`` calls can hang an entire sweep behind one dead
  worker.
- **SP914** — ``ProcessPoolExecutor`` is an execution substrate and
  belongs behind the supervised fan-out: only ``scheduler/base.py``,
  home of :func:`repro.scheduler.run_fanout`, may name it.
  ``simulate_many`` and ``autotune`` name a backend and call
  ``run_fanout`` — code that wants a pool goes through it.

Run it with ``python -m repro selfcheck`` (wired into CI's lint job).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import DiagnosticReport

#: Modules that may only be imported from tests (DESIGN.md).
FORBIDDEN_IMPORTS = ("scipy", "networkx")

#: Sub-packages whose code runs inside the simulation/timing hot path
#: and must therefore be deterministic (SP904).
HOT_PATH_PACKAGES = ("arch", "oei", "engine", "dataflow", "formats",
                     "semiring", "resilience")

#: The one package allowed to read the wall clock (SP904): run
#: manifests and their stopwatch live there.
CLOCK_PACKAGE = "obs/"

#: The one module allowed to walk simulation steps in a Python loop —
#: the reference backend (SP905).
REFERENCE_BACKEND = "arch/simulator.py"

#: Packages whose module-global state ends up captured in pool workers
#: (SP911) and whose files are read concurrently (SP912).
SERVICE_ARC_PACKAGES = ("engine", "resilience", "experiments", "scheduler")

#: Function-name markers that identify sanctioned global mutators:
#: pool initializers (``_worker_boot``) and arming/disarming hooks
#: (``install``, ``mark_worker``).
INITIALIZER_MARKERS = ("init", "worker", "install", "boot")

#: Supervisor-side modules that must never block unboundedly (SP913).
SUPERVISOR_PATHS = ("resilience/", "scheduler/")

#: The one module allowed to name ProcessPoolExecutor — the home of
#: run_fanout, whose localpool backend is the pool substrate (SP914).
POOL_BACKEND = "scheduler/base.py"

#: Wall-clock reads, allowed only in :data:`CLOCK_PACKAGE`.
_CLOCK_CALLS = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "time_ns"), ("time", "perf_counter_ns"),
    ("datetime", "now"), ("datetime", "utcnow"),
}

#: Method names that write a file's contents in one call.
_FILE_WRITE_ATTRS = ("write_text", "write_bytes")

#: Method names that atomically move a finished temp file into place.
_RENAME_ATTRS = ("replace", "rename")


def _library_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def _iter_sources(root: Path) -> Iterator[Path]:
    yield from sorted(root.rglob("*.py"))


def _decorator_name(node: ast.expr) -> str:
    """Innermost name of a decorator expression (``a.b(...)`` -> ``b``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _call_path(node: ast.Call) -> Tuple[str, ...]:
    """Dotted attribute path of a call, e.g. ``np.random.default_rng``
    -> ``("np", "random", "default_rng")``; empty when not a plain
    attribute chain."""
    parts: List[str] = []
    cur = node.func
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return tuple(reversed(parts))
    return ()


# ----------------------------------------------------------------------
# The pass framework: one parse + one walk per file, shared by rules
# ----------------------------------------------------------------------
class ModuleContext:
    """One parsed source file, walked once and shared by every pass."""

    def __init__(self, rel: str, tree: ast.AST) -> None:
        self.rel = rel
        self.tree = tree
        #: Every node, from a single ``ast.walk`` — passes filter this
        #: instead of re-walking the tree.
        self.nodes: Tuple[ast.AST, ...] = tuple(ast.walk(tree))

    def walk(self, *types: type) -> Iterator[ast.AST]:
        """Nodes of the given types, in walk order."""
        for node in self.nodes:
            if isinstance(node, types):
                yield node

    @property
    def functions(self) -> List[ast.FunctionDef]:
        return list(self.walk(ast.FunctionDef, ast.AsyncFunctionDef))


@dataclass(frozen=True)
class SelfCheckPass:
    """One self-lint rule: its code, the paths it opts into, and the
    check itself (``check(ctx, report)``)."""

    code: str
    name: str
    check: Callable[[ModuleContext, DiagnosticReport], None]
    #: Path prefixes this pass runs on ("" matches everything).
    include: Tuple[str, ...] = ("",)
    #: Path prefixes (or exact paths) this pass skips.
    exclude: Tuple[str, ...] = ()

    def applies(self, rel: str) -> bool:
        if any(rel.startswith(p) for p in self.exclude):
            return False
        return any(rel.startswith(p) for p in self.include)


# ----------------------------------------------------------------------
# SP901: forbidden imports
# ----------------------------------------------------------------------
def _check_imports(ctx: ModuleContext, report: DiagnosticReport) -> None:
    for node in ctx.walk(ast.Import, ast.ImportFrom):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module] if node.module else []
        for name in names:
            top = name.split(".")[0]
            if top in FORBIDDEN_IMPORTS:
                report.add("SP901",
                           f"library code imports {top!r}",
                           f"{ctx.rel}:{node.lineno}")


# ----------------------------------------------------------------------
# SP903: cache_key must consume every dataclass field
# ----------------------------------------------------------------------
def _dataclass_fields(cls: ast.ClassDef) -> List[str]:
    fields = []
    for item in cls.body:
        if not isinstance(item, ast.AnnAssign):
            continue
        if not isinstance(item.target, ast.Name):
            continue
        ann = ast.unparse(item.annotation)
        if "ClassVar" in ann or item.target.id.startswith("_"):
            continue
        fields.append(item.target.id)
    return fields


def _check_cache_keys(ctx: ModuleContext, report: DiagnosticReport) -> None:
    for node in ctx.walk(ast.ClassDef):
        if not any(_decorator_name(d) == "dataclass"
                   for d in node.decorator_list):
            continue
        cache_key = next(
            (item for item in node.body
             if isinstance(item, ast.FunctionDef)
             and item.name == "cache_key"),
            None,
        )
        if cache_key is None:
            continue
        consumed = set()
        wholesale = False
        for sub in ast.walk(cache_key):
            if isinstance(sub, ast.Call):
                callee = _decorator_name(sub.func)
                if callee in ("asdict", "astuple", "vars"):
                    wholesale = True
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"):
                consumed.add(sub.attr)
                if sub.attr == "__dict__":
                    wholesale = True
        if wholesale:
            continue
        missing = [f for f in _dataclass_fields(node) if f not in consumed]
        if missing:
            report.add("SP903",
                       f"{node.name}.cache_key() never reads field(s) "
                       f"{missing}; equal keys would alias distinct configs",
                       f"{ctx.rel}:{cache_key.lineno}")


# ----------------------------------------------------------------------
# SP904: determinism — seeded randomness in hot paths, clocks in obs/
# ----------------------------------------------------------------------
def _check_randomness(ctx: ModuleContext, report: DiagnosticReport) -> None:
    imports_random = any(
        isinstance(node, ast.Import)
        and any(alias.name == "random" for alias in node.names)
        or (isinstance(node, ast.ImportFrom) and node.module == "random")
        for node in ctx.walk(ast.Import, ast.ImportFrom)
    )
    if imports_random:
        report.add("SP904",
                   "hot-path module imports the stdlib 'random' module "
                   "(unseeded global state)", ctx.rel)
    for node in ctx.walk(ast.Call):
        path = _call_path(node)
        if (path and path[-1] == "default_rng"
                and not node.args and not node.keywords):
            report.add("SP904",
                       "default_rng() without an explicit seed is "
                       "nondeterministic", f"{ctx.rel}:{node.lineno}")


def _check_clock_reads(ctx: ModuleContext, report: DiagnosticReport) -> None:
    for node in ctx.walk(ast.Call):
        path = _call_path(node)
        if len(path) >= 2 and path[-2:] in _CLOCK_CALLS:
            report.add("SP904",
                       f"reads the wall clock via {'.'.join(path)}() "
                       "outside repro.obs",
                       f"{ctx.rel}:{node.lineno}")


# ----------------------------------------------------------------------
# SP905: step loops stay in the reference backend
# ----------------------------------------------------------------------
def _check_step_loops(ctx: ModuleContext, report: DiagnosticReport) -> None:
    for node in ctx.walk(ast.For, ast.AsyncFor):
        call = node.iter
        if not (isinstance(call, ast.Call)
                and _decorator_name(call.func) == "range"):
            continue
        if any(isinstance(arg, ast.Attribute) and arg.attr == "n_steps"
               for arg in call.args):
            report.add("SP905",
                       "per-step Python loop (for ... in range(*.n_steps)) "
                       f"outside the reference backend ({REFERENCE_BACKEND}); "
                       "vectorize it or move it into the reference loop",
                       f"{ctx.rel}:{node.lineno}")


# ----------------------------------------------------------------------
# SP906: no reference-backend pins in library code
# ----------------------------------------------------------------------
def _check_backend_pins(ctx: ModuleContext, report: DiagnosticReport) -> None:
    for node in ctx.walk(ast.Call):
        for kw in node.keywords:
            if (kw.arg == "backend"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value == "reference"):
                report.add("SP906",
                           'library code pins backend="reference"; the '
                           "vectorized backend serves every configuration "
                           "(observers, detailed DRAM) bit-identically, so "
                           "a pin is only a silent slowdown — reference "
                           "pins belong to tests and benchmarks",
                           f"{ctx.rel}:{node.lineno}")


# ----------------------------------------------------------------------
# SP911: module globals only mutated by initializer-style functions
# ----------------------------------------------------------------------
def _check_pool_globals(ctx: ModuleContext, report: DiagnosticReport) -> None:
    for fn in ctx.functions:
        globals_here = [n for n in ast.walk(fn) if isinstance(n, ast.Global)]
        if not globals_here:
            continue
        lowered = fn.name.lower()
        if any(marker in lowered for marker in INITIALIZER_MARKERS):
            continue
        names = sorted({name for g in globals_here for name in g.names})
        report.add("SP911",
                   f"function {fn.name!r} mutates module-global state "
                   f"{names}; pool workers fork/spawn with their own copy, "
                   "so the mutation is silently lost or stale there",
                   f"{ctx.rel}:{fn.lineno}")


# ----------------------------------------------------------------------
# SP912: file writes must follow the tmp-rename protocol
# ----------------------------------------------------------------------
def _is_file_write(node: ast.Call) -> bool:
    path = _call_path(node)
    if path and path[-1] in _FILE_WRITE_ATTRS:
        return True
    if len(path) >= 2 and path[-2:] == ("json", "dump"):
        return True
    if path == ("open",) and len(node.args) >= 2:
        mode = node.args[1]
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value.startswith(("w", "a"))
    for kw in node.keywords:
        if (kw.arg == "mode" and path and path[-1] == "open"
                and isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, str)):
            return kw.value.value.startswith(("w", "a"))
    return False


def _check_atomic_writes(ctx: ModuleContext, report: DiagnosticReport) -> None:
    for fn in ctx.functions:
        writes = []
        renames = False
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            if _is_file_write(node):
                writes.append(node)
            path = _call_path(node)
            if path and path[-1] in _RENAME_ATTRS:
                renames = True
        if writes and not renames:
            first = writes[0]
            report.add("SP912",
                       f"function {fn.name!r} writes a file without the "
                       "tmp-rename protocol (no .replace()/.rename() in "
                       "sight); a concurrent reader can observe a torn file",
                       f"{ctx.rel}:{first.lineno}")


# ----------------------------------------------------------------------
# SP913: supervisors must never block unboundedly
# ----------------------------------------------------------------------
def _check_blocking_waits(ctx: ModuleContext, report: DiagnosticReport) -> None:
    for node in ctx.walk(ast.Call):
        path = _call_path(node)
        if len(path) >= 2 and path[-2:] == ("time", "sleep"):
            report.add("SP913",
                       "supervisor code polls with time.sleep(); use an "
                       "event or timeout wait instead",
                       f"{ctx.rel}:{node.lineno}")
        elif (path and path[-1] == "result"
                and not node.args and not node.keywords):
            report.add("SP913",
                       "Future.result() without a timeout can hang the "
                       "sweep behind one dead worker; pass a timeout",
                       f"{ctx.rel}:{node.lineno}")


# ----------------------------------------------------------------------
# SP914: ProcessPoolExecutor confined to run_fanout's module
# ----------------------------------------------------------------------
def _check_pool_confinement(
    ctx: ModuleContext, report: DiagnosticReport
) -> None:
    for node in ctx.nodes:
        if isinstance(node, ast.Name) and node.id == "ProcessPoolExecutor":
            lineno = node.lineno
        elif (isinstance(node, ast.Attribute)
                and node.attr == "ProcessPoolExecutor"):
            lineno = node.lineno
        elif (isinstance(node, (ast.Import, ast.ImportFrom))
                and any(alias.name == "ProcessPoolExecutor"
                        for alias in node.names)):
            lineno = node.lineno
        else:
            continue
        report.add("SP914",
                   "names ProcessPoolExecutor outside run_fanout's "
                   f"module ({POOL_BACKEND}); execution substrates live "
                   "behind the supervised fan-out — use "
                   "repro.scheduler.run_fanout(..., backend=\"localpool\")",
                   f"{ctx.rel}:{lineno}")


#: Every registered self-lint pass, in execution order.
PASSES: Tuple[SelfCheckPass, ...] = (
    SelfCheckPass("SP901", "forbidden-import", _check_imports),
    SelfCheckPass("SP903", "cache-key-field-missing", _check_cache_keys),
    SelfCheckPass("SP904", "unseeded-nondeterminism", _check_randomness,
                  include=tuple(f"{p}/" for p in HOT_PATH_PACKAGES)),
    SelfCheckPass("SP904", "unseeded-nondeterminism", _check_clock_reads,
                  exclude=(CLOCK_PACKAGE,)),
    SelfCheckPass("SP905", "step-loop-outside-reference", _check_step_loops,
                  include=("arch/",), exclude=(REFERENCE_BACKEND,)),
    SelfCheckPass("SP906", "reference-backend-pin", _check_backend_pins),
    SelfCheckPass("SP911", "pool-captured-global", _check_pool_globals,
                  include=tuple(f"{p}/" for p in SERVICE_ARC_PACKAGES)),
    SelfCheckPass("SP912", "non-atomic-cache-write", _check_atomic_writes,
                  include=("engine/", "resilience/")),
    SelfCheckPass("SP913", "blocking-supervisor-wait", _check_blocking_waits,
                  include=SUPERVISOR_PATHS),
    SelfCheckPass("SP914", "pool-outside-scheduler-backend",
                  _check_pool_confinement,
                  exclude=(POOL_BACKEND,)),
)


def selfcheck(
    root: Optional[Path] = None,
    passes: Optional[Sequence[SelfCheckPass]] = None,
) -> DiagnosticReport:
    """Lint the library tree (default: the installed ``repro`` package)
    and return every SP9xx finding as one report.

    ``passes`` restricts the run to a subset of :data:`PASSES` (the
    full suite by default). Each file is parsed and walked exactly
    once regardless of how many passes opt in."""
    root = Path(root) if root is not None else _library_root()
    active = tuple(PASSES if passes is None else passes)
    report = DiagnosticReport(subject=f"selfcheck {root}")
    for path in _iter_sources(root):
        rel = path.relative_to(root).as_posix()
        applicable = [p for p in active if p.applies(rel)]
        if not applicable:
            continue
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError as exc:  # pragma: no cover - broken tree
            report.add("SP901", f"unparseable source: {exc}", rel)
            continue
        ctx = ModuleContext(rel, tree)
        for p in applicable:
            p.check(ctx, report)
    return report
