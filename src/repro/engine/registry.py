"""The architecture registry: one uniform entry point for every model.

Every architecture the evaluation compares — the Sparsepipe pipeline
simulator, the roofline baselines, the CPU/GPU framework models, and
the software-OEI study of Section VIII — is one row of the literal
table :data:`ARCHS`. Consumers (:class:`~repro.experiments.
runner.ExperimentContext`, the CLI, :mod:`repro.arch.sweep`,
:mod:`repro.arch.autotune`) obtain a ready-to-run engine with
:func:`create_engine` instead of hard-coding an ``if/elif`` chain per
model, so adding a backend is one table row, not five call-site edits.

Every engine satisfies the :class:`Engine` protocol, which is ``run``
alone; each engine derives its load plan from the matrix inside it::

    engine = create_engine("sparsepipe", config)
    result = engine.run(profile, matrix, paper_nnz=...)
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Protocol, Sequence, Tuple, TYPE_CHECKING

from repro.errors import ConfigError
from repro.resilience.faults import maybe_raise

if TYPE_CHECKING:  # pragma: no cover
    from repro.arch.config import SparsepipeConfig
    from repro.arch.stats import SimResult
    from repro.engine.instrumentation import Observer


class Engine(Protocol):
    """What every architecture model must provide: ``run`` times the
    workload over a (preprocessed) matrix and returns a
    :class:`~repro.arch.stats.SimResult`. ``paper_nnz`` enables the
    per-matrix capacity/overhead scaling of DESIGN.md.
    """

    def run(self, profile, matrix, paper_nnz=None) -> "SimResult":
        ...  # pragma: no cover


#: The architectures the evaluation compares, in the order of its
#: narrative (the order of :func:`arch_names`): name -> (module, class,
#: takes_config, observable, description). A ``takes_config=False``
#: engine is built as ``cls()`` and ignores the config — the CPU/GPU
#: framework models carry their own hardware constants. An
#: ``observable`` engine's ``run`` accepts an ``observers=`` sequence
#: and streams instrumentation events (:mod:`repro.engine.
#: instrumentation`) — the ones ``python -m repro trace`` and the
#: observability layer (:mod:`repro.obs`) can attach timelines and live
#: metrics to. Classes are imported on first use, so ``repro.engine``
#: itself stays import-cycle-free.
ARCHS = {
    "sparsepipe": ("repro.arch.simulator", "SparsepipeSimulator", True, True,
                   "the Sparsepipe OEI pipeline simulator (Sections IV-V)"),
    "ideal": ("repro.baselines.ideal_accelerator", "IdealAccelerator",
              True, False,
              "idealized intra-operator accelerator, always at roofline"),
    "oracle": ("repro.baselines.oracle", "OracleAccelerator", True, False,
               "perfect OEI executor, matrix streamed once per pair"),
    "cpu": ("repro.baselines.cpu", "CPUModel", False, False,
            "ALP/GraphBLAS multicore framework (AMD 5800X3D class)"),
    "gpu": ("repro.baselines.gpu", "GPUModel", False, False,
            "GraphBLAST/Gunrock GPU framework (RTX 4070 class)"),
    "software_oei": (
        "repro.baselines.software_oei", "SoftwareOEIModel", False, False,
        "CPU running the OEI pair schedule in software (Sec II-B/VIII)"),
}


@dataclass(frozen=True)
class ArchSpec:
    """One row of :data:`ARCHS`, its engine class resolved."""

    name: str
    cls: type
    takes_config: bool
    observable: bool
    description: str

    def create(self, config: Optional["SparsepipeConfig"] = None) -> Engine:
        if self.takes_config and config is not None:
            return self.cls(config)
        return self.cls()


@lru_cache(maxsize=None)
def _resolve(name: str, row: tuple) -> ArchSpec:
    module, cls, takes_config, observable, description = row
    return ArchSpec(name, getattr(importlib.import_module(module), cls),
                    takes_config, observable, description)


def arch_names() -> Tuple[str, ...]:
    """Every architecture name, in :data:`ARCHS` order."""
    return tuple(ARCHS)


def get_arch(name: str) -> ArchSpec:
    """Look up one architecture; raises ConfigError if unknown."""
    try:
        row = ARCHS[name]
    except KeyError:
        raise ConfigError(
            f"unknown architecture {name!r}; expected one of {arch_names()}"
        ) from None
    return _resolve(name, row)


def create_engine(name: str, config: Optional["SparsepipeConfig"] = None) -> Engine:
    """Instantiate a ready-to-run engine for one architecture."""
    return get_arch(name).create(config)


def run_engine(
    name: str,
    config: Optional["SparsepipeConfig"],
    profile,
    matrix,
    paper_nnz: Optional[int] = None,
    observers: Sequence["Observer"] = (),
) -> "SimResult":
    """Run one architecture on one point, observed or not.

    Every caller routes through here (sweeps, the trace CLI,
    ``capture_run``, the fig drivers), so the ``engine.run`` chaos site
    covers observed and unobserved runs alike. An observable engine
    gets the ``observers`` request verbatim; the default ``()`` is the
    zero-observer contract (``bandwidth_samples=[]``) on either backend,
    so both store the same result for a point. The vectorized backend
    synthesizes the event stream post-hoc at full speed, so observers
    never force a downgrade. Asking a non-observable architecture for
    observers raises SP907 instead of being silently ignored; without
    them it takes its plain ``run``. Fig 15 passes a
    :class:`~repro.engine.instrumentation.StepTraceObserver` to get its
    bandwidth samples.
    """
    spec = get_arch(name)
    # Chaos-test site: lets the fault-injection harness prove the
    # sweep-level retry path without a purpose-built flaky engine.
    maybe_raise("engine.run", f"{name}/{getattr(profile, 'name', '?')}")
    engine = spec.create(config)
    if spec.observable:
        return engine.run(profile, matrix, paper_nnz=paper_nnz,
                          observers=observers)
    if observers:
        raise ConfigError(
            f"[SP907] architecture {name!r} is not observable: it has "
            "no event stream to honor an observers= request with "
            f"(observable architectures: "
            f"{tuple(n for n in arch_names() if get_arch(n).observable)})"
        )
    return engine.run(profile, matrix, paper_nnz=paper_nnz)
