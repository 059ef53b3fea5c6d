"""Exception hierarchy and structured diagnostics for the reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without also swallowing programming
errors such as ``TypeError``.

Errors raised by the static verifier (:mod:`repro.analysis`), the
dataflow compiler, and the OEI scheduler additionally carry
:class:`Diagnostic` records: a stable code (``SP101`` ...), a severity,
a graph/file location, and a one-line fix hint. ``docs/analysis.md``
catalogues every code.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple


class Severity(Enum):
    """How bad a diagnostic is.

    ``ERROR`` diagnostics fail compilation / lint / CI; ``WARNING``
    diagnostics are legal but suspicious (e.g. a fused e-wise chain
    gated by a same-iteration reduction, which blocks OEI reuse);
    ``INFO`` is purely informational.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Diagnostic:
    """One structured finding of the static verifier or self-lint.

    ``code`` is stable across releases (``SP1xx`` graph, ``SP2xx``
    fusion/OEI, ``SP3xx`` schedule, ``SP9xx`` selfcheck); ``location``
    names where the defect lives (``graph pr / op spmv`` or
    ``arch/config.py:113``); ``hint`` is one line of fix guidance.
    """

    code: str
    severity: Severity
    message: str
    location: str = ""
    hint: str = ""

    def __str__(self) -> str:
        loc = f" at {self.location}" if self.location else ""
        hint = f" (fix: {self.hint})" if self.hint else ""
        return f"{self.code} [{self.severity.value}]{loc}: {self.message}{hint}"

    def as_dict(self) -> dict:
        """JSON-plain representation (severity as its string value) —
        the form run manifests and fault logs persist."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location,
            "hint": self.hint,
        }

    # Convenience constructors keep call sites to one line.
    @classmethod
    def error(cls, code: str, message: str, location: str = "",
              hint: str = "") -> "Diagnostic":
        return cls(code, Severity.ERROR, message, location, hint)

    @classmethod
    def warning(cls, code: str, message: str, location: str = "",
                hint: str = "") -> "Diagnostic":
        return cls(code, Severity.WARNING, message, location, hint)

    @classmethod
    def info(cls, code: str, message: str, location: str = "",
             hint: str = "") -> "Diagnostic":
        return cls(code, Severity.INFO, message, location, hint)


class ReproError(Exception):
    """Base class for all errors raised by this library.

    ``diagnostics`` optionally attaches the structured findings behind
    the failure, so callers (and the CLI) can report codes and
    locations instead of parsing message strings.
    """

    def __init__(self, *args, diagnostics: Sequence[Diagnostic] = ()) -> None:
        super().__init__(*args)
        self.diagnostics: Tuple[Diagnostic, ...] = tuple(diagnostics)

    @property
    def codes(self) -> Tuple[str, ...]:
        """Diagnostic codes attached to this error, in emission order."""
        return tuple(d.code for d in self.diagnostics)


class ShapeError(ReproError, ValueError):
    """Operands have incompatible shapes."""


class FormatError(ReproError, ValueError):
    """A sparse tensor is structurally invalid (bad indptr, unsorted
    indices, out-of-range coordinates, ...)."""


class CompileError(ReproError, ValueError):
    """The dataflow compiler or static verifier rejected a tensor
    program (e.g. no OEI subgraph where one was required, or an
    unfusable e-wise group)."""


class ScheduleError(ReproError, RuntimeError):
    """The OEI scheduler or the Sparsepipe pipeline reached an
    inconsistent state (a bug, not a user error)."""


class BufferError_(ReproError, RuntimeError):
    """The on-chip buffer model was asked to do something impossible,
    such as freeing space that was never reserved."""


class ConfigError(ReproError, ValueError):
    """An architecture or experiment configuration is invalid."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to converge within its iteration cap."""


class InjectedFault(ReproError, RuntimeError):
    """A deterministic chaos fault (:mod:`repro.resilience.faults`)
    fired at an instrumented site. Never raised in production runs —
    only while a :class:`~repro.resilience.faults.FaultPlan` is
    active."""
