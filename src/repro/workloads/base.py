"""Workload base class shared by all Table-III applications."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.arch.profile import WorkloadProfile
from repro.dataflow.compiler import compile_program
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.program import OEIProgram
from repro.graphblas.matrix import Matrix


@dataclass
class FunctionalResult:
    """Outcome of a functional (GraphBLAS-mini) run."""

    output: np.ndarray
    n_iterations: int
    #: per-iteration active fraction of the iterated vector (1.0 when
    #: the workload is always dense)
    activity: Tuple[float, ...] = ()
    extras: Dict[str, object] = field(default_factory=dict)


class Workload(ABC):
    """One STA application: functional semantics + dataflow shape.

    Subclasses set the Table-III metadata (``name``, ``semiring``,
    ``reuse_pattern``, ``domain``) and implement :meth:`build_graph`
    and :meth:`run_functional`.
    """

    name: str = ""
    semiring: str = ""
    reuse_pattern: str = "cross-iteration, producer-consumer"
    domain: str = ""
    #: Iteration cap for convergence-driven algorithms; road-scale
    #: graphs would otherwise need thousands of Bellman-Ford rounds.
    max_iterations: int = 30

    # ------------------------------------------------------------------
    # Dataflow view
    # ------------------------------------------------------------------
    @abstractmethod
    def build_graph(self) -> DataflowGraph:
        """The loop-body dataflow graph (Fig 2 style)."""

    def program(self) -> OEIProgram:
        """Compiled OEI program (cached per instance)."""
        if not hasattr(self, "_program"):
            self._program = compile_program(self.build_graph())
        return self._program

    def lint(self):
        """Full static-analysis report for this workload — graph
        verifier, then (when the graph is clean) program and schedule
        checks on the compiled output. See :mod:`repro.analysis`."""
        from repro.analysis.passes import lint_workload

        return lint_workload(self)

    # ------------------------------------------------------------------
    # Functional view
    # ------------------------------------------------------------------
    @abstractmethod
    def run_functional(self, matrix: Matrix, **params) -> FunctionalResult:
        """Run the real algorithm on GraphBLAS-mini."""

    # ------------------------------------------------------------------
    # Timing view
    # ------------------------------------------------------------------
    def profile(
        self,
        matrix: Optional[Matrix] = None,
        n_iterations: Optional[int] = None,
        **params,
    ) -> WorkloadProfile:
        """Build the timing profile.

        With a matrix, the functional implementation runs first and its
        measured iteration count and activity drive the profile; with
        ``n_iterations`` the functional run is skipped. Only the count
        and the activity are read, so a subclass whose count is known
        in advance (gcn: ``n_layers``) passes it and never runs it.
        """
        activity: Tuple[float, ...] = ()
        if n_iterations is None:
            if matrix is None:
                raise ValueError(
                    f"workload {self.name!r} needs a matrix or an explicit "
                    "n_iterations to build a profile"
                )
            result = self.run_functional(matrix, **params)
            n_iterations = result.n_iterations
            activity = result.activity
        return WorkloadProfile.from_program(
            self.program(),
            n_iterations=max(1, n_iterations),
            activity=activity,
            **self._profile_overrides(),
        )

    def _profile_overrides(self) -> Dict[str, object]:
        """Per-workload profile fields (feature_dim, extra ops, ...)."""
        return {}

    # ------------------------------------------------------------------
    # OEI legality validation
    # ------------------------------------------------------------------
    def oei_bindings(self, matrix: Matrix):
        """Executor inputs for this workload's compiled program, or
        ``NotImplementedError`` for workloads whose iterated operand is
        not a plain vector (GCN) or has no OEI path (cg, bgs)."""
        from repro.workloads.bindings import BINDING_FACTORIES

        factory = BINDING_FACTORIES.get(self.name)
        if factory is None:
            raise NotImplementedError(
                f"workload {self.name!r} has no OEI executor bindings"
            )
        return factory(self, matrix)

    def validate_oei(
        self, matrix: Matrix, n_iterations: int = 6, subtensor_cols: int = 32
    ):
        """Prove numerically that this workload under the OEI pair
        schedule matches sequential execution on ``matrix``; returns the
        OEI trace (see :func:`repro.oei.validate
        .assert_oei_matches_reference`)."""
        from repro.oei.validate import assert_oei_matches_reference

        bindings = self.oei_bindings(matrix)
        return assert_oei_matches_reference(
            bindings.csc,
            bindings.csr,
            self.program(),
            bindings.x0,
            n_iterations,
            aux_provider=bindings.aux_provider,
            scalar_update=bindings.scalar_update,
            subtensor_cols=subtensor_cols,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
