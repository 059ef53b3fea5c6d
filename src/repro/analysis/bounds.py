"""Static traffic and buffer-occupancy bounds (the absint oracle).

From a workload profile and a structure-derived
:class:`~repro.arch.loaders.LoadPlan` — *not* from running the
simulator — this module derives per-category upper bounds on DRAM
traffic and on peak on-chip buffer occupancy, then packages them with
the abstract interpreter's verdict into a :class:`StaticReport`.

Why each bound is sound, against the simulator's actual accounting
(:mod:`repro.arch.simulator`):

- ``csc`` / ``csr_eager``: per OEI pair the eager prefetcher only moves
  future column bytes forward, so demand + prefetch together stream the
  matrix exactly once — each category is individually bounded by
  ``matrix_stream_bytes`` and their sum equals it. A streamed (non-OEI)
  iteration charges exactly one ``csc`` stream and no eager traffic.
- ``csr_reload``: reload is a re-fetch of an evicted reuse-window
  element; elements are admitted once per pair and never re-admitted,
  so per pair reload is bounded by the bytes that ever enter the window
  (:func:`repro.oei.reuse.window_entry_bytes`).
- ``vector`` / ``writeback``: the per-step reads are
  ``width(s) * activity`` terms whose step sums telescope to the full
  vector length ``n`` (the plan's widths tile ``[0, n)``), plus the
  profile's flat ``extra_dram_bytes_per_iteration`` — so the per-pair
  and per-stream totals are closed forms, exact up to float fold order.
- ``buffer_peak_bytes``: live window occupancy is dominated by the
  no-eviction admission series
  (:func:`repro.oei.reuse.window_peak_bytes`), and prefetch residency
  is slack-bounded by the CSR window capacity; their sum bounds every
  occupancy sample. Non-OEI runs never touch the buffer, so the bound
  collapses to zero.

The bounds are *tight* for vector/writeback (equality modulo rounding)
and genuinely upper for the matrix-side categories; the differential
oracle test checks ``simulated <= bound`` for every category on every
golden workload and backend. A violation means the analyzer or the
simulator is wrong — both are bugs worth failing CI over (SP702 /
SP703).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping

from repro.analysis.absint import (
    AbstractEnv,
    StaticOEIDecision,
    abstract_interpret,
    static_oei_decision,
    verify_absint,
)
from repro.analysis.diagnostics import DiagnosticReport
from repro.dataflow.graph import DataflowGraph, TensorKind

# The arch/oei layers import the analysis package (the compiler runs
# the verifier), so everything simulator-side is imported lazily inside
# the functions that need it.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.config import SparsepipeConfig
    from repro.arch.loaders import LoadPlan
    from repro.arch.profile import WorkloadProfile
    from repro.arch.stats import SimResult

#: Relative slack applied when comparing a simulated value against a
#: bound: the closed forms above equal the simulator's per-step sums up
#: to floating-point fold order, so a few ULPs of headroom are needed —
#: anything beyond this is a real violation.
REL_TOLERANCE = 1e-9
ABS_TOLERANCE_BYTES = 1.0


@dataclass(frozen=True)
class TrafficBounds:
    """Per-category upper bounds for one full application run."""

    by_category: Mapping[str, float]
    total_bytes: float
    buffer_peak_bytes: float
    n_pairs: int
    n_streams: int

    def as_dict(self) -> dict:
        return {
            "by_category": dict(self.by_category),
            "total_bytes": self.total_bytes,
            "buffer_peak_bytes": self.buffer_peak_bytes,
            "n_pairs": self.n_pairs,
            "n_streams": self.n_streams,
        }


def traffic_bounds(
    profile: "WorkloadProfile",
    plan: "LoadPlan",
    config: "SparsepipeConfig",
    capacity: float,
) -> TrafficBounds:
    """Derive the run's traffic/buffer bounds from structure alone,
    mirroring the simulator's pair/stream interleaving exactly."""
    from repro.arch.config import VECTOR_ELEMENT_BYTES
    from repro.arch.stats import TRAFFIC_CATEGORIES
    from repro.oei.reuse import window_entry_bytes, window_peak_bytes
    from repro.oei.schedule import oei_passes

    veb_f = VECTOR_ELEMENT_BYTES * profile.feature_dim
    n = float(plan.n)
    msb = plan.matrix_stream_bytes
    entry_bytes = window_entry_bytes(plan)
    aux = profile.aux_streams
    wb = profile.writeback_streams
    extra = profile.extra_dram_bytes_per_iteration

    bounds: Dict[str, float] = {cat: 0.0 for cat in TRAFFIC_CATEGORIES}
    total = 0.0
    n_pairs = 0
    n_streams = 0

    for k, paired in oei_passes(profile.n_iterations, profile.has_oei):
        if paired:
            act1 = profile.activity_at(k)
            act2 = profile.activity_at(k + 1)
            both = act1 + act2
            bounds["csc"] += msb
            if config.eager_is:
                bounds["csr_eager"] += msb
            bounds["csr_reload"] += entry_bytes
            vector = veb_f * n * (act1 + aux * both) + 2.0 * extra
            writeback = veb_f * n * wb * both
            bounds["vector"] += vector
            bounds["writeback"] += writeback
            # csc + csr_eager together stream the matrix exactly once.
            total += msb + entry_bytes + vector + writeback
            n_pairs += 1
        else:
            act = profile.activity_at(k)
            vector = veb_f * n * act * (1.0 + aux) + extra
            writeback = veb_f * n * wb * act
            bounds["csc"] += msb
            bounds["vector"] += vector
            bounds["writeback"] += writeback
            total += msb + vector + writeback
            n_streams += 1

    if n_pairs:
        peak = window_peak_bytes(plan) + capacity * config.csr_window_fraction
    else:
        peak = 0.0
    return TrafficBounds(
        by_category=bounds,
        total_bytes=total,
        buffer_peak_bytes=peak,
        n_pairs=n_pairs,
        n_streams=n_streams,
    )


def _within(actual: float, bound: float) -> bool:
    return actual <= bound * (1.0 + REL_TOLERANCE) + ABS_TOLERANCE_BYTES


@dataclass
class StaticReport:
    """Everything the static analysis knows about one (workload,
    matrix, config) point, checkable against a simulated result."""

    workload: str
    matrix: str
    env: AbstractEnv
    oei: StaticOEIDecision
    bounds: TrafficBounds
    diagnostics: DiagnosticReport = field(default_factory=DiagnosticReport)

    # ------------------------------------------------------------------
    # The oracle: simulated actuals must respect every bound.
    # ------------------------------------------------------------------
    def check_against(self, result: "SimResult") -> DiagnosticReport:
        """SP702/SP703 diagnostics for every bound the simulated
        ``result`` violates (an empty report means the oracle holds)."""
        from repro.arch.stats import TRAFFIC_CATEGORIES

        report = DiagnosticReport(
            subject=f"oracle {self.workload}/{self.matrix}"
        )
        loc = f"workload {self.workload} / matrix {self.matrix}"
        for cat in TRAFFIC_CATEGORIES:
            actual = result.traffic.bytes_by_category.get(cat, 0.0)
            bound = self.bounds.by_category[cat]
            if not _within(actual, bound):
                report.add(
                    "SP702",
                    f"simulated {cat} traffic {actual:.1f} B exceeds the "
                    f"static bound {bound:.1f} B",
                    loc,
                )
        if not _within(result.traffic.total_bytes, self.bounds.total_bytes):
            report.add(
                "SP702",
                f"simulated total traffic {result.traffic.total_bytes:.1f} B "
                f"exceeds the static bound {self.bounds.total_bytes:.1f} B",
                loc,
            )
        if not _within(result.buffer_peak_bytes, self.bounds.buffer_peak_bytes):
            report.add(
                "SP703",
                f"simulated peak buffer occupancy "
                f"{result.buffer_peak_bytes:.1f} B exceeds the static bound "
                f"{self.bounds.buffer_peak_bytes:.1f} B",
                loc,
            )
        return report

    def to_dict(self) -> dict:
        """JSON-plain form (the ``check --format json`` document)."""
        return {
            "workload": self.workload,
            "matrix": self.matrix,
            "oei": self.oei.as_dict(),
            "bounds": self.bounds.as_dict(),
            "edges": {
                name: {
                    "kind": value.kind.value,
                    "nnz_hi": (None if math.isinf(value.nnz.hi)
                               else value.nnz.hi),
                    "reuse_distance": value.reuse_distance,
                }
                for name, value in sorted(self.env.items())
            },
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }


def static_report(
    graph: DataflowGraph,
    profile: "WorkloadProfile",
    plan: "LoadPlan",
    config: "SparsepipeConfig",
    capacity: float,
    matrix: str = "",
) -> StaticReport:
    """Build the full static report for one analysis point."""
    env = abstract_interpret(
        graph, n=plan.n, matrix_nnz=_constant_matrix_nnz(graph, plan)
    )
    return StaticReport(
        workload=graph.name,
        matrix=matrix,
        env=env,
        oei=static_oei_decision(graph),
        bounds=traffic_bounds(profile, plan, config, capacity),
        diagnostics=verify_absint(graph),
    )


def _constant_matrix_nnz(graph: DataflowGraph, plan: "LoadPlan") -> Dict[str, int]:
    """Pin every constant matrix tensor to the load plan's nnz — the
    plan is built from the one shared matrix all 11 workloads stream."""
    return {
        name: plan.total_nnz
        for name, t in graph.tensors.items()
        if t.kind is TensorKind.MATRIX and t.constant
    }
