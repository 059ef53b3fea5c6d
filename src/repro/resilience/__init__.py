"""Fault tolerance for sweep execution.

Production-scale sweeps meet real failures: pool workers OOM-killed
mid-sweep, cache files torn by crashed writers, malformed SuiteSparse
downloads. The fan-out policy behind
``ExperimentContext.simulate_many``'s ``on_error`` lives in
:func:`repro.scheduler.run_fanout`: pool breaks degrade to in-process
execution (SP601), transient item failures retry (SP602), and
exhausted items are recorded as first-class failures (SP603).

This package holds :mod:`repro.resilience.faults` — a seeded,
deterministic :class:`FaultPlan` injecting worker death, cache-entry
corruption, transient engine failures, and malformed-ingest bytes at
named sites, so every degradation path above is *provable* by the
chaos suite rather than hoped-for.

``docs/robustness.md`` describes the failure model; the SP6xx codes
live in the :mod:`repro.analysis.diagnostics` registry like every
other diagnostic.
"""

from repro.resilience.faults import (
    Fault,
    FaultPlan,
    activate,
    active_plan,
    drain_fired,
    install,
    maybe_corrupt_text,
    maybe_die,
    maybe_raise,
)

__all__ = [
    "Fault",
    "FaultPlan",
    "activate",
    "active_plan",
    "drain_fired",
    "install",
    "maybe_corrupt_text",
    "maybe_die",
    "maybe_raise",
]
