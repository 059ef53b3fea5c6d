"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` names *sites* — fixed strings compiled into the
library at the few places where real-world failures enter the system —
and describes what should go wrong there:

========================  ============================================
site                      where it is consulted
========================  ============================================
``parallel.worker``       :meth:`repro.experiments.runner.
                          ExperimentContext.simulate_many`'s fan-out
                          closure, start of every sweep point
                          (``worker_death`` kills a marked pool
                          worker, simulating an OOM kill)
``engine.run``            :func:`repro.engine.registry.run_engine`,
                          before the engine runs (``raise`` throws a
                          transient :class:`~repro.errors.
                          InjectedFault`)
``cache.get``             :meth:`repro.engine.cache.ResultCache.
                          get_entry`, on a stored result document
                          before it is parsed (``corrupt_text``
                          truncates / replaces it; the key is the
                          entry name ``<arch>-<workload>-<matrix>-
                          <digest>.json``)
``ingest.entry``          :func:`repro.formats.matrix_market.
                          read_matrix_market`, per entry line
                          (``corrupt_text`` mangles the line)
========================  ============================================

Whether a fault fires is a **pure function** of ``(seed, site, key)``
— no wall clock, no global RNG — so a chaos run is exactly
reproducible, and each ``(site, key)`` fires **at most once per
process**: the first attempt fails, the retry goes through, which is
what makes ``simulate_many(on_error="retry")`` under a plan
bit-identical to a fault-free run.

With no plan active every hook is a near-free no-op (one module-global
``None`` check), so production paths pay nothing.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import Diagnostic, InjectedFault

#: Fault kinds a plan may request at a site.
KINDS = ("raise", "worker_death", "corrupt_text")


@dataclass(frozen=True)
class Fault:
    """What goes wrong at one site.

    ``rate`` is the probability (deterministically derived from the
    plan seed and the site key) that a given key fires; ``keys``
    instead pins the exact keys that fire — when non-empty, ``rate``
    is ignored. ``payload`` parameterizes ``corrupt_text``:
    ``"truncate"`` halves the text, anything else replaces it with the
    payload text itself.
    """

    kind: str
    rate: float = 1.0
    keys: Tuple[str, ...] = ()
    payload: str = "truncate"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {KINDS}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic set of faults keyed by site name."""

    seed: int = 0
    faults: Dict[str, Fault] = field(default_factory=dict)

    def should_fire(self, site: str, key: str) -> bool:
        """Pure firing decision for one ``(site, key)`` (ignores the
        at-most-once bookkeeping, which is per-process state)."""
        fault = self.faults.get(site)
        if fault is None:
            return False
        if fault.keys:
            return key in fault.keys
        digest = hashlib.sha256(
            f"{self.seed}|{site}|{key}".encode("utf-8")
        ).digest()
        score = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return score < fault.rate


# ----------------------------------------------------------------------
# Per-process state: the active plan, the fired set, the fire log.
# ----------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None
_FIRED: set = set()
_LOG: List[Diagnostic] = []
_IN_WORKER = False


def install(plan: Optional[FaultPlan]) -> None:
    """Make ``plan`` the active plan for this process (None disarms).
    Arming a plan resets the at-most-once bookkeeping and the fire
    log; disarming preserves the log so a chaos test can still
    :func:`drain_fired` after its ``activate`` block exits."""
    global _PLAN
    _PLAN = plan
    if plan is not None:
        _FIRED.clear()
        _LOG.clear()


def active_plan() -> Optional[FaultPlan]:
    return _PLAN


@contextmanager
def activate(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager arming ``plan`` for the enclosed block."""
    previous = _PLAN
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def mark_worker() -> None:
    """Declare this process a pool worker — enables ``worker_death``
    faults, which are no-ops in the supervising parent (killing the
    parent would be a test-harness bug, not a simulated OOM)."""
    global _IN_WORKER
    _IN_WORKER = True


def drain_fired() -> List[Diagnostic]:
    """SP607 records of every fault fired in this process so far
    (cleared on read)."""
    out = list(_LOG)
    _LOG.clear()
    return out


def _fire(site: str, key: object) -> Optional[Fault]:
    """At-most-once firing decision; records SP607 when it fires."""
    if _PLAN is None:
        return None
    fault = _PLAN.faults.get(site)
    if fault is None:
        return None
    skey = str(key)
    mark = (site, skey)
    if mark in _FIRED or not _PLAN.should_fire(site, skey):
        return None
    _FIRED.add(mark)
    _LOG.append(Diagnostic.info(
        "SP607", f"injected {fault.kind} fault", f"{site}[{skey}]",
    ))
    return fault


# ----------------------------------------------------------------------
# Site hooks (each is a no-op unless a plan is active and fires)
# ----------------------------------------------------------------------
def maybe_die(site: str, key: object) -> None:
    """Kill this process if a ``worker_death`` fault fires — only ever
    inside a marked pool worker."""
    if not _IN_WORKER:
        return
    fault = _fire(site, key)
    if fault is not None and fault.kind == "worker_death":
        os._exit(17)


def maybe_raise(site: str, key: object) -> None:
    """Raise :class:`InjectedFault` if a ``raise`` fault fires."""
    fault = _fire(site, key)
    if fault is not None and fault.kind == "raise":
        diag = Diagnostic.info("SP607", "injected transient failure",
                               f"{site}[{key}]")
        raise InjectedFault(
            f"injected transient failure at {site}[{key}]",
            diagnostics=(diag,),
        )


def maybe_corrupt_text(site: str, key: object, text: str) -> str:
    """Return a mangled version of ``text`` if a ``corrupt_text``
    fault fires, else ``text`` unchanged."""
    fault = _fire(site, key)
    if fault is None or fault.kind != "corrupt_text":
        return text
    if fault.payload == "truncate":
        return text[: len(text) // 2]
    return fault.payload
