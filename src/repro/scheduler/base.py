"""Supervised fan-out: one function over two execution substrates.

:func:`run_fanout` maps ``fn`` over ``items`` and owns everything a
sweep needs around the calls: ordered results, the failure policy
(``raise`` / ``skip`` / ``retry``), bounded re-attempts (SP602),
failure records (SP603), pool-break degradation (SP601) and the
``scheduler.*`` counters.

The *backend* picks where first attempts run; left unnamed, it is
``localpool`` iff more than one worker is allowed:

``inprocess``
    Serially in the calling process — no pickling, no forks,
    breakpoints work.
``localpool``
    One ``ProcessPoolExecutor`` pass over forked workers (this is the
    only module allowed to name it — selfcheck SP914), when there is
    more than one item and more than one worker is allowed. The
    workers inherit ``fn`` and ``items`` by fork, so ``fn`` may be any
    closure and each pooled call ships only an item index.

Every other attempt — retries, and the first attempts a broken or
unavailable pool never answered — runs here, item by item, so the
at-most-once-per-process fault semantics of
:mod:`repro.resilience.faults` hold identically on both backends and
the chaos suite doubles as the conformance oracle. See
``docs/scheduling.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar,
)

from repro.errors import ConfigError, Diagnostic
from repro.resilience import faults

T = TypeVar("T")

#: Every backend, by the name ``run_fanout`` accepts.
BACKENDS = ("inprocess", "localpool")

#: Valid ``on_error`` policies of :func:`run_fanout`.
POLICIES = ("raise", "skip", "retry")

#: Bounded re-attempts of an item under ``on_error="retry"``.
DEFAULT_RETRIES = 2


@dataclass(frozen=True)
class PointFailure:
    """One item that exhausted its attempts."""

    index: int
    item: Any
    error: str
    attempts: int
    diagnostic: Diagnostic


@dataclass
class FanoutOutcome:
    """Everything one supervised fan-out produced."""

    #: Per-input-slot results; ``None`` where the item failed.
    results: List[Any] = field(default_factory=list)
    #: Items that exhausted their attempts (empty under ``"raise"``).
    failures: List[PointFailure] = field(default_factory=list)
    #: Retry diagnostics (SP602) by item index — non-empty entries mean
    #: the item eventually succeeded but not on its first attempt.
    retried: Dict[int, List[Diagnostic]] = field(default_factory=dict)
    #: Fan-out-wide diagnostics (SP601 substrate degradations).
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: True when the substrate degraded and attempts ran in-process.
    pool_broken: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def failed_indices(self) -> Dict[int, PointFailure]:
        return {f.index: f for f in self.failures}


def check_backend(name: str) -> None:
    """ConfigError unless ``name`` is one of :data:`BACKENDS`."""
    if name not in BACKENDS:
        raise ConfigError(
            f"unknown scheduler backend {name!r}; expected one of {BACKENDS}")


def pool_chunksize(n_items: int, max_workers: Optional[int]) -> int:
    """Chunk size giving each worker ~2 chunks for tail-balancing.

    ``ProcessPoolExecutor`` defaults ``max_workers`` to
    ``os.cpu_count()``, so that — not a guess from the item count — is
    the worker count the heuristic must divide by.
    """
    workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
    return max(1, -(-n_items // (max(1, workers) * 2)))


#: ``(fn, items)`` of the fan-out a pool worker was forked for.
_WORK: Optional[Tuple[Callable, List]] = None


def _worker_boot(fn, items, plan) -> None:
    """Pool-worker initializer: mark the process as a worker (arms
    ``worker_death`` faults), install the parent's fault plan (resets
    the at-most-once bookkeeping) and keep the inherited work."""
    global _WORK
    faults.mark_worker()
    if plan is not None:
        faults.install(plan)
    _WORK = (fn, items)


def _pooled_call(index: int) -> Tuple:
    """In-worker wrapper: run item ``index`` and return ``("ok",
    result)`` or ``("err", exception)`` — so a raising item is a
    *value*, not a dead map iterator."""
    fn, items = _WORK
    try:
        result = fn(items[index])
    except Exception as exc:
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(repr(exc))
        return ("err", exc)
    return ("ok", result)


def _pool_pass(fn, items: List, max_workers: Optional[int],
               outcome: FanoutOutcome) -> List[Tuple]:
    """First attempts of ``items`` through one map over forked workers,
    as ``(tag, value)`` pairs in input order. Items the pool never
    answered (break, result-pickling failure, no pool at all) are
    missing from the tail of the returned list."""
    answered: List[Tuple] = []
    try:
        with ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_boot,
            initargs=(fn, items, faults.active_plan()),
        ) as pool:
            try:
                # map() submits every chunk up front; a worker that dies
                # meanwhile breaks the pool inside this call already.
                for pair in pool.map(
                    _pooled_call, range(len(items)),
                    chunksize=pool_chunksize(len(items), max_workers),
                ):
                    answered.append(pair)
            except BrokenProcessPool:
                outcome.pool_broken = True
                outcome.diagnostics.append(Diagnostic.warning(
                    "SP601",
                    f"process pool broke after {len(answered)}/{len(items)} "
                    "item(s) (worker killed?); completing the sweep "
                    "serially in-process"))
            except Exception:
                # A result failed to come back (e.g. unpicklable); the
                # chunked iterator is dead — the tail runs in-process.
                pass
    except (OSError, PermissionError, ValueError):
        # No semaphores / no fork on this host: silent in-process
        # degrade.
        pass
    return answered


def _count(metrics, name: str, n: int = 1) -> None:
    if metrics is not None and n:
        metrics.counter(name).inc(n)


def run_fanout(
    fn: Callable[[T], Any],
    items: Iterable[T],
    backend: Optional[str] = None,
    max_workers: Optional[int] = None,
    on_error: str = "raise",
    labels: Optional[Sequence[str]] = None,
    metrics=None,
    outcome: Optional[FanoutOutcome] = None,
) -> FanoutOutcome:
    """Map ``fn`` over ``items`` under the supervised failure policy
    (``"raise"`` | ``"skip"`` | ``"retry"``, which re-attempts an item
    up to :data:`DEFAULT_RETRIES` times).

    ``backend=None`` picks ``"localpool"`` iff more than one worker is
    allowed (``max_workers`` > 1), ``"inprocess"`` otherwise. First
    attempts run in one pool pass on ``"localpool"`` (more than one
    item, more than one worker allowed), in this process otherwise.
    Every other attempt runs here, lazily, item by item — a
    ``"raise"`` fan-out stops at the first failure. Pool workers are
    forked, so ``fn`` may be any closure and sees the caller's state
    as it was at the fork; only its results must be picklable.

    Order-preserving and, for pure ``fn``, bit-identical to a serial
    run regardless of backend or degradation path. ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) receives the
    ``scheduler.*`` counters when given. A caller-owned ``outcome`` is
    filled in place, each result as the ordered loop confirms it, so
    after a ``"raise"`` it holds exactly the items before the failing
    one.
    """
    if on_error not in POLICIES:
        raise ValueError(
            f"on_error must be one of {POLICIES}, got {on_error!r}")
    if backend is None:
        backend = "localpool" if (max_workers or 1) > 1 else "inprocess"
    check_backend(backend)
    items = list(items)
    outcome = outcome if outcome is not None else FanoutOutcome()
    outcome.results = [None] * len(items)
    if not items:
        return outcome
    _count(metrics, "scheduler.submitted", len(items))
    _count(metrics, f"scheduler.backend.{backend}")
    first: List[Tuple] = []
    if backend == "localpool" and len(items) > 1 and (
        max_workers is None or max_workers > 1
    ):
        first = _pool_pass(fn, items, max_workers, outcome)

    def attempt(item: T) -> Tuple:
        try:
            return ("ok", fn(item))
        except Exception as exc:
            return ("err", exc)

    budget = 1 + (DEFAULT_RETRIES if on_error == "retry" else 0)
    for index, item in enumerate(items):
        label = labels[index] if labels else repr(item)
        tag, value = first[index] if index < len(first) else attempt(item)
        attempts = 1
        while tag == "err" and attempts < budget:
            outcome.retried.setdefault(index, []).append(Diagnostic.warning(
                "SP602",
                f"attempt {attempts}/{budget} failed ({value}); retrying",
                label,
            ))
            _count(metrics, "scheduler.retries")
            tag, value = attempt(item)
            attempts += 1
        if tag == "ok":
            outcome.results[index] = value
            _count(metrics, "scheduler.completed")
            continue
        _count(metrics, "scheduler.failed")
        if on_error == "raise":
            _count(metrics, "scheduler.degraded", len(outcome.diagnostics))
            raise value
        outcome.failures.append(PointFailure(
            index=index, item=item, error=repr(value), attempts=attempts,
            diagnostic=Diagnostic.error(
                "SP603", f"failed after {attempts} attempt(s): {value}",
                label,
            ),
        ))
    _count(metrics, "scheduler.degraded", len(outcome.diagnostics))
    return outcome
