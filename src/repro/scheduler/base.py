"""Supervised fan-out: one function over two execution substrates.

:func:`run_fanout` maps ``fn`` over ``items`` and owns everything a
sweep needs around the calls: ordered results, the failure policy
(``raise`` / ``skip`` / ``retry``), bounded re-attempts (SP602),
failure records (SP603), the per-item watchdog (SP606), pool-break
degradation (SP601) and the ``scheduler.*`` counters.

The *backend* picks where first attempts run:

``inprocess``
    Serially in the calling process — no pickling, no forks,
    breakpoints work.
``localpool``
    One ``ProcessPoolExecutor`` pass (this is the only module allowed
    to name it — selfcheck SP914), when there is more than one item
    and more than one worker is allowed.

Every other attempt — retries, and the first attempts a broken or
unavailable pool never answered — runs here, item by item, under the
watchdog, so the at-most-once-per-process fault semantics of
:mod:`repro.resilience.faults` hold identically on both backends and
the chaos suite doubles as the conformance oracle. See
``docs/scheduling.md``.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar,
)

from repro.errors import ConfigError, Diagnostic, WatchdogTimeout
from repro.resilience import faults

T = TypeVar("T")

#: Every backend, by the name ``run_fanout`` and ``--scheduler`` accept.
BACKENDS = ("inprocess", "localpool")

#: Valid ``on_error`` policies of :func:`run_fanout`.
POLICIES = ("raise", "skip", "retry")

#: Default bounded re-attempts under ``on_error="retry"``.
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


def _worker_boot(initializer, initargs, plan) -> None:
    """Pool-worker initializer: mark the process as a worker (arms
    ``worker_death`` faults), install the parent's fault plan (fork
    inherits it, spawn would not), then run the caller's init."""
    faults.mark_worker()
    if plan is not None:
        faults.install(plan)
    if initializer is not None:
        initializer(*initargs)


def _pooled_call(payload: Tuple) -> Tuple:
    """In-worker wrapper: run one item and return ``("ok", result)`` or
    ``("err", exception)`` — so a raising item is a *value*, not a dead
    map iterator."""
    fn, item = payload
    try:
        result = fn(item)
    except Exception as exc:
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(repr(exc))
        return ("err", exc)
    return ("ok", result)


def _call_with_watchdog(fn: Callable[[T], Any], item: T,
                        timeout_s: Optional[float]) -> Any:
    """Run one item, bounded by a watchdog thread when ``timeout_s``
    is set. A timed-out attempt raises :class:`WatchdogTimeout`; the
    stuck thread is a daemon and cannot block interpreter exit."""
    if timeout_s is None:
        return fn(item)
    box: Dict[str, Any] = {}

    def target() -> None:
        try:
            box["result"] = fn(item)
        except BaseException as exc:  # re-raised in the caller below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise WatchdogTimeout(
            f"item exceeded the {timeout_s}s watchdog budget",
            diagnostics=(Diagnostic.error(
                "SP606", f"watchdog expired after {timeout_s}s",
            ),),
        )
    if "error" in box:
        raise box["error"]
    return box["result"]


def _pool_pass(fn, items: List, max_workers: Optional[int], initializer,
               initargs: Sequence, outcome: FanoutOutcome) -> List[Tuple]:
    """First attempts of ``items`` through one pool map, as
    ``(tag, value)`` pairs in input order. Items the pool never
    answered (break, result-pickling failure, no pool at all) are
    missing from the tail of the returned list."""
    answered: List[Tuple] = []
    try:
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_worker_boot,
            initargs=(initializer, tuple(initargs), faults.active_plan()),
        ) as pool:
            try:
                # map() submits every chunk up front; a worker that dies
                # meanwhile breaks the pool inside this call already.
                for pair in pool.map(
                    _pooled_call, [(fn, item) for item in items],
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
        # No semaphores / fork denied: silent in-process degrade.
        pass
    return answered


def _count(metrics, name: str, n: int = 1) -> None:
    if metrics is not None and n:
        metrics.counter(name).inc(n)


def run_fanout(
    fn: Callable[[T], Any],
    items: Iterable[T],
    backend: str = "inprocess",
    max_workers: Optional[int] = None,
    initializer: Optional[Callable] = None,
    initargs: Sequence = (),
    timeout_s: Optional[float] = None,
    on_error: str = "raise",
    retries: int = DEFAULT_RETRIES,
    labels: Optional[Sequence[str]] = None,
    metrics=None,
) -> FanoutOutcome:
    """Map ``fn`` over ``items`` under the supervised failure policy
    (``"raise"`` | ``"skip"`` | ``"retry"``).

    First attempts run in one pool pass on ``backend="localpool"``
    (more than one item, more than one worker allowed), in this
    process otherwise. Every other attempt runs here under the
    ``timeout_s`` watchdog, lazily, item by item — a ``"raise"``
    fan-out stops at the first failure — after ``initializer(*initargs)``
    has run once in this process. A pool worker runs ``initializer``
    at start-up, so ``fn`` and ``initializer`` must be picklable
    module-level functions there.

    Order-preserving and, for pure ``fn``, bit-identical to a serial
    run regardless of backend or degradation path. ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) receives the
    ``scheduler.*`` counters when given.
    """
    if on_error not in POLICIES:
        raise ValueError(
            f"on_error must be one of {POLICIES}, got {on_error!r}")
    check_backend(backend)
    items = list(items)
    outcome = FanoutOutcome(results=[None] * len(items))
    if not items:
        return outcome
    _count(metrics, "scheduler.submitted", len(items))
    _count(metrics, f"scheduler.backend.{backend}")
    first: List[Tuple] = []
    if backend == "localpool" and len(items) > 1 and (
        max_workers is None or max_workers > 1
    ):
        first = _pool_pass(fn, items, max_workers, initializer, initargs,
                           outcome)
    initialized = False

    def attempt(item: T) -> Tuple:
        nonlocal initialized
        if not initialized:
            initialized = True
            if initializer is not None:
                initializer(*initargs)
        try:
            return ("ok", _call_with_watchdog(fn, item, timeout_s))
        except Exception as exc:
            return ("err", exc)

    budget = 1 + (retries if on_error == "retry" else 0)
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
