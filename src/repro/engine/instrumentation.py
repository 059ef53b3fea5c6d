"""Pluggable simulator instrumentation.

The Sparsepipe pipeline simulator reports five event kinds while it
walks the OEI schedule:

- ``transfer(category, bytes)`` — one DRAM transfer was accounted,
- ``prefetch(step, bytes)``     — the eager CSR loader pulled future
  column bytes forward with leftover bandwidth (Fig 9),
- ``evict(step, bytes)``        — the buffer spilled far-reload rows
  under OOM (the ping-pong traffic of Fig 15d),
- ``repack(step)``              — the buffer compacted consumed
  elements (Section IV-D3),
- ``step(index, cycles, moved, stage_cycles)`` — the step committed;
  always the **last** event of its step, after every transfer /
  prefetch / evict / repack it contains. ``index`` is the pipeline
  step, or ``FILL_STEP`` for the once-per-pair pipeline-fill charge.

Both backends deliver that stream in one form: one
:class:`ReplayBatch` of per-step columns per OEI pair or stream,
handed to every observer's one hook, :meth:`Observer.on_replay`,
through :meth:`Instrumentation.replay`. The reference loop collects
each step's values as it walks the steps and transposes them once per
pair or stream; the vectorized backend passes its kernels' own vectors
and memoizes each batch, so observers may cache derived templates on
``batch.cache``. Either way the columns hold the reference loop's
values, and the event order they encode is fixed by the batch (see
:class:`EventLogObserver`). With **no observers registered neither
backend builds a batch** (the zero-observer fast path), so
instrumentation costs nothing unless asked for.

:class:`StepTraceObserver` accumulates the per-step
:class:`~repro.arch.stats.StepTrace` behind Fig 15's bandwidth
samples; :class:`CounterObserver` adds per-category event counters;
:class:`EventLogObserver` records the raw event stream (tests,
debugging). :class:`~repro.arch.pipeline_viz.PipelineActivityObserver`
renders per-step bottlenecks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.stats import StepTrace

#: Step index used for the once-per-pair pipeline-fill latency charge
#: (first DRAM access + adder-tree drain), which belongs to no
#: sub-tensor step.
FILL_STEP = -1


def running_total(start: float, amounts) -> np.ndarray:
    """``[start, start + a0, (start + a0) + a1, ...]``: the value after
    each ``total += a`` of a sequential loop, bit for bit, as one seeded
    ``cumsum`` (a strict left fold, unlike ``np.sum``)."""
    buf = np.empty(len(amounts) + 1)
    buf[0] = start
    buf[1:] = amounts
    return buf.cumsum()


def left_fold(start: float, amounts) -> float:
    """``start`` plus every amount, added in order: the float a ``+=``
    loop ends on. Zero amounts (events that never fired) add ``0.0``,
    the float-addition identity for the non-negative totals folded
    here."""
    return float(running_total(start, amounts)[-1])


class Observer:
    """Base observer: override :meth:`on_replay`."""

    def on_replay(self, batch: ReplayBatch) -> None:
        """Consume one pair or stream of the event stream, in step
        order. Batches may be replayed more than once (the vectorized
        backend memoizes them per kernel), so an observer must not
        mutate the columns."""


class ReplayBatch:
    """One step-aligned span of the event stream — a single pair or
    stream — as per-step columns. A step's index is its position.

    - ``cycles`` — each step's duration (float64),
    - ``moved`` — ``(category, bytes)`` column pairs in account order;
      a step's ``transfer`` events are its non-zero amounts, in that
      order, and its ``prefetch`` is its ``csr_eager`` amount,
    - ``evict`` — bytes the buffer spilled at each step,
    - ``repack`` — whether the buffer repacked at each step (bool),
    - ``stages`` — ``(stage, busy cycles)`` column pairs, one per
      reported component (``os``, ``ewise``, ``is``, ``extra``,
      ``memory``),
    - ``fill`` — the closing ``FILL_STEP`` charge, which moves nothing.

    Event *counts* are ``np.count_nonzero`` of a column. Batches are
    memoized by the vectorized backend (one per kernel) and replayed
    once per iteration, so ``cache`` gives observers a stable home for
    derived templates keyed by consumer (``batch.cache["timeline"]``
    holds the timeline's pre-rendered event text, etc.).
    """

    __slots__ = ("cycles", "moved", "evict", "repack", "stages", "fill",
                 "cache")

    def __init__(self, cycles: np.ndarray,
                 moved: Tuple[Tuple[str, np.ndarray], ...],
                 evict: np.ndarray, repack: np.ndarray,
                 stages: Tuple[Tuple[str, np.ndarray], ...],
                 fill: float) -> None:
        self.cycles = cycles
        self.moved = moved
        self.evict = evict
        self.repack = repack
        self.stages = stages
        self.fill = fill
        self.cache: Dict[object, object] = {}

    def all_cycles(self) -> np.ndarray:
        """Every charge in commit order: the steps, then the fill."""
        return np.append(self.cycles, self.fill)

    def rows(self) -> Iterator[tuple]:
        """The steps as Python values, in order: ``(index, cycles,
        moved, evict, repack, stages)``, with ``moved`` and ``stages``
        fresh dicts in column order. The fill charge is no row."""
        return zip(
            range(self.cycles.size), self.cycles.tolist(),
            _dicts(self.moved, self.cycles.size), self.evict.tolist(),
            self.repack.tolist(), _dicts(self.stages, self.cycles.size),
        )


def _dicts(columns: Tuple[Tuple[str, np.ndarray], ...], n: int) -> list:
    """One ``{name: value}`` dict per step from ``(name, column)``
    pairs."""
    names = [name for name, _ in columns]
    values = zip(*(col.tolist() for _, col in columns)) if columns else [()] * n
    return [dict(zip(names, row)) for row in values]


class Instrumentation:
    """Fan-out dispatcher the simulator drives.

    Truthiness is the fast-path test: ``if instr:`` guards every record
    a backend builds, so an empty observer set costs one branch per use.
    """

    __slots__ = ("observers",)

    def __init__(self, observers: Sequence[Observer] = ()) -> None:
        self.observers = tuple(observers)

    def __bool__(self) -> bool:
        return bool(self.observers)

    def replay(self, batch: ReplayBatch) -> None:
        """Deliver one batch to every observer, in registration order."""
        for o in self.observers:
            o.on_replay(batch)

    def find(self, cls: type) -> Optional[Observer]:
        """First registered observer of ``cls`` (or None)."""
        for o in self.observers:
            if isinstance(o, cls):
                return o
        return None


class StepTraceObserver(Observer):
    """Accumulates the per-step :class:`StepTrace` — the record behind
    Fig 15's bandwidth-over-progress samples. Fig 15 registers one;
    a run without it returns no samples."""

    def __init__(self) -> None:
        self.trace = StepTrace()

    def on_replay(self, batch: ReplayBatch) -> None:
        record = self.trace.record
        for _, cycles, moved, *_ in batch.rows():
            record(cycles, moved)
        record(batch.fill, {})

    def samples(self, bytes_per_cycle: float, n_bins: int = 25):
        return self.trace.samples(bytes_per_cycle, n_bins=n_bins)


class CounterObserver(Observer):
    """Per-category event counters: how *often* each mechanism fired,
    not just how many bytes it moved (the byte totals already live in
    :class:`~repro.arch.stats.TrafficBreakdown`)."""

    def __init__(self) -> None:
        self.steps = 0
        self.cycles = 0.0
        self.transfer_events: Dict[str, int] = {}
        self.transfer_bytes: Dict[str, float] = {}
        self.evict_events = 0
        self.evict_bytes = 0.0
        self.repack_events = 0
        self.prefetch_events = 0
        self.prefetch_bytes = 0.0

    def on_replay(self, batch: ReplayBatch) -> None:
        # One in-order left fold per total, so every sum ends on the
        # same float as the simulator's own accumulators.
        counts, totals = self.transfer_events, self.transfer_bytes
        for cat, amounts in batch.moved:
            fired = int(np.count_nonzero(amounts))
            if fired:
                counts[cat] = counts.get(cat, 0) + fired
                totals[cat] = left_fold(totals.get(cat, 0.0), amounts)
                if cat == "csr_eager":
                    self.prefetch_events += fired
                    self.prefetch_bytes = left_fold(self.prefetch_bytes, amounts)
        self.evict_events += int(np.count_nonzero(batch.evict))
        self.evict_bytes = left_fold(self.evict_bytes, batch.evict)
        self.repack_events += int(np.count_nonzero(batch.repack))
        self.steps += batch.cycles.size
        self.cycles = left_fold(self.cycles, batch.all_cycles())

    def as_dict(self) -> Dict[str, float]:
        """Flat summary suitable for reports / JSON export."""
        out: Dict[str, float] = {
            "steps": float(self.steps),
            "cycles": float(self.cycles),
            "evict_events": float(self.evict_events),
            "evict_bytes": float(self.evict_bytes),
            "repack_events": float(self.repack_events),
            "prefetch_events": float(self.prefetch_events),
            "prefetch_bytes": float(self.prefetch_bytes),
        }
        for cat, n in sorted(self.transfer_events.items()):
            out[f"transfers[{cat}]"] = float(n)
            out[f"transfer_bytes[{cat}]"] = float(self.transfer_bytes[cat])
        return out


class EventLogObserver(Observer):
    """Records the raw ordered event stream as ``(kind, ...)`` tuples —
    the ground truth for event-ordering tests and ad-hoc debugging.
    Within a step the order is ``prefetch``, ``transfer``s in account
    order, ``evict``, ``repack``, then the closing ``step``; each batch
    closes with the fill charge's ``step``."""

    def __init__(self) -> None:
        self.events: List[Tuple] = []

    def on_replay(self, batch: ReplayBatch) -> None:
        append = self.events.append
        for step, cycles, moved, evict, repack, _ in batch.rows():
            prefetch = moved.get("csr_eager")
            if prefetch:
                append(("prefetch", step, prefetch))
            for cat, n_bytes in moved.items():
                if n_bytes:
                    append(("transfer", cat, n_bytes))
            if evict:
                append(("evict", step, evict))
            if repack:
                append(("repack", step))
            append(("step", step, cycles, moved))
        append(("step", FILL_STEP, batch.fill, {}))
