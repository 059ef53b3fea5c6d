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

Both backends deliver that stream the same way: one
:class:`ReplayBatch` per OEI pair or stream — one record per committed
step, closing with the ``FILL_STEP`` charge — handed to every
observer's one hook, :meth:`Observer.on_replay`, through
:meth:`Instrumentation.replay`. The reference loop collects the records
as it walks the steps; the vectorized backend synthesizes them from its
kernels and memoizes each batch, so observers may cache derived
templates on ``batch.cache``. Either way the records, and the event
order they encode, are the reference loop's, byte for byte. With **no
observers registered neither backend builds a record** (the
zero-observer fast path), so instrumentation costs nothing unless
asked for.

:class:`StepTraceObserver` reproduces the historical hard-wired
accumulators (the per-step :class:`~repro.arch.stats.StepTrace` behind
Fig 15's bandwidth samples); :class:`CounterObserver` adds per-category
event counters; :class:`EventLogObserver` records the raw event stream
(tests, debugging). :class:`~repro.arch.pipeline_viz.
PipelineActivityObserver` renders per-step bottlenecks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.stats import StepTrace

#: Step index used for the once-per-pair pipeline-fill latency charge
#: (first DRAM access + adder-tree drain), which belongs to no
#: sub-tensor step.
FILL_STEP = -1


class Observer:
    """Base observer: override :meth:`on_replay`."""

    def on_replay(self, batch: ReplayBatch) -> None:
        """Consume one pair or stream of the event stream, in step
        order. Batches may be replayed more than once (the vectorized
        backend memoizes them per kernel), so an observer must not
        mutate the records."""


class ReplayBatch:
    """One step-aligned span of the event stream — a single pair (plus
    its fill charge) or stream.

    ``steps`` holds one record per committed step, in commit order::

        (step, cycles, prefetch_bytes, transfers, evict_bytes,
         repack, moved, stage_cycles)

    where ``transfers`` is a tuple of ``(category, n_bytes)`` in firing
    order, ``repack`` is a bool, and zero/empty fields mean the
    corresponding event never fired. ``moved`` maps every category the
    step accounts to its bytes, zeros included; ``stage_cycles`` breaks
    the step down by component (``os``, ``ewise``, ``is``, ``extra``,
    ``memory``) and is ``None`` for fill charges. Batches are memoized by the
    vectorized backend (one per kernel) and replayed once per
    iteration, so ``cache`` gives observers a stable home for derived
    templates keyed by consumer (``batch.cache["timeline"]`` holds the
    timeline's pre-rendered event text, etc.).

    ``columns`` is the same event stream as per-counter float64 arrays
    (see :meth:`column_data`) so numeric observers can fold whole
    batches with ``cumsum`` instead of walking ``steps``. The vectorized
    backend passes its kernel's own vectors through; the reference loop
    passes none and they are derived from ``steps``. Folding a full
    kernel column — zero amounts included — equals the in-order fold
    over the fired events bit for bit, because each zero adds ``0.0``,
    the float-addition identity for the non-negative totals involved.
    Event *counts* therefore come from the records or the ``n_*``
    fields, never from column lengths.
    """

    __slots__ = ("steps", "columns", "cache")

    def __init__(
        self, steps: Sequence[tuple], columns: Optional[dict] = None
    ) -> None:
        self.steps = tuple(steps)
        self.columns = columns
        self.cache: Dict[object, object] = {}

    def column_data(self) -> dict:
        """The columnar view of the batch, derived from ``steps`` (and
        cached) when the producer did not supply one:

        - ``cycles`` — per-step durations, every step including fills,
        - ``dram`` — ``(category, amounts)`` pairs, amounts per step,
        - ``stages`` — ``(stage, busy, stall)`` per reported stage,
          with ``stall = max(0.0, cycles - busy)`` already folded in,
        - ``evict`` / ``prefetch`` — per-event byte amounts,
        - ``n_real`` / ``n_evict`` / ``n_prefetch`` / ``n_repack`` —
          exact integer event counts.
        """
        cols = self.columns
        if cols is None:
            cols = self._derive_columns()
            self.columns = cols
        return cols

    def _derive_columns(self) -> dict:
        cycles: List[float] = []
        dram: Dict[str, List[float]] = {}
        busy: Dict[str, List[float]] = {}
        stall: Dict[str, List[float]] = {}
        evict: List[float] = []
        prefetch: List[float] = []
        n_real = n_evict = n_prefetch = n_repack = 0
        for (step, cyc, pref, transfers, ev, repack,
             moved, stage_cycles) in self.steps:
            cycles.append(cyc)
            if pref:
                prefetch.append(pref)
                n_prefetch += 1
            for cat, val in transfers:
                dram.setdefault(cat, []).append(val)
            if ev:
                evict.append(ev)
                n_evict += 1
            if repack:
                n_repack += 1
            if step != FILL_STEP:
                n_real += 1
            if stage_cycles:
                for stage, b in stage_cycles.items():
                    busy.setdefault(stage, []).append(b)
                    stall.setdefault(stage, []).append(max(0.0, cyc - b))
        arr = lambda xs: np.asarray(xs, dtype=np.float64)  # noqa: E731
        return {
            "cycles": arr(cycles),
            "dram": tuple((c, arr(v)) for c, v in dram.items()),
            "stages": tuple(
                (s, arr(v), arr(stall[s])) for s, v in busy.items()
            ),
            "evict": arr(evict),
            "prefetch": arr(prefetch),
            "n_real": n_real,
            "n_evict": n_evict,
            "n_prefetch": n_prefetch,
            "n_repack": n_repack,
        }


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
    Fig 15's bandwidth-over-progress samples. Registered by default
    when ``run`` is called without an explicit observer list, so the
    default :class:`~repro.arch.stats.SimResult` is unchanged."""

    def __init__(self) -> None:
        self.trace = StepTrace()

    def on_replay(self, batch: ReplayBatch) -> None:
        record = self.trace.record
        for rec in batch.steps:
            record(rec[1], rec[6])

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
        # One in-order left fold per total, in step order, so every sum
        # ends on the same float as the simulator's own accumulators.
        counts, totals = self.transfer_events, self.transfer_bytes
        for (step, cycles, prefetch, transfers, evict, repack,
             _moved, _stages) in batch.steps:
            if prefetch:
                self.prefetch_events += 1
                self.prefetch_bytes += prefetch
            for cat, n_bytes in transfers:
                counts[cat] = counts.get(cat, 0) + 1
                totals[cat] = totals.get(cat, 0.0) + n_bytes
            if evict:
                self.evict_events += 1
                self.evict_bytes += evict
            if repack:
                self.repack_events += 1
            if step != FILL_STEP:
                self.steps += 1
            self.cycles += cycles

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
    order, ``evict``, ``repack``, then the closing ``step``."""

    def __init__(self) -> None:
        self.events: List[Tuple] = []

    def on_replay(self, batch: ReplayBatch) -> None:
        append = self.events.append
        for (step, cycles, prefetch, transfers, evict, repack,
             moved, _stages) in batch.steps:
            if prefetch:
                append(("prefetch", step, prefetch))
            for cat, n_bytes in transfers:
                append(("transfer", cat, n_bytes))
            if evict:
                append(("evict", step, evict))
            if repack:
                append(("repack", step))
            append(("step", step, cycles, dict(moved)))
