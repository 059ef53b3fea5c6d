"""The metrics registry: one schema for every architecture's numbers.

Every simulated run — Sparsepipe or any baseline in the engine
registry — reports through the same named metrics so sweeps, figure
drivers, and CI can read one catalogue instead of poking at per-model
result fields:

- counters (monotone totals): ``sim.cycles``, ``sim.compute_ops``,
  ``dram.bytes.<category>`` for every
  :data:`~repro.arch.stats.TRAFFIC_CATEGORIES` entry,
  ``buffer.evicted_bytes``, ``buffer.repack_events``,
  ``prefetch.bytes`` / ``prefetch.events``,
  ``pipeline.busy_cycles.<stage>`` / ``pipeline.stall_cycles.<stage>``,
- gauges (last-value): ``buffer.peak_bytes``,
  ``bandwidth.utilization``, ``prefetch.hit_ratio``,
- histograms: ``step.cycles`` (per-step duration distribution).

Two producers fill a registry:

- :func:`registry_from_result` derives the schema from a final
  :class:`~repro.arch.stats.SimResult` — works for every registered
  architecture, no instrumentation required;
- :class:`MetricsObserver` accumulates the same counters from the
  simulator event stream (:mod:`repro.engine.instrumentation`) — the
  conservation suite asserts the two can never drift.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.stats import TRAFFIC_CATEGORIES, SimResult, TrafficBreakdown
from repro.engine.instrumentation import Observer, ReplayBatch, left_fold
from repro.util.numeric import left_sum

#: ``json.dumps(doc, sort_keys=True)`` through one shared encoder: the
#: text that manifest and metrics digests hash and store rows hold.
sorted_json = json.JSONEncoder(sort_keys=True).encode

#: Default histogram bucket upper bounds (cycles), roughly exponential.
DEFAULT_BUCKETS = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0)

#: Pipeline stage keys the simulator reports in ``stage_cycles``.
STAGE_KEYS = ("os", "ewise", "is", "extra", "memory")


def dram_metric(category: str) -> str:
    """Canonical counter name for one DRAM traffic category."""
    return f"dram.bytes.{category}"


def prefetch_hit_ratio(traffic: TrafficBreakdown) -> float:
    """Fraction of row traffic served by the eager prefetcher rather
    than ping-pong reloads (Fig 9 vs Fig 15d); delegates to
    :attr:`TrafficBreakdown.prefetch_hit_ratio`."""
    return traffic.prefetch_hit_ratio


class Counter:
    """Monotone non-decreasing total."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        self.value += amount

    def fold(self, amounts) -> None:
        """``inc(a)`` for each amount, in order: one
        :func:`~repro.engine.instrumentation.left_fold`, bit for bit."""
        self.value = left_fold(self.value, amounts)

    def to_dict(self) -> Dict[str, object]:
        return {"type": self.kind, "value": float(self.value)}


class Gauge:
    """Last-observed value (may move in either direction)."""

    __slots__ = ("name", "help", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the running maximum — peak gauges across a sweep."""
        self.value = max(self.value, float(value))

    def to_dict(self) -> Dict[str, object]:
        return {"type": self.kind, "value": float(self.value)}


class Histogram:
    """Fixed-bucket distribution with a +Inf overflow bucket."""

    __slots__ = ("name", "help", "buckets", "counts", "total", "count")
    kind = "histogram"

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, help: str = ""
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last bucket is +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def to_dict(self) -> Dict[str, object]:
        labels = [str(b) for b in self.buckets] + ["+Inf"]
        return {
            "type": self.kind,
            "buckets": dict(zip(labels, self.counts)),
            "sum": float(self.total),
            "count": int(self.count),
        }


class MetricsRegistry:
    """Named counters / gauges / histograms, get-or-create semantics.

    Registration order is preserved so text and JSON emitters — and the
    registry :meth:`digest` — are deterministic for a deterministic run.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help=help, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, help: str = ""
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    # ------------------------------------------------------------------
    # Introspection and emitters
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return list(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str):
        """The metric object registered under ``name`` (KeyError if absent)."""
        return self._metrics[name]

    def value(self, name: str, default: float = 0.0) -> float:
        """Scalar value of a counter/gauge, ``default`` when absent."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return float(metric.total)
        return float(metric.value)

    def dram_bytes_total(self) -> float:
        """Summed DRAM byte counters, in canonical category order (so
        the float sum is bit-identical to
        :attr:`TrafficBreakdown.total_bytes`)."""
        return left_sum(self.value(dram_metric(c)) for c in TRAFFIC_CATEGORIES)

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """Plain-JSON document: one entry per metric, emission order."""
        return {name: m.to_dict() for name, m in self._metrics.items()}

    def format_text(self) -> str:
        """Aligned ``name value`` lines (histograms show sum/count)."""
        lines = []
        width = max((len(n) for n in self._metrics), default=0)
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                val = f"sum={metric.total:.6g} count={metric.count}"
            else:
                val = f"{metric.value:.6g}"
            lines.append(f"{name:<{width}}  {val}")
        return "\n".join(lines)

    def digest(self) -> str:
        """Deterministic content hash of every metric value."""
        doc = sorted_json(self.to_dict())
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Producers
# ----------------------------------------------------------------------
def registry_from_result(
    result: SimResult, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Fill ``registry`` (or a fresh one) with the one-schema metrics
    derived from a final :class:`SimResult`.

    This is the path *every* registered architecture reports through,
    including baselines that emit no instrumentation events; calling it
    repeatedly on one registry aggregates a sweep (counters add, peak
    gauges keep their maximum).
    """
    reg = MetricsRegistry() if registry is None else registry
    reg.counter("sim.runs", "simulated runs recorded").inc()
    reg.counter("sim.cycles", "total simulated cycles").inc(result.cycles)
    reg.counter("sim.compute_ops", "total PE operations").inc(result.compute_ops)
    for cat in TRAFFIC_CATEGORIES:
        reg.counter(
            dram_metric(cat), f"DRAM bytes moved in category {cat!r}"
        ).inc(result.traffic.bytes_by_category[cat])
    reg.counter("buffer.evicted_bytes", "bytes spilled under OOM").inc(
        result.oom_evicted_bytes
    )
    reg.counter("buffer.repack_events", "buffer compactions").inc(
        result.repack_events
    )
    reg.gauge("buffer.peak_bytes", "peak on-chip occupancy").set_max(
        result.buffer_peak_bytes
    )
    reg.gauge("bandwidth.utilization", "whole-run DRAM utilization").set(
        result.bandwidth_utilization
    )
    reg.gauge("prefetch.hit_ratio", "eager / (eager + reload) row bytes").set(
        prefetch_hit_ratio(result.traffic)
    )
    return reg


class MetricsObserver(Observer):
    """Accumulates the metric schema from the simulator's event stream;
    :meth:`finalize` adds the result-derived gauges so the
    registry matches :func:`registry_from_result` on the shared names.

    Byte and cycle counters are incremented in exactly the order the
    simulator accounts them, so their totals equal the simulator's own
    accumulators bit-for-bit (the conservation suite's invariant).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = MetricsRegistry() if registry is None else registry
        reg = self.registry
        self._cycles = reg.counter("sim.cycles", "total simulated cycles")
        self._steps = reg.counter("sim.steps", "pipeline steps committed")
        # Canonical order up front: the registry's category iteration
        # order never depends on which category fired first.
        self._dram = {
            cat: reg.counter(dram_metric(cat), f"DRAM bytes in {cat!r}")
            for cat in TRAFFIC_CATEGORIES
        }
        self._step_hist = reg.histogram("step.cycles", help="per-step duration")
        self._evict_bytes = reg.counter("buffer.evicted_bytes")
        self._evict_events = reg.counter("buffer.evict_events")
        self._repacks = reg.counter("buffer.repack_events")
        self._prefetch_bytes = reg.counter("prefetch.bytes")
        self._prefetch_events = reg.counter("prefetch.events")
        self._busy = {
            s: reg.counter(f"pipeline.busy_cycles.{s}") for s in STAGE_KEYS
        }
        self._stall = {
            s: reg.counter(f"pipeline.stall_cycles.{s}") for s in STAGE_KEYS
        }

    def on_replay(self, batch: ReplayBatch) -> None:
        """Consume one batch wholesale, via its columns.

        Float counters must end on the *same* float as one ``inc`` per
        event in step order, so every column is folded with
        :func:`~repro.engine.instrumentation.left_fold` — a strict
        in-order left fold, never a re-associated grouping (columns
        include zero amounts for events that never fired; adding them
        is the float identity). Pure event *counts* collapse to one
        addition (exact for integers in float64).
        """
        cyc = batch.all_cycles()
        self._cycles.fold(cyc)
        self._steps.value += batch.cycles.size
        self._observe_hist(batch, cyc)
        for stage, busy in batch.stages:
            counter = self._busy.get(stage)
            if counter is not None:
                counter.fold(busy)
                self._stall[stage].fold(np.maximum(0.0, batch.cycles - busy))
        for cat, amounts in batch.moved:
            self._dram[cat].fold(amounts)
            if cat == "csr_eager":
                self._prefetch_events.value += int(np.count_nonzero(amounts))
                self._prefetch_bytes.fold(amounts)
        self._evict_events.value += int(np.count_nonzero(batch.evict))
        self._evict_bytes.fold(batch.evict)
        self._repacks.value += int(np.count_nonzero(batch.repack))

    def _observe_hist(self, batch: ReplayBatch, cyc: np.ndarray) -> None:
        hist = self._step_hist
        # Bucket assignment depends on the histogram's bounds (a shared
        # registry may have pre-registered custom ones), so the bincount
        # is cached on the batch per bounds tuple.
        counts = batch.cache.get(("hist", hist.buckets))
        if counts is None:
            # observe() takes the first bound with value <= bound, which
            # is exactly searchsorted's left insertion point.
            idx = np.searchsorted(
                np.asarray(hist.buckets), cyc, side="left"
            )
            counts = np.bincount(idx, minlength=len(hist.buckets) + 1).tolist()
            batch.cache[("hist", hist.buckets)] = counts
        hist.total = left_fold(hist.total, cyc)
        hist.count += cyc.size
        hist_counts = hist.counts
        for i, n in enumerate(counts):
            if n:
                hist_counts[i] += n

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self, result: SimResult) -> MetricsRegistry:
        """Add the result-derived gauges the event stream cannot see."""
        reg = self.registry
        reg.gauge("buffer.peak_bytes").set_max(result.buffer_peak_bytes)
        reg.gauge("bandwidth.utilization").set(result.bandwidth_utilization)
        reg.gauge("prefetch.hit_ratio").set(prefetch_hit_ratio(result.traffic))
        return reg
