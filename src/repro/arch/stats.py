"""Simulation statistics: traffic breakdowns, bandwidth samples, and the
top-level :class:`SimResult` every experiment consumes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.util.numeric import left_sum, safe_div

#: Traffic categories, matching the stacked areas of Fig 15.
TRAFFIC_CATEGORIES = (
    "csc",         # demand column loads for the OS stage
    "csr_eager",   # eager row prefetches with leftover bandwidth (Fig 9)
    "csr_reload",  # ping-pong reloads after OOM evictions
    "vector",      # input vector + e-wise operand streams
    "writeback",   # finalized output elements
)


@dataclass
class TrafficBreakdown:
    """Bytes moved to/from DRAM, by category."""

    bytes_by_category: Dict[str, float] = field(
        default_factory=lambda: {c: 0.0 for c in TRAFFIC_CATEGORIES}
    )

    def add(self, category: str, n_bytes: float) -> None:
        if category not in self.bytes_by_category:
            raise KeyError(
                f"unknown traffic category {category!r}; "
                f"expected one of {TRAFFIC_CATEGORIES}"
            )
        self.bytes_by_category[category] += n_bytes

    @property
    def total_bytes(self) -> float:
        return left_sum(self.bytes_by_category.values())

    @property
    def matrix_bytes(self) -> float:
        return (
            self.bytes_by_category["csc"]
            + self.bytes_by_category["csr_eager"]
            + self.bytes_by_category["csr_reload"]
        )

    @property
    def prefetch_hit_ratio(self) -> float:
        """Fraction of row traffic served by the eager prefetcher
        rather than ping-pong reloads: eager / (eager + reload), 0.0
        when no row bytes moved (Fig 9 vs Fig 15d)."""
        eager = self.bytes_by_category["csr_eager"]
        reload_ = self.bytes_by_category["csr_reload"]
        total = eager + reload_
        return eager / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Per-category bytes, canonical order, JSON-plain."""
        return {c: float(self.bytes_by_category[c]) for c in TRAFFIC_CATEGORIES}

    def merged(self, other: "TrafficBreakdown") -> "TrafficBreakdown":
        out = TrafficBreakdown()
        for cat in TRAFFIC_CATEGORIES:
            out.bytes_by_category[cat] = (
                self.bytes_by_category[cat] + other.bytes_by_category[cat]
            )
        return out


@dataclass(frozen=True)
class BandwidthSample:
    """One bar of Fig 15: utilization within a progress interval."""

    progress: float            #: end of interval, fraction of run [0, 1]
    utilization: float         #: moved / deliverable, in [0, 1]
    category_share: Dict[str, float]  #: fraction of moved bytes per category


@dataclass
class StepTrace:
    """Raw per-step record accumulated by the simulator."""

    cycles: List[float] = field(default_factory=list)
    bytes_by_category: List[Dict[str, float]] = field(default_factory=list)

    def record(self, cycles: float, moved: Dict[str, float]) -> None:
        self.cycles.append(cycles)
        self.bytes_by_category.append(dict(moved))

    def samples(self, bytes_per_cycle: float, n_bins: int = 25) -> List[BandwidthSample]:
        """Aggregate per-step records into Fig 15's 4% progress bins."""
        if not self.cycles:
            return []
        cycles = np.asarray(self.cycles, dtype=np.float64)
        total = cycles.sum()
        boundaries = np.cumsum(cycles)
        out: List[BandwidthSample] = []
        lo = 0.0
        step_idx = 0
        for b in range(1, n_bins + 1):
            hi = total * b / n_bins
            bin_cycles = 0.0
            bin_bytes = {c: 0.0 for c in TRAFFIC_CATEGORIES}
            while step_idx < cycles.size and boundaries[step_idx] <= hi + 1e-9:
                bin_cycles += cycles[step_idx]
                for cat, val in self.bytes_by_category[step_idx].items():
                    bin_bytes[cat] += val
                step_idx += 1
            moved = left_sum(bin_bytes.values())
            util = safe_div(moved, bin_cycles * bytes_per_cycle)
            share = {c: safe_div(v, moved) for c, v in bin_bytes.items()}
            out.append(BandwidthSample(b / n_bins, min(1.0, util), share))
            lo = hi
        return out


@dataclass
class SimResult:
    """Outcome of simulating one (workload, matrix, architecture) tuple."""

    name: str
    cycles: float
    seconds: float
    traffic: TrafficBreakdown
    bandwidth_utilization: float        #: whole-run average, [0, 1]
    bandwidth_samples: List[BandwidthSample]
    compute_ops: float                  #: total PE operations executed
    buffer_peak_bytes: float
    oom_evicted_bytes: float
    repack_events: int
    n_iterations: int
    sram_access_bytes: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def total_bytes(self) -> float:
        return self.traffic.total_bytes

    def speedup_over(self, other: "SimResult") -> float:
        """``other.seconds / self.seconds`` — how much faster this run is."""
        if self.seconds <= 0:
            raise ValueError(f"non-positive runtime for {self.name!r}")
        return other.seconds / self.seconds

    # ------------------------------------------------------------------
    # JSON round-trip (the on-disk result cache's wire format)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation; ``from_dict`` inverts it exactly
        (floats survive JSON round-trips bit-for-bit in Python 3)."""
        return {
            "name": self.name,
            "cycles": float(self.cycles),
            "seconds": float(self.seconds),
            "traffic": {
                c: float(v) for c, v in self.traffic.bytes_by_category.items()
            },
            "bandwidth_utilization": float(self.bandwidth_utilization),
            "bandwidth_samples": [
                {
                    "progress": float(s.progress),
                    "utilization": float(s.utilization),
                    "category_share": {
                        c: float(v) for c, v in s.category_share.items()
                    },
                }
                for s in self.bandwidth_samples
            ],
            "compute_ops": float(self.compute_ops),
            "buffer_peak_bytes": float(self.buffer_peak_bytes),
            "oom_evicted_bytes": float(self.oom_evicted_bytes),
            "repack_events": int(self.repack_events),
            "n_iterations": int(self.n_iterations),
            "sram_access_bytes": float(self.sram_access_bytes),
            "extra": {k: float(v) for k, v in self.extra.items()},
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "SimResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        traffic = TrafficBreakdown(
            bytes_by_category={
                c: float(v) for c, v in doc["traffic"].items()
            }
        )
        samples = [
            BandwidthSample(
                progress=float(s["progress"]),
                utilization=float(s["utilization"]),
                category_share={
                    c: float(v) for c, v in s["category_share"].items()
                },
            )
            for s in doc["bandwidth_samples"]
        ]
        return cls(
            name=str(doc["name"]),
            cycles=float(doc["cycles"]),
            seconds=float(doc["seconds"]),
            traffic=traffic,
            bandwidth_utilization=float(doc["bandwidth_utilization"]),
            bandwidth_samples=samples,
            compute_ops=float(doc["compute_ops"]),
            buffer_peak_bytes=float(doc["buffer_peak_bytes"]),
            oom_evicted_bytes=float(doc["oom_evicted_bytes"]),
            repack_events=int(doc["repack_events"]),
            n_iterations=int(doc["n_iterations"]),
            sram_access_bytes=float(doc["sram_access_bytes"]),
            extra={k: float(v) for k, v in doc["extra"].items()},
        )
