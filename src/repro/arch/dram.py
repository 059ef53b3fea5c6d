"""Banked DRAM model (Section V-A: "models a GDDR6X memory controller").

The flat model in :mod:`repro.arch.memory` charges every byte the same
achievable bandwidth. This module refines that with the two effects a
real GDDR6X controller exposes:

- **row-buffer locality**: a burst landing in an open row streams at
  the bus rate; switching rows costs an activation (precharge +
  activate, ``tRP + tRCD``);
- **bank-level parallelism**: activations in different banks overlap
  with ongoing transfers, so activations only stall the bus when their
  required rate exceeds what the bank array can hide.

The per-request cost model collapses to

    cycles = max(bus_cycles, activations x t_activation / total_banks)

which yields ~100% of peak for long streams (column loads) and a steep
penalty for scattered short bursts (row-wise ping-pong reloads) —
exactly the asymmetry that makes the paper's wi case slow.

Enable with ``SparsepipeConfig(detailed_dram=True)``; the loaders
provide per-category average burst sizes from the matrix structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import MemoryConfig
from repro.util.validation import check_positive


@dataclass(frozen=True)
class DRAMGeometry:
    """Channel/bank/row organization (GDDR6X-class defaults)."""

    channels: int = 8
    banks_per_channel: int = 16
    row_bytes: int = 2048
    #: Minimum transfer granule; shorter requests still move this much.
    access_granule_bytes: int = 32

    def __post_init__(self) -> None:
        for name in ("channels", "banks_per_channel", "row_bytes",
                     "access_granule_bytes"):
            check_positive(name, getattr(self, name))

    @property
    def total_banks(self) -> int:
        return self.channels * self.banks_per_channel


class BankedDRAM:
    """Cycle cost of a byte volume given its average burst length."""

    def __init__(
        self,
        memory: MemoryConfig,
        clock_ghz: float,
        geometry: DRAMGeometry = DRAMGeometry(),
        stream_efficiency: float = 0.93,
    ) -> None:
        """``stream_efficiency`` covers the overheads the bank model
        does not resolve (refresh, read/write turnaround) — the banked
        model's best case equals the flat model's streaming rate."""
        check_positive("clock_ghz", clock_ghz)
        check_positive("stream_efficiency", stream_efficiency)
        self._geometry = geometry
        self._granule = float(geometry.access_granule_bytes)
        self._row_bytes = geometry.row_bytes
        self._banks = geometry.total_banks
        self._bytes_per_cycle = memory.bytes_per_cycle(clock_ghz) * stream_efficiency
        # Activation cost (precharge + activate + CAS) approximated from
        # the Table II read/write latencies.
        self._activation_cycles = max(
            1.0, (memory.read_latency_ns + memory.write_latency_ns) * clock_ghz
        )

    @property
    def bytes_per_cycle(self) -> float:
        return self._bytes_per_cycle

    @property
    def activation_cycles(self) -> float:
        return self._activation_cycles

    def cycles(self, n_bytes: float, avg_burst_bytes: float) -> float:
        """Cycles to move ``n_bytes`` arriving as bursts of
        ``avg_burst_bytes`` to random row addresses."""
        if n_bytes < 0:
            raise ValueError(f"byte count must be non-negative, got {n_bytes}")
        if n_bytes == 0:
            return 0.0
        # ``a if a > b else b`` is ``max(b, a)`` without the builtin
        # call: the prefetch scan calls this once per partial step.
        burst = float(avg_burst_bytes)
        bursts = n_bytes / (burst if burst > 1.0 else 1.0)
        # Sub-granule bursts still occupy a full access granule on the
        # bus (over-fetch waste).
        granule = self._granule
        moved = bursts * (burst if burst > granule else granule)
        bus_cycles = moved / self._bytes_per_cycle
        # One activation per burst (random landing row) plus row
        # crossings inside long bursts.
        activations = bursts + n_bytes / self._row_bytes
        activation_cycles = activations * self._activation_cycles / self._banks
        return (activation_cycles if activation_cycles > bus_cycles
                else bus_cycles)

    def cycles_batch(self, n_bytes: "np.ndarray", avg_burst_bytes: float) -> "np.ndarray":
        """Elementwise :meth:`cycles` over an array of byte volumes.

        Bit-identical to the scalar method per element (same operation
        order on IEEE doubles); zero-byte entries cost exactly ``0.0``,
        matching the scalar early return, so callers may fold whole
        category vectors without filtering.
        """
        n = np.asarray(n_bytes, dtype=np.float64)
        g = self._geometry
        bursts = n / max(1.0, float(avg_burst_bytes))
        moved = bursts * max(float(g.access_granule_bytes), float(avg_burst_bytes))
        bus_cycles = moved / self._bytes_per_cycle
        activations = bursts + n / g.row_bytes
        activation_cycles = activations * self._activation_cycles / g.total_banks
        return np.maximum(bus_cycles, activation_cycles)

    def efficiency(self, avg_burst_bytes: float) -> float:
        """Achieved fraction of peak bandwidth for a given burst size."""
        probe = 1_000_000.0
        return (probe / self._bytes_per_cycle) / self.cycles(probe, avg_burst_bytes)
