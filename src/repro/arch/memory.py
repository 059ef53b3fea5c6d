"""DRAM controller model.

Converts byte demands into cycle costs at the configured bandwidth
(Table II) and accounts every byte in a :class:`TrafficBreakdown`.

Two fidelity levels, selected by ``SparsepipeConfig.detailed_dram``:

- **flat** (default): every byte moves at ``peak x dram_efficiency`` —
  the granularity the paper's headline evaluation uses (achieved
  bandwidth and traffic volume, Figs 15/21/22);
- **banked**: per-category burst sizes drive a row-buffer/bank model
  (:mod:`repro.arch.dram`), so scattered row reloads cost more than
  streaming column loads.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.arch.config import SparsepipeConfig
from repro.arch.dram import BankedDRAM
from repro.arch.stats import TrafficBreakdown
from repro.util.numeric import left_sum


class MemoryController:
    """Per-run DRAM accounting for one simulation."""

    def __init__(
        self,
        config: SparsepipeConfig,
        burst_hints: Optional[Mapping[str, float]] = None,
    ) -> None:
        self._config = config
        self.traffic = TrafficBreakdown()
        self._banked: Optional[BankedDRAM] = None
        self._hints: Mapping[str, float] = dict(burst_hints or {})
        if config.detailed_dram:
            self._banked = BankedDRAM(
                config.memory,
                config.clock_ghz,
                stream_efficiency=config.dram_efficiency,
            )

    @property
    def bytes_per_cycle(self) -> float:
        return self._config.bytes_per_cycle

    def cycles_for(self, n_bytes: float) -> float:
        """Cycles to transfer ``n_bytes`` at achievable streaming
        bandwidth (flat model; also the banked model's best case)."""
        if n_bytes < 0:
            raise ValueError(f"byte count must be non-negative, got {n_bytes}")
        return n_bytes / (self.bytes_per_cycle * self._config.dram_efficiency)

    def demand_cycles(self, moved: Mapping[str, float]) -> float:
        """Cycles to serve one step's demand, by category.

        Flat model: total bytes at achievable bandwidth. Banked model:
        each category pays for its burst granularity (hints default to
        streaming-friendly large bursts when absent).
        """
        if self._banked is None:
            return self.cycles_for(left_sum(moved.values()))
        total = 0.0
        for category, n_bytes in moved.items():
            if n_bytes <= 0:
                continue
            hint = self._hints.get(category, 4096.0)
            total += self._banked.cycles(n_bytes, hint)
        return total

    def transfer(self, category: str, n_bytes: float) -> float:
        """Record a transfer and return its (flat) cycle cost."""
        self.traffic.add(category, n_bytes)
        return self.cycles_for(n_bytes)
