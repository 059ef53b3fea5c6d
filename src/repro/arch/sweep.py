"""Design-space exploration utilities.

A :class:`ConfigSweep` evaluates a grid of Sparsepipe configurations
against one (workload, matrix) pair and reports the Pareto frontier of
cycles vs die area — the loop a silicon team runs when sizing the
buffer and the PE arrays (Fig 20b's cost axis attached to Fig 14's
performance axis).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.arch.area import AreaModel
from repro.arch.config import PAPER_BUFFER_BYTES, SparsepipeConfig
from repro.arch.profile import WorkloadProfile
from repro.arch.stats import SimResult
from repro.engine.registry import run_engine
from repro.errors import ConfigError
from repro.formats.coo import COOMatrix
from repro.preprocess.pipeline import PreprocessResult


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated configuration."""

    config: SparsepipeConfig
    result: SimResult
    area_mm2: float

    @property
    def cycles(self) -> float:
        return self.result.cycles

    def dominates(self, other: "SweepPoint") -> bool:
        """Pareto dominance on (cycles, area), minimizing both."""
        no_worse = self.cycles <= other.cycles and self.area_mm2 <= other.area_mm2
        strictly = self.cycles < other.cycles or self.area_mm2 < other.area_mm2
        return no_worse and strictly


class ConfigSweep:
    """Grid sweep over SparsepipeConfig fields.

    Parameters are given as ``field_name -> candidate values``; every
    combination is simulated through the architecture registry
    (``arch`` names the engine — any registered config-taking model
    can be swept). Buffer area scales from the paper's 64 MB
    calibration point; PE-count changes scale the core area.
    """

    def __init__(
        self,
        base: SparsepipeConfig = SparsepipeConfig(),
        area_model: AreaModel = AreaModel(),
        arch: str = "sparsepipe",
    ) -> None:
        self._base = base
        self._area = area_model
        self._arch = arch

    def run(
        self,
        profile: WorkloadProfile,
        matrix: Union[COOMatrix, PreprocessResult],
        grid: Dict[str, Sequence[object]],
        paper_nnz: Optional[int] = None,
    ) -> List[SweepPoint]:
        if not grid:
            raise ConfigError("sweep grid must name at least one config field")
        for field_name in grid:
            if not hasattr(self._base, field_name):
                raise ConfigError(
                    f"SparsepipeConfig has no field {field_name!r}"
                )
        names = list(grid)
        points: List[SweepPoint] = []
        for combo in itertools.product(*(grid[n] for n in names)):
            config = replace(self._base, **dict(zip(names, combo)))
            result = run_engine(
                self._arch, config, profile, matrix, paper_nnz=paper_nnz
            )
            buffer_mb = (
                (
                    config.buffer_bytes
                    or result.extra.get("buffer_capacity_bytes", PAPER_BUFFER_BYTES)
                )
                / (1024.0 * 1024.0)
            )
            area = self._area.sparsepipe_mm2(
                buffer_mb=buffer_mb,
                n_pes=3 * config.pes_per_core,
            )
            points.append(SweepPoint(config, result, area))
        return points

    @staticmethod
    def pareto_frontier(points: Iterable[SweepPoint]) -> List[SweepPoint]:
        """Non-dominated points, sorted by cycles."""
        pts = list(points)
        frontier = [
            p for p in pts if not any(q.dominates(p) for q in pts)
        ]
        frontier.sort(key=lambda p: (p.cycles, p.area_mm2))
        return frontier
