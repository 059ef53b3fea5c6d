"""Workload profiles: what the timing models need to know about one
STA application's loop body.

A profile is produced by each workload definition (compiled program +
functional characterization) and consumed by the Sparsepipe simulator
and all baseline models, so every architecture is timed from the same
description of the work.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Tuple

from repro.dataflow.program import OEIProgram
from repro.errors import ConfigError


@dataclass(frozen=True)
class WorkloadProfile:
    """Per-iteration resource demands of a loop body.

    Attributes
    ----------
    semiring_name:
        Opcode of the contractions.
    has_oei:
        Whether the OEI pair fusion applies (Table III: all apps except
        ``cg`` and ``bgs``).
    n_iterations:
        Loop trips to simulate (from the functional run's convergence).
    path_ewise_ops / side_ewise_ops:
        E-wise instructions on and off the fused OEI path.
    aux_streams:
        Auxiliary vectors streamed from memory per element per
        iteration (the e-wise vector loader's demand).
    writeback_streams:
        Output vectors written back per iteration.
    feature_dim:
        Dense feature width: 1 for vector workloads, >1 for the SpMM of
        GCN (each "element" is a length-F row).
    activity:
        Optional per-iteration active fraction of the vector (frontier
        occupancy for BFS-like workloads); missing entries default 1.0.
    extra_ops_per_iteration:
        Non-pipeline compute per iteration (e.g. GCN's dense MM,
        GMRES's orthogonalization dots).
    extra_dram_bytes_per_iteration:
        Non-matrix, non-vector traffic (e.g. GCN weight matrices).
    """

    name: str
    semiring_name: str
    has_oei: bool
    n_iterations: int
    path_ewise_ops: int = 0
    side_ewise_ops: int = 0
    aux_streams: int = 0
    writeback_streams: int = 1
    feature_dim: int = 1
    activity: Tuple[float, ...] = ()
    extra_ops_per_iteration: float = 0.0
    extra_dram_bytes_per_iteration: float = 0.0

    def __post_init__(self) -> None:
        if self.n_iterations < 1:
            raise ConfigError(f"n_iterations must be >= 1, got {self.n_iterations}")
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim must be >= 1, got {self.feature_dim}")
        for a in self.activity:
            if not 0.0 <= a <= 1.0:
                raise ConfigError(f"activity fractions must be in [0, 1], got {a}")

    @property
    def total_ewise_ops(self) -> int:
        return self.path_ewise_ops + self.side_ewise_ops

    def activity_at(self, iteration: int) -> float:
        """Active vector fraction for one iteration (default 1.0)."""
        if 0 <= iteration < len(self.activity):
            return self.activity[iteration]
        return 1.0

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation; :meth:`from_dict` inverts it
        exactly (every field is a str, bool, int or float)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "WorkloadProfile":
        """Rebuild a profile serialized by :meth:`to_dict`."""
        return cls(**{**doc, "activity": tuple(doc["activity"])})

    @classmethod
    def from_program(
        cls,
        program: OEIProgram,
        n_iterations: int,
        activity: Tuple[float, ...] = (),
        feature_dim: int = 1,
        writeback_streams: int = 1,
        extra_ops_per_iteration: float = 0.0,
        extra_dram_bytes_per_iteration: float = 0.0,
    ) -> "WorkloadProfile":
        """Derive the static fields from a compiled OEI program."""
        return cls(
            name=program.name,
            semiring_name=program.semiring_name,
            has_oei=program.has_oei,
            n_iterations=n_iterations,
            path_ewise_ops=program.n_path_ops,
            side_ewise_ops=program.side_ewise_ops,
            aux_streams=len(program.aux_vectors),
            writeback_streams=writeback_streams,
            feature_dim=feature_dim,
            activity=tuple(activity),
            extra_ops_per_iteration=extra_ops_per_iteration,
            extra_dram_bytes_per_iteration=extra_dram_bytes_per_iteration,
        )
