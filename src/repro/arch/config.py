"""Architecture and memory configurations.

Table II of the paper fixes four memory configurations; the simulated
Sparsepipe instance has 1024 PEs per compute core and a 64 MB on-chip
buffer fed by 504 GB/s GDDR6X (Section V-A).

Scaling
-------
The paper's matrices reach 54 M non-zeros; this reproduction scales
them down (DESIGN.md, "Substitutions") and scales the on-chip buffer by
the *same per-matrix factor* via :func:`scaled_buffer_bytes`, so the
buffer-to-matrix ratio — the quantity every OOM/ping-pong effect
depends on — matches the paper exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from repro.errors import ConfigError

#: The paper's buffer capacity (Section V-A).
PAPER_BUFFER_BYTES = 64 * 1024 * 1024

#: DRAM bytes per vector element (64-bit values, Section VI-C), for
#: Sparsepipe and the baselines alike.
VECTOR_ELEMENT_BYTES = 8.0


@dataclass(frozen=True)
class MemoryConfig:
    """One row of Table II."""

    name: str
    bandwidth_gbps: float      #: GB/s
    read_latency_ns: float
    write_latency_ns: float
    technology: str

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth_gbps}")

    def bytes_per_cycle(self, clock_ghz: float) -> float:
        """Peak bytes deliverable per core cycle."""
        return self.bandwidth_gbps / clock_ghz


CPU_DDR4 = MemoryConfig("cpu-ddr4", 40.0, 13.75, 12.5, "DDR4")
GPU_GDDR6X = MemoryConfig("gpu-gddr6x", 504.0, 12.0, 5.0, "GDDR6X")


def scaled_buffer_bytes(our_nnz: int, paper_nnz: int) -> int:
    """Buffer capacity preserving the paper's buffer-to-matrix ratio."""
    if our_nnz <= 0 or paper_nnz <= 0:
        raise ConfigError("nnz counts must be positive")
    return max(4096, int(PAPER_BUFFER_BYTES * (our_nnz / paper_nnz)))


@dataclass(frozen=True)
class SparsepipeConfig:
    """Top-level simulator configuration (Section V-A defaults).

    ``buffer_bytes=None`` auto-scales per input matrix with
    :func:`scaled_buffer_bytes` when the matrix carries a paper
    reference, else uses the raw paper capacity.
    """

    pes_per_core: int = 1024
    clock_ghz: float = 1.0
    memory: MemoryConfig = GPU_GDDR6X
    buffer_bytes: Optional[int] = None
    subtensor_cols: int = 128
    eager_is: bool = True          #: eager CSR loading of Fig 9
    repack_threshold: float = 0.5  #: consumed fraction triggering repack
    use_blocked_storage: bool = True
    block_size: int = 256
    #: Pipeline overhead charged per step (control and dispatch; the
    #: adder tree and DRAM latencies are pipelined away in steady state).
    step_overhead_cycles: int = 4
    #: Fraction of the buffer reserved for CSC staging, vector slices,
    #: and output partials; the rest holds the CSR reuse window.
    csr_window_fraction: float = 0.75
    #: Achievable fraction of peak DRAM bandwidth on streaming access
    #: (row activation, refresh, read/write turnaround). Used by the
    #: flat memory model; ignored when ``detailed_dram`` is set.
    dram_efficiency: float = 0.93
    #: Use the banked GDDR6X model (row-buffer locality + bank-level
    #: parallelism) instead of the flat efficiency factor.
    detailed_dram: bool = False
    #: Execution backend: ``"vectorized"`` precomputes per-step
    #: traffic/occupancy vectors with numpy (:mod:`repro.arch.fastpath`)
    #: and is bit-identical to ``"reference"``, the step-by-step Python
    #: loop. There is no fallback: the vectorized backend serves every
    #: configuration — observers attached, ``detailed_dram`` set — by
    #: synthesizing the PR-3 event stream post-hoc from the per-step
    #: vectors (:class:`~repro.engine.instrumentation.ReplayBatch`) and
    #: replaying it, byte-identically, through the instrumentation.
    #: ``"vectorized"`` is the documented default that backend-less
    #: configs inherit in :func:`repro.engine.registry.run_engine`.
    backend: str = "vectorized"

    def __post_init__(self) -> None:
        if self.backend not in ("reference", "vectorized"):
            raise ConfigError(
                f"backend must be 'reference' or 'vectorized', got {self.backend!r}"
            )
        if self.pes_per_core <= 0:
            raise ConfigError(f"pes_per_core must be positive, got {self.pes_per_core}")
        if self.clock_ghz <= 0:
            raise ConfigError(f"clock_ghz must be positive, got {self.clock_ghz}")
        if self.subtensor_cols <= 0:
            raise ConfigError(f"subtensor_cols must be positive, got {self.subtensor_cols}")
        if not 0.0 < self.csr_window_fraction <= 1.0:
            raise ConfigError("csr_window_fraction must be in (0, 1]")
        if not 0.0 <= self.repack_threshold <= 1.0:
            raise ConfigError("repack_threshold must be in [0, 1]")
        if not 0.0 < self.dram_efficiency <= 1.0:
            raise ConfigError("dram_efficiency must be in (0, 1]")
        if self.buffer_bytes is not None and not self.buffer_bytes > 0:
            raise ConfigError(
                f"buffer_bytes must be positive or None, got {self.buffer_bytes}"
            )

    def buffer_capacity(
        self, total_nnz: int, paper_nnz: Optional[int] = None
    ) -> int:
        """The buffer capacity a run over a ``total_nnz`` matrix uses:
        the explicit ``buffer_bytes``, else the paper's capacity scaled
        by ``total_nnz / paper_nnz`` (:func:`scaled_buffer_bytes`), else
        :data:`PAPER_BUFFER_BYTES`."""
        if self.buffer_bytes is not None:
            return self.buffer_bytes
        if paper_nnz is not None:
            return scaled_buffer_bytes(total_nnz, paper_nnz)
        return PAPER_BUFFER_BYTES

    @property
    def bytes_per_cycle(self) -> float:
        return self.memory.bytes_per_cycle(self.clock_ghz)

    @property
    def read_latency_cycles(self) -> int:
        return max(1, round(self.memory.read_latency_ns * self.clock_ghz))

    def cache_key(self) -> str:
        """Deterministic content hash of every configuration field.

        Equal-valued configs — including the nested
        :class:`MemoryConfig` — produce equal keys across processes
        and interpreter runs (unlike ``hash()``/``id()``), so this is
        the key the experiment caches and the on-disk result cache
        share.

        Computed once per instance: the config is frozen, so the key
        is memoized in the instance ``__dict__`` (not a field, so
        ``asdict``, ``==``, ``hash`` and ``repr`` never see it, and
        :meth:`__getstate__` keeps it out of pickles).
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            doc = json.dumps(asdict(self), sort_keys=True, default=float)
            key = hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "_cache_key", key)
        return key

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_cache_key", None)
        return state

    def with_memory(self, memory: MemoryConfig) -> "SparsepipeConfig":
        """The iso-CPU / iso-GPU variants of Table II."""
        return replace(self, memory=memory)

    def seconds(self, cycles: float) -> float:
        """Convert a cycle count to wall-clock seconds."""
        return cycles / (self.clock_ghz * 1e9)
