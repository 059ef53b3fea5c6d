"""End-to-end preprocessing pipeline (Section IV-E).

Combines a row reorder (applied symmetrically, relabeling graph
vertices) with dual-storage construction, optionally blocked. The
pipeline reports the storage sizes Fig 20(a) compares and hands the
reordered matrix to the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import ConfigError
from repro.formats.blocked import BlockedDualStorage
from repro.formats.coo import COOMatrix
from repro.formats.dual import DualStorage
from repro.preprocess.graph_order import graph_order
from repro.preprocess.vanilla_reorder import vanilla_reorder

#: Registered reorder algorithms: name -> (COOMatrix) -> permutation.
REORDER_ALGORITHMS: Dict[str, Callable[[COOMatrix], np.ndarray]] = {
    "graphorder": graph_order,
    "vanilla": vanilla_reorder,
}


@dataclass(frozen=True)
class PreprocessResult:
    """Everything the simulator and the storage experiments need."""

    matrix: COOMatrix
    permutation: Optional[np.ndarray]
    dual: DualStorage
    blocked: Optional[BlockedDualStorage]
    reorder_name: str
    block_size: Optional[int]

    @property
    def dual_bytes(self) -> int:
        """Footprint of the naive (non-blocked) dual storage."""
        return self.dual.storage_bytes()

    @property
    def blocked_bytes(self) -> Optional[int]:
        """Footprint of the blocked dual storage, when built."""
        return None if self.blocked is None else self.blocked.storage_bytes()

    @property
    def storage_ratio(self) -> Optional[float]:
        """Blocked size relative to naive dual size (Fig 20a metric)."""
        if self.blocked is None:
            return None
        return self.blocked_bytes / self.dual_bytes


def reorder_algorithm(reorder: str) -> Callable[[COOMatrix], np.ndarray]:
    """The registered reorder named ``reorder`` (ConfigError otherwise)."""
    try:
        return REORDER_ALGORITHMS[reorder]
    except KeyError:
        raise ConfigError(
            f"unknown reorder {reorder!r}; available: "
            f"{sorted(REORDER_ALGORITHMS)} or None"
        ) from None


def preprocess(
    matrix: COOMatrix,
    reorder: Optional[str] = "graphorder",
    block_size: Optional[int] = 256,
    permutation: Optional[np.ndarray] = None,
) -> PreprocessResult:
    """Reorder (symmetrically) and build (blocked) dual storage.

    Parameters
    ----------
    reorder:
        ``"graphorder"``, ``"vanilla"``, or ``None`` for no reordering.
    block_size:
        Tile edge for the blocked dual storage, or ``None`` to skip
        blocking (the Fig 19 "no optimization" configuration).
    permutation:
        The ``reorder`` permutation of ``matrix`` when the caller
        already has it (a stored one); computed here when ``None``.
    """
    reorder_name = "none"
    reordered = matrix
    if reorder is not None:
        algorithm = reorder_algorithm(reorder)
        if permutation is None:
            permutation = algorithm(matrix)
        reordered = matrix.permute(row_perm=permutation, col_perm=permutation)
        reorder_name = reorder
    elif permutation is not None:
        raise ConfigError("a permutation needs a reorder name")

    # Sorted and summed once; every storage below is built from it.
    canonical = reordered.deduplicate()
    dual = DualStorage.from_coo(canonical)
    blocked = None
    if block_size is not None:
        blocked = BlockedDualStorage.from_coo(canonical, block_size=block_size)
    return PreprocessResult(
        matrix=canonical,
        permutation=permutation,
        dual=dual,
        blocked=blocked,
        reorder_name=reorder_name,
        block_size=block_size,
    )
