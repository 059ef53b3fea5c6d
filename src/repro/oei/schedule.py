"""OEI pipeline-step schedule (Fig 8 / Fig 13).

Execution advances in *steps*; each step moves one sub-tensor of ``T``
columns through one pipeline stage. Within a fused iteration pair,

- the OS stage processes sub-tensor ``s`` at step ``s``,
- the E-Wise stage processes sub-tensor ``s`` at step ``s + 1``
  (it needs the OS output of step ``s``),
- the IS stage processes sub-tensor ``s`` at step ``s + 2``
  (it needs the e-wise output of step ``s + 1``).

So a pair over ``S`` sub-tensors drains after ``S + 2`` steps.

Across iterations, :func:`oei_passes` is the one pass schedule every
timing model and the functional executor walk (Sections III-IV): a
program with an OEI path fuses iterations ``k`` and ``k + 1`` into one
pass, and an odd last iteration streams alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.errors import ConfigError, Diagnostic

#: Stage skews relative to the OS stage, in steps (Fig 8).
EWISE_LAG = 1
IS_LAG = 2


def oei_passes(n_iterations: int, fused: bool) -> Iterator[Tuple[int, bool]]:
    """Yield ``(k, paired)`` for each pass over the matrix: ``paired``
    passes fuse iterations ``k`` and ``k + 1``; the rest stream
    iteration ``k`` alone (every pass when not ``fused``)."""
    k = 0
    while k < n_iterations:
        paired = fused and k + 1 < n_iterations
        yield k, paired
        k += 2 if paired else 1


@dataclass(frozen=True)
class SubTensor:
    """A contiguous column range ``[start, stop)`` of the input matrix
    (equivalently an element range of the vectors)."""

    index: int
    start: int
    stop: int

    @property
    def width(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class OEISchedule:
    """Sub-tensor decomposition of an ``n``-column matrix."""

    n: int
    subtensor_cols: int

    def __post_init__(self) -> None:
        if self.subtensor_cols <= 0 or self.n < 0:
            message = (
                f"n={self.n} must be non-negative and "
                f"subtensor_cols={self.subtensor_cols} positive"
            )
            raise ConfigError(
                message,
                diagnostics=[Diagnostic.error(
                    "SP306", message,
                    location=f"OEISchedule(n={self.n}, "
                             f"subtensor_cols={self.subtensor_cols})",
                )],
            )

    @property
    def n_subtensors(self) -> int:
        return -(-self.n // self.subtensor_cols) if self.n else 0

    @property
    def n_steps(self) -> int:
        """Steps to drain one iteration pair (Fig 13)."""
        return self.n_subtensors + IS_LAG if self.n_subtensors else 0

    def subtensor(self, index: int) -> SubTensor:
        if not 0 <= index < self.n_subtensors:
            raise IndexError(
                f"sub-tensor {index} out of range for {self.n_subtensors}"
            )
        start = index * self.subtensor_cols
        return SubTensor(index, start, min(self.n, start + self.subtensor_cols))

    def subtensors(self) -> Iterator[SubTensor]:
        for i in range(self.n_subtensors):
            yield self.subtensor(i)

    # ------------------------------------------------------------------
    # Which sub-tensor each stage touches at a given step
    # ------------------------------------------------------------------
    def os_at(self, step: int) -> Optional[SubTensor]:
        """Sub-tensor in the OS stage at ``step``, if any."""
        return self._stage_at(step, 0)

    def ewise_at(self, step: int) -> Optional[SubTensor]:
        """Sub-tensor in the E-Wise stage at ``step``, if any."""
        return self._stage_at(step, EWISE_LAG)

    def is_at(self, step: int) -> Optional[SubTensor]:
        """Sub-tensor in the IS stage at ``step``, if any."""
        return self._stage_at(step, IS_LAG)

    def _stage_at(self, step: int, lag: int) -> Optional[SubTensor]:
        index = step - lag
        if 0 <= index < self.n_subtensors:
            return self.subtensor(index)
        return None
