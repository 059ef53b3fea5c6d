"""Functional executor for the OEI dataflow.

Runs iteration *pairs*: the first iteration's ``vxm`` under the
output-stationary dataflow, the fused e-wise stream one sub-tensor
behind it, and the second iteration's ``vxm`` under the
input-stationary dataflow two sub-tensors behind (Fig 8). Every value
is produced in exactly the order the hardware would produce it, using
only data legal to touch at that step, so agreement with
:func:`run_reference` is an executable proof that the OEI schedule
computes the same fixpoint iteration as the conventional sequential
schedule.

Scalar convention
-----------------
E-wise scalars for iteration ``k`` (e.g. PageRank's teleport term) are
computed by ``scalar_update(k, x_k)`` from the *input* vector of
iteration ``k``, which is fully materialized before the iteration
starts. A scalar that needed iteration ``k``'s own *output* would break
sub-tensor dependency and make the graph ineligible for OEI — the
compiler would not have produced the path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.dataflow.program import OEIProgram
from repro.errors import ScheduleError
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.oei.schedule import OEISchedule, oei_passes
from repro.semiring import kernels

AuxProvider = Callable[[int, np.ndarray], Mapping[str, np.ndarray]]
ScalarUpdate = Callable[[int, np.ndarray], Mapping[str, float]]


def _no_aux(iteration: int, x: np.ndarray) -> Mapping[str, np.ndarray]:
    return {}


def _no_scalars(iteration: int, x: np.ndarray) -> Mapping[str, float]:
    return {}


@dataclass
class OEIExecution:
    """Trace of an OEI run: per-iteration inputs and contraction outputs.

    ``x_history[k]`` is the input vector of iteration ``k`` (so
    ``x_history[0]`` is the initial vector) and ``y_history[k]`` the raw
    ``vxm`` output of iteration ``k``.
    """

    x_history: List[np.ndarray] = field(default_factory=list)
    y_history: List[np.ndarray] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.y_history)

    @property
    def final_x(self) -> np.ndarray:
        return self.x_history[-1]


def run_reference(
    csc: CSCMatrix,
    program: OEIProgram,
    x0: np.ndarray,
    n_iterations: int,
    aux_provider: AuxProvider = _no_aux,
    scalar_update: ScalarUpdate = _no_scalars,
    kernel: str = "batched",
) -> OEIExecution:
    """Conventional sequential schedule: each iteration's ``vxm``
    completes before its e-wise starts (Fig 3a)."""
    kernels.check_kernel(kernel)
    semiring = program.semiring
    n = csc.ncols
    _check_square(csc)
    x = np.asarray(x0, dtype=np.float64).copy()
    trace = OEIExecution(x_history=[x.copy()])
    all_idx = np.arange(n)
    for k in range(n_iterations):
        scalars = scalar_update(k, x)
        aux = aux_provider(k, x)
        products = semiring.mul(x[csc.indices], csc.data)
        col_ids = np.repeat(np.arange(n, dtype=np.int64), csc.col_nnz())
        y = _segment_reduce(semiring.add, products, col_ids, n, kernel)
        x = program.run_elementwise(y, all_idx, aux, scalars)
        trace.y_history.append(y)
        trace.x_history.append(x.copy())
    return trace


def run_oei_pairs(
    csc: CSCMatrix,
    csr: CSRMatrix,
    program: OEIProgram,
    x0: np.ndarray,
    n_iterations: int,
    aux_provider: AuxProvider = _no_aux,
    scalar_update: ScalarUpdate = _no_scalars,
    subtensor_cols: int = 64,
    kernel: str = "batched",
) -> OEIExecution:
    """Execute ``n_iterations`` fused in OEI pairs.

    Iterations ``2m`` (OS side) and ``2m + 1`` (IS side) share one
    streaming pass over the matrix. An odd trailing iteration runs OS-
    only. Raises :class:`ScheduleError` if the program has no OEI path.

    ``kernel`` selects how semiring reductions are dispatched:
    ``"batched"`` routes grouping-safe monoids through the segment
    kernels of :mod:`repro.semiring.kernels`, ``"reference"`` keeps the
    per-reduction :class:`~repro.semiring.Monoid` methods. Both are
    bit-identical; batched is faster on wide sub-tensors.
    """
    kernels.check_kernel(kernel)
    if not program.has_oei:
        raise ScheduleError(
            f"program {program.name!r} has no OEI path; use run_reference"
        )
    _check_square(csc)
    if csr.shape != csc.shape:
        raise ScheduleError(f"CSC {csc.shape} and CSR {csr.shape} disagree")
    semiring = program.semiring
    n = csc.ncols
    schedule = OEISchedule(n, subtensor_cols)
    x = np.asarray(x0, dtype=np.float64).copy()
    trace = OEIExecution(x_history=[x.copy()])

    for iteration, paired in oei_passes(n_iterations, fused=True):
        if paired:
            x = _run_pair(
                csc, csr, program, semiring, schedule, x, iteration,
                aux_provider, scalar_update, trace, kernel,
            )
        else:
            # Odd tail: OS + e-wise only, still streamed per sub-tensor.
            x = _run_os_only(
                csc, program, semiring, schedule, x, iteration,
                aux_provider, scalar_update, trace, kernel,
            )
    return trace


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _check_square(csc: CSCMatrix) -> None:
    if csc.nrows != csc.ncols:
        raise ScheduleError(
            f"OEI iteration fusing needs a square matrix, got {csc.shape}"
        )


def _segment_reduce(monoid, values, segment_ids, n_segments, kernel) -> np.ndarray:
    if kernel == "batched":
        return kernels.segment_reduce(monoid, values, segment_ids, n_segments)
    return monoid.segment_reduce(values, segment_ids, n_segments)


def _scatter(monoid, out, indices, values, kernel) -> None:
    if kernel == "batched":
        kernels.scatter(monoid, out, indices, values)
    else:
        monoid.scatter(out, indices, values)


def _os_columns(
    csc: CSCMatrix, semiring, x: np.ndarray, start: int, stop: int,
    kernel: str = "batched",
) -> np.ndarray:
    """OS stage: one output element per column in ``[start, stop)``."""
    lo, hi = int(csc.indptr[start]), int(csc.indptr[stop])
    rows = csc.indices[lo:hi]
    products = semiring.mul(x[rows], csc.data[lo:hi])
    col_ids = (
        np.repeat(
            np.arange(start, stop, dtype=np.int64),
            np.diff(csc.indptr[start : stop + 1]),
        )
        - start
    )
    return _segment_reduce(semiring.add, products, col_ids, stop - start, kernel)


def _is_rows(
    csr: CSRMatrix, semiring, x_next: np.ndarray, y_partial: np.ndarray,
    start: int, stop: int,
    kernel: str = "batched",
) -> None:
    """IS stage: scatter rows ``[start, stop)`` of the matrix against the
    freshly produced input elements, merging into ``y_partial``."""
    lo, hi = int(csr.indptr[start]), int(csr.indptr[stop])
    cols = csr.indices[lo:hi]
    row_ids = np.repeat(
        np.arange(start, stop, dtype=np.int64), np.diff(csr.indptr[start : stop + 1])
    )
    products = semiring.mul(x_next[row_ids], csr.data[lo:hi])
    _scatter(semiring.add, y_partial, cols, products, kernel)


def _run_pair(
    csc, csr, program, semiring, schedule, x, iteration,
    aux_provider, scalar_update, trace, kernel="batched",
) -> np.ndarray:
    n = csc.ncols
    scalars = scalar_update(iteration, x)
    aux = aux_provider(iteration, x)
    y_first = np.empty(n, dtype=np.float64)
    x_next = np.empty(n, dtype=np.float64)
    y_second = np.full(n, semiring.zero, dtype=np.float64)

    for step in range(schedule.n_steps):
        os_st = schedule.os_at(step)
        if os_st is not None:
            y_first[os_st.start : os_st.stop] = _os_columns(
                csc, semiring, x, os_st.start, os_st.stop, kernel
            )
        ew_st = schedule.ewise_at(step)
        if ew_st is not None:
            idx = np.arange(ew_st.start, ew_st.stop)
            x_next[idx] = program.run_elementwise(
                y_first[idx], idx, aux, scalars
            )
        is_st = schedule.is_at(step)
        if is_st is not None:
            _is_rows(
                csr, semiring, x_next, y_second, is_st.start, is_st.stop, kernel
            )

    trace.y_history.append(y_first.copy())
    trace.x_history.append(x_next.copy())

    # Second iteration's e-wise runs at pair drain; its scalars derive
    # from x_next, fully materialized by now.
    scalars2 = scalar_update(iteration + 1, x_next)
    aux2 = aux_provider(iteration + 1, x_next)
    all_idx = np.arange(n)
    x_after = program.run_elementwise(y_second, all_idx, aux2, scalars2)
    trace.y_history.append(y_second.copy())
    trace.x_history.append(x_after.copy())
    return x_after


def _run_os_only(
    csc, program, semiring, schedule, x, iteration,
    aux_provider, scalar_update, trace, kernel="batched",
) -> np.ndarray:
    n = csc.ncols
    scalars = scalar_update(iteration, x)
    aux = aux_provider(iteration, x)
    y = np.empty(n, dtype=np.float64)
    x_next = np.empty(n, dtype=np.float64)
    for st in schedule.subtensors():
        y[st.start : st.stop] = _os_columns(
            csc, semiring, x, st.start, st.stop, kernel
        )
        idx = np.arange(st.start, st.stop)
        x_next[idx] = program.run_elementwise(y[idx], idx, aux, scalars)
    trace.y_history.append(y.copy())
    trace.x_history.append(x_next.copy())
    return x_next
