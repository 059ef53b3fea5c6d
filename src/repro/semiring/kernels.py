"""Specialized segment-reduce / scatter kernels for the vectorized
backend, selected once per monoid.

:meth:`Monoid.segment_reduce` and :meth:`Monoid.scatter` dispatch one
``ufunc.at`` call per reduction — correct, but ``ufunc.at`` is an
order-of-magnitude slower than ``bincount``/``reduceat``, and the
reference methods re-derive *which* fast path applies on every call.
This module resolves that choice exactly once per monoid: a
:class:`KernelSet` binds the specialized callables at construction
(taichi-style — compile the dispatch, then run it), and
:func:`kernel_set` memoizes one set per live monoid. The hot loops of
:mod:`repro.oei.executor` and :mod:`repro.graphblas.ops` then call a
pre-selected closure with zero per-call branching.

The specializations are **bit-identical** to the reference methods for
the monoids where the batched grouping provably folds to the same
floats:

- **PLUS** — ``np.bincount(ids, weights)`` is a strict in-order left fold
  from 0.0, exactly like ``np.add.at`` into an identity-filled output.
  (``np.add.reduceat`` is *not* used: it pairwise-sums, which changes the
  low-order bits of long segments.)
- **MIN / MAX** — truly associative: any grouping yields the same value,
  and folding from the ``±inf`` identity is the identity map on the first
  element. ``ufunc.reduceat`` over contiguous sorted segments, with empty
  segments masked back to the identity (``reduceat`` would otherwise
  return a neighbour's value for a zero-length slice).
- **LOR** — normalized to ``{0, 1}`` and reduced as MAX, mirroring the
  reference's own normalization.

Everything else (LAND, exotic monoids without a vectorizable ufunc)
delegates to the reference implementation — including its quirk of
returning raw, unnormalized values for single-element boolean segments.

The PLUS *scatter* (merging into a pre-populated output) stays on
``np.add.at``: grouping per index and adding one partial sum per target
would re-associate ``((out + a) + b)`` into ``(out + (a + b))``, which is
not the same float. MIN/MAX/LOR scatters group safely. The dense update
(the SpMM of the GCN pipeline) *can* group PLUS, because its output
starts identity-filled: one ``bincount`` over flat ``row * F + j`` ids
is the same in-order fold from 0.0 that ``np.add.at`` performs.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.errors import ConfigError
from repro.semiring.monoids import Monoid

#: Recognised kernel selectors for the executor / GraphBLAS entry points.
KERNELS = ("reference", "batched")


def check_kernel(kernel: str) -> None:
    """Validate a kernel selector; raises :class:`ConfigError` on a miss."""
    if kernel not in KERNELS:
        raise ConfigError(
            f"kernel must be one of {KERNELS}, got {kernel!r}"
        )


def _reduceat_sorted(
    ufunc: np.ufunc,
    values: np.ndarray,
    segment_ids: np.ndarray,
    n_segments: int,
    identity: float,
    dtype,
) -> np.ndarray:
    """``ufunc`` segment reduction over *sorted* contiguous segments."""
    out = np.full(n_segments, identity, dtype=dtype)
    counts = np.bincount(segment_ids, minlength=n_segments)
    nonempty = counts > 0
    if not nonempty.any():
        return out
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    with np.errstate(invalid="ignore"):
        out[nonempty] = ufunc.reduceat(values, starts[nonempty])
    return out


# ----------------------------------------------------------------------
# Per-monoid kernel construction
# ----------------------------------------------------------------------
def _plus_segment(monoid: Monoid) -> Callable:
    def kernel(values, segment_ids, n_segments):
        values = np.asarray(values)
        dtype = np.result_type(values, float)
        if values.size == 0:
            return np.full(n_segments, monoid.identity, dtype=dtype)
        # bincount is a strict in-order left fold from 0.0 == identity.
        return np.bincount(
            segment_ids, weights=values, minlength=n_segments
        ).astype(dtype, copy=False)

    return kernel


def _minmax_segment(monoid: Monoid, ufunc: np.ufunc, normalize: bool) -> Callable:
    def kernel(values, segment_ids, n_segments):
        values = np.asarray(values)
        dtype = np.result_type(values, float)
        if values.size == 0:
            return np.full(n_segments, monoid.identity, dtype=dtype)
        vals = (
            (values != 0).astype(dtype)
            if normalize
            else values.astype(dtype, copy=False)
        )
        return _reduceat_sorted(
            ufunc, vals, segment_ids, n_segments, monoid.identity, dtype
        )

    return kernel


def _minmax_scatter(monoid: Monoid, ufunc: np.ufunc, normalize: bool) -> Callable:
    def kernel(out, indices, values):
        values = np.asarray(values)
        if values.size == 0:
            return
        vals = (values != 0).astype(out.dtype) if normalize else values
        indices = np.asarray(indices)
        order = np.argsort(indices, kind="stable")
        ids = indices[order]
        vals = vals[order]
        starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        with np.errstate(invalid="ignore"):
            seg = ufunc.reduceat(vals, starts)
        targets = ids[starts]
        out[targets] = ufunc(out[targets], seg)

    return kernel


def _plus_dense(monoid: Monoid) -> Callable:
    def kernel(out, rows, products):
        n, f = out.shape
        # One bincount over flat row * F + j ids: each element gets the
        # same in-order fold from the 0.0 fill that np.add.at performs.
        ids = (rows * f)[:, None] + np.arange(f)
        out[...] = np.bincount(
            ids.ravel(), weights=products.ravel(), minlength=n * f
        ).reshape(n, f)

    return kernel


def _minmax_dense(monoid: Monoid, ufunc: np.ufunc, normalize: bool) -> Callable:
    def kernel(out, rows, products):
        if normalize:
            products = (products != 0).astype(out.dtype)
        counts = np.bincount(rows, minlength=out.shape[0])
        nonempty = counts > 0
        if not nonempty.any():
            return
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        with np.errstate(invalid="ignore"):
            out[nonempty] = ufunc.reduceat(products, starts[nonempty], axis=0)

    return kernel


def _reference_dense(monoid: Monoid) -> Callable:
    def kernel(out, rows, products):
        with np.errstate(invalid="ignore"):
            monoid.op.ufunc.at(out, rows, products)

    return kernel


class KernelSet:
    """The specialized kernels of one monoid, selected at construction.

    ``segment_reduce(values, segment_ids, n_segments)`` requires sorted
    ascending ``segment_ids`` (the CSC/CSR slice layout every caller
    already has). ``scatter(out, indices, values)`` merges in place and
    accepts any order. ``dense_update(out, rows, products)`` requires
    sorted ``rows`` and an identity-filled 2-D ``out`` (the
    :func:`~repro.graphblas.ops.mxm_dense` contract). All three are
    bit-identical to the reference :class:`Monoid` methods.
    """

    __slots__ = ("monoid", "segment_reduce", "scatter", "dense_update")

    def __init__(self, monoid: Monoid) -> None:
        self.monoid = monoid
        ufunc = monoid.op.ufunc
        if ufunc is np.add:
            self.segment_reduce = _plus_segment(monoid)
            # In-order fold into a *pre-populated* out is part of the
            # exactness contract — grouping would re-associate it.
            self.scatter = monoid.scatter
            self.dense_update = _plus_dense(monoid)
        elif ufunc is np.logical_or:
            self.segment_reduce = _minmax_segment(monoid, np.maximum, True)
            self.scatter = _minmax_scatter(monoid, np.maximum, True)
            self.dense_update = _minmax_dense(monoid, np.maximum, True)
        elif ufunc is np.minimum or ufunc is np.maximum:
            self.segment_reduce = _minmax_segment(monoid, ufunc, False)
            self.scatter = _minmax_scatter(monoid, ufunc, False)
            self.dense_update = _minmax_dense(monoid, ufunc, False)
        else:
            self.segment_reduce = monoid.segment_reduce
            self.scatter = monoid.scatter
            self.dense_update = _reference_dense(monoid)


#: One KernelSet per monoid *value* — frozen dataclasses hash by
#: (op, identity), so equal monoids share a set. The population is the
#: six singletons of :data:`~repro.semiring.monoids.MONOIDS` plus any
#: value-distinct test monoids: bounded, so a plain dict suffices.
_KERNEL_SETS: Dict[Monoid, KernelSet] = {}


def kernel_set(monoid: Monoid) -> KernelSet:
    """The memoized :class:`KernelSet` of one monoid — selection happens
    on the first request, every later call is a dictionary hit."""
    ks = _KERNEL_SETS.get(monoid)
    if ks is None:
        ks = KernelSet(monoid)
        _KERNEL_SETS[monoid] = ks
    return ks


def segment_reduce(
    monoid: Monoid,
    values: np.ndarray,
    segment_ids: np.ndarray,
    n_segments: int,
) -> np.ndarray:
    """Batched, bit-identical equivalent of ``monoid.segment_reduce``.

    ``segment_ids`` must be sorted ascending (the CSC/CSR slice layout
    every caller already has); unsupported monoids fall back to the
    reference implementation, which accepts any order.
    """
    return kernel_set(monoid).segment_reduce(values, segment_ids, n_segments)


def scatter(
    monoid: Monoid,
    out: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
) -> None:
    """Batched, bit-identical equivalent of ``monoid.scatter``.

    Only grouping-safe monoids (MIN/MAX/LOR) take the sorted-reduceat
    path; PLUS and everything else delegate to the reference scatter,
    whose in-order fold into ``out`` is part of the exactness contract.
    """
    kernel_set(monoid).scatter(out, indices, values)


def dense_update(
    monoid: Monoid,
    out: np.ndarray,
    rows: np.ndarray,
    products: np.ndarray,
) -> None:
    """Batched, bit-identical equivalent of ``monoid.op.ufunc.at(out,
    rows, products)`` for an identity-filled 2-D ``out`` and sorted
    ``rows`` — the reduction of :func:`~repro.graphblas.ops.mxm_dense`.
    """
    kernel_set(monoid).dense_update(out, rows, products)
