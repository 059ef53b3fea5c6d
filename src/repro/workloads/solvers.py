"""Krylov solvers: CG, BiCGStab, and GMRES (Table III, Solver/HPC).

All three solve ``M x = b`` where ``M`` is the graph's SPD Laplacian
plus identity (``M = D - (A + A^T)/2 + I``) — the standard way to turn
an arbitrary graph into a well-conditioned sparse system.

Dataflow shapes:

- **cg** and **bgs**: the step size ``alpha`` needs a dot product of
  the *fresh* ``vxm`` output, a reduction that blocks sub-tensor
  dependency — no OEI path exists (the paper lists them as
  producer-consumer only).
- **gmres**: modeled in its pipelined form, where orthogonalization
  coefficients lag one iteration (Ghysels-style p1-GMRES). The lagged
  scalars keep the e-wise chain element-wise, so consecutive Arnoldi
  SpMVs fuse under OEI — matching the paper's classification of gmres
  as a cross-iteration-reuse application.

All three iterate on the same loop-invariant ``M`` of a matrix, so it
is built once and shared: :func:`spd_system` memoizes it weakly on the
source :class:`Matrix` and drops it once every solver has taken it.
"""

from __future__ import annotations

import threading
import weakref
from typing import Set, Tuple

import numpy as np

from repro.dataflow.graph import DataflowGraph
from repro.errors import ConvergenceError
from repro.formats.coo import COOMatrix
from repro.graphblas.matrix import Matrix
from repro.graphblas.ops import mxv
from repro.graphblas.vector import Vector
from repro.semiring.semirings import MUL_ADD
from repro.workloads.base import FunctionalResult, Workload


def build_spd_system(matrix: Matrix) -> Matrix:
    """``M = D - (A + A^T) / 2 + I`` — symmetric positive definite."""
    coo = matrix.coo
    n = matrix.nrows
    rows = np.concatenate((coo.rows, coo.cols))
    cols = np.concatenate((coo.cols, coo.rows))
    vals = np.concatenate((coo.vals, coo.vals)) * -0.5
    sym = COOMatrix((n, n), rows, cols, vals).deduplicate()
    # bincount: the in-order fold from 0.0 np.add.at does into zeros(n).
    degree = np.bincount(sym.rows, weights=-sym.vals, minlength=n)
    diag = np.arange(n)
    full = COOMatrix(
        (n, n),
        np.concatenate((sym.rows, diag)),
        np.concatenate((sym.cols, diag)),
        np.concatenate((sym.vals, degree + 1.0)),
    )
    return Matrix(full)


#: Source matrix -> (its system, the solver classes that have taken
#: it). Weak keys: an entry never outlives the matrix it was built from.
_SHARED: "weakref.WeakKeyDictionary[Matrix, Tuple[Matrix, Set[type]]]" = (
    weakref.WeakKeyDictionary()
)
#: Guards _SHARED: threads that characterize the same matrix at once
#: must build and take one system.
_SHARED_LOCK = threading.Lock()


def spd_system(matrix: Matrix, taker: type) -> Matrix:
    """The shared :func:`build_spd_system` of ``matrix``, taken by the
    solver class ``taker``.

    The first request builds it; later ones get the same object. The
    entry is dropped once cg, bgs and gmres have each taken it, so a
    sweep holds a system only while some solver still needs it.
    """
    with _SHARED_LOCK:
        entry = _SHARED.get(matrix)
        if entry is None:
            entry = _SHARED[matrix] = (build_spd_system(matrix), set())
        system, taken = entry
        taken.add(taker)
        if taken >= _SOLVERS:
            del _SHARED[matrix]
    return system


def _matvec(m: Matrix, x: np.ndarray) -> np.ndarray:
    return mxv(m, Vector(x.size, x), MUL_ADD).to_dense()


#: Longest vector one BLAS ``ddot`` call may see. OpenBLAS splits a
#: dot of more than 10,000 elements across its threads, which changes
#: the summation order, so the result's bits followed the thread count.
_DOT_CHUNK = 8192


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """``u . v``, independent of the BLAS thread count: ``ddot`` over
    fixed chunks short enough to run on one thread, then the partial
    sums added in a fixed order (numpy's pairwise ``add.reduce``). A
    vector of at most one chunk keeps the exact bits of a plain
    ``u @ v``."""
    if u.size <= _DOT_CHUNK:
        return float(u @ v)
    partials = [
        u[i:i + _DOT_CHUNK] @ v[i:i + _DOT_CHUNK]
        for i in range(0, u.size, _DOT_CHUNK)
    ]
    return float(np.add.reduce(partials))


def _norm(u: np.ndarray) -> float:
    """Euclidean norm in :func:`_dot`'s fixed order."""
    return float(np.sqrt(_dot(u, u)))


class ConjugateGradient(Workload):
    name = "cg"
    semiring = "mul_add"
    reuse_pattern = "producer-consumer"
    domain = "Solver, HPC"
    max_iterations = 60

    def __init__(self, tolerance: float = 1e-8) -> None:
        self.tolerance = tolerance

    def build_graph(self) -> DataflowGraph:
        g = DataflowGraph("cg")
        m = g.matrix("M")
        p, q = g.vector("p"), g.vector("q")
        x, r = g.vector("x"), g.vector("r")
        alpha = g.scalar("alpha")
        beta = g.scalar("beta")
        g.vxm("spmv", p, m, q, self.semiring)
        g.dot("pq_dot", p, q, alpha)          # blocks the OEI path
        ap = g.vector("alpha_p")
        aq = g.vector("alpha_q")
        x_new, r_new, p_new = g.vector("x_new"), g.vector("r_new"), g.vector("p_new")
        g.ewise("scale_p", "times", [p], ap, scalar_operand="alpha")
        g.ewise("scale_q", "times", [q], aq, scalar_operand="alpha")
        g.ewise("update_x", "plus", [x, ap], x_new)
        g.ewise("update_r", "minus", [r, aq], r_new)
        bp = g.vector("beta_p")
        g.ewise("scale_p_beta", "times", [p], bp, scalar_operand="beta")
        g.ewise("update_p", "plus", [r_new, bp], p_new)
        g.carry(p_new, p)
        g.carry(x_new, x)
        g.carry(r_new, r)
        return g

    def run_functional(self, matrix: Matrix, **params) -> FunctionalResult:
        m = spd_system(matrix, ConjugateGradient)
        n = m.nrows
        rng = np.random.default_rng(params.get("seed", 0))
        b = rng.random(n)
        x = np.zeros(n)
        r = b.copy()
        p = r.copy()
        rr = _dot(r, r)
        iterations = 0
        for _ in range(min(self.max_iterations, 10 * n)):
            q = _matvec(m, p)
            alpha = rr / _dot(p, q)
            x += alpha * p
            r -= alpha * q
            rr_new = _dot(r, r)
            iterations += 1
            if np.sqrt(rr_new) < self.tolerance:
                break
            p = r + (rr_new / rr) * p
            rr = rr_new
        return FunctionalResult(
            output=x,
            n_iterations=iterations,
            extras={"residual": _norm(_matvec(m, x) - b), "b": b},
        )


class BiCGStab(Workload):
    name = "bgs"
    semiring = "mul_add"
    reuse_pattern = "producer-consumer"
    domain = "Solver, HPC"
    max_iterations = 60

    def __init__(self, tolerance: float = 1e-8) -> None:
        self.tolerance = tolerance

    def build_graph(self) -> DataflowGraph:
        g = DataflowGraph("bgs")
        m = g.matrix("M")
        p, v = g.vector("p"), g.vector("v")
        r, s = g.vector("r"), g.vector("s")
        x = g.vector("x")
        alpha = g.scalar("alpha")
        omega = g.scalar("omega")
        beta = g.scalar("beta")
        g.vxm("spmv_p", p, m, v, self.semiring)
        g.dot("rv_dot", r, v, alpha)          # blocks the OEI path
        av = g.vector("alpha_v")
        g.ewise("scale_v", "times", [v], av, scalar_operand="alpha")
        g.ewise("form_s", "minus", [r, av], s)
        t = g.vector("t")
        g.vxm("spmv_s", s, m, t, self.semiring)
        g.dot("ts_dot", t, s, omega)
        x_new, r_new, p_new = g.vector("x_new"), g.vector("r_new"), g.vector("p_new")
        os_ = g.vector("omega_s")
        ot = g.vector("omega_t")
        ap = g.vector("alpha_p")
        g.ewise("scale_s", "times", [s], os_, scalar_operand="omega")
        g.ewise("scale_t", "times", [t], ot, scalar_operand="omega")
        g.ewise("scale_p", "times", [p], ap, scalar_operand="alpha")
        half_x = g.vector("half_x")
        g.ewise("update_x1", "plus", [x, ap], half_x)
        g.ewise("update_x2", "plus", [half_x, os_], x_new)
        g.ewise("update_r", "minus", [s, ot], r_new)
        bp = g.vector("beta_p")
        g.ewise("scale_p_beta", "times", [p], bp, scalar_operand="beta")
        g.ewise("update_p", "plus", [r_new, bp], p_new)
        g.carry(p_new, p)
        g.carry(x_new, x)
        g.carry(r_new, r)
        return g

    def run_functional(self, matrix: Matrix, **params) -> FunctionalResult:
        m = spd_system(matrix, BiCGStab)
        n = m.nrows
        rng = np.random.default_rng(params.get("seed", 0))
        b = rng.random(n)
        x = np.zeros(n)
        r = b.copy()
        r_hat = r.copy()
        rho = alpha = omega = 1.0
        v = np.zeros(n)
        p = np.zeros(n)
        iterations = 0
        for _ in range(self.max_iterations):
            rho_new = _dot(r_hat, r)
            if rho_new == 0.0:
                break
            beta = (rho_new / rho) * (alpha / omega) if iterations else 0.0
            p = r + beta * (p - omega * v) if iterations else r.copy()
            rho = rho_new
            v = _matvec(m, p)
            alpha = rho / _dot(r_hat, v)
            s = r - alpha * v
            t = _matvec(m, s)
            tt = _dot(t, t)
            omega = _dot(t, s) / tt if tt > 0 else 0.0
            x = x + alpha * p + omega * s
            r = s - omega * t
            iterations += 1
            if _norm(r) < self.tolerance:
                break
        return FunctionalResult(
            output=x,
            n_iterations=max(1, iterations),
            extras={"residual": _norm(_matvec(m, x) - b), "b": b},
        )


class GMRES(Workload):
    name = "gmres"
    semiring = "mul_add"
    domain = "Solver, HPC"
    max_iterations = 40

    def __init__(self, restart: int = 20, tolerance: float = 1e-8) -> None:
        if restart < 1:
            raise ValueError(f"restart must be >= 1, got {restart}")
        self.restart = restart
        self.tolerance = tolerance

    def build_graph(self) -> DataflowGraph:
        g = DataflowGraph("gmres")
        m = g.matrix("M")
        v = g.vector("v")            # current Arnoldi basis vector
        w = g.vector("w")
        g.vxm("spmv", v, m, w, self.semiring)
        # Pipelined (lagged) orthogonalization: coefficients h1, h2 and
        # the normalization scale come from the previous iteration's
        # dots, so the chain stays element-wise.
        prev1 = g.vector("v_prev1")
        prev2 = g.vector("v_prev2")
        c1 = g.vector("c1")
        c2 = g.vector("c2")
        ortho1 = g.vector("ortho1")
        ortho2 = g.vector("ortho2")
        v_next = g.vector("v_next")
        g.ewise("coeff1", "times", [prev1], c1, scalar_operand="h1")
        g.ewise("coeff2", "times", [prev2], c2, scalar_operand="h2")
        g.ewise("sub1", "minus", [w, c1], ortho1)
        g.ewise("sub2", "minus", [ortho1, c2], ortho2)
        g.ewise("normalize", "times", [ortho2], v_next, scalar_operand="inv_norm")
        # Side group: the dots that produce next iteration's h's.
        h1 = g.scalar("h1_next")
        h2 = g.scalar("h2_next")
        g.dot("dot_h1", w, prev1, h1)
        g.dot("dot_h2", w, prev2, h2)
        g.carry(v_next, v)
        g.carry(v, prev1)
        g.carry(prev1, prev2)
        return g

    def run_functional(self, matrix: Matrix, **params) -> FunctionalResult:
        m = spd_system(matrix, GMRES)
        n = m.nrows
        rng = np.random.default_rng(params.get("seed", 0))
        b = rng.random(n)
        x = np.zeros(n)
        iterations = 0
        for _restart in range(4):
            r = b - _matvec(m, x)
            beta = _norm(r)
            if beta < self.tolerance:
                break
            k = min(self.restart, self.max_iterations - iterations)
            if k <= 0:
                break
            basis = np.zeros((k + 1, n))
            basis[0] = r / beta
            h = np.zeros((k + 1, k))
            width = 0
            for j in range(k):
                w = _matvec(m, basis[j])
                for i in range(j + 1):
                    h[i, j] = _dot(w, basis[i])
                    w -= h[i, j] * basis[i]
                h[j + 1, j] = _norm(w)
                iterations += 1
                width = j + 1
                if h[j + 1, j] < 1e-14:
                    break
                basis[j + 1] = w / h[j + 1, j]
            e1 = np.zeros(width + 1)
            e1[0] = beta
            y, *_ = np.linalg.lstsq(h[: width + 1, :width], e1, rcond=None)
            # A BLAS-free fold down axis 0, which adds the rows in order.
            x = x + np.add.reduce(basis[:width] * y[:, None])
            if _norm(b - _matvec(m, x)) < self.tolerance:
                break
        return FunctionalResult(
            output=x,
            n_iterations=max(1, iterations),
            extras={"residual": _norm(_matvec(m, x) - b), "b": b},
        )


#: The solvers that share one system per matrix.
_SOLVERS = frozenset((ConjugateGradient, BiCGStab, GMRES))
