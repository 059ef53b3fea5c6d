"""Structural sparse matrix generators.

Each generator returns a square :class:`COOMatrix` with positive values
and no self-loops unless stated otherwise. They are deterministic for a
given seed, so experiments are reproducible run-to-run.
"""

from __future__ import annotations

import numpy as np

from repro.formats.coo import COOMatrix
from repro.util.validation import check_positive, check_probability


def _finalize(n: int, rows: np.ndarray, cols: np.ndarray, rng: np.random.Generator) -> COOMatrix:
    """Drop self-loops, deduplicate, and attach uniform(0.5, 1.5) values."""
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    vals = rng.uniform(0.5, 1.5, size=rows.size)
    return COOMatrix((n, n), rows, cols, vals).deduplicate()


def rmat(
    n: int,
    nnz: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> COOMatrix:
    """R-MAT power-law generator (Chakrabarti et al.).

    Skew grows with ``a``; the default (0.57, 0.19, 0.19, 0.05)
    approximates web/social graphs such as the paper's ``wi``.
    """
    check_positive("n", n)
    check_positive("nnz", nnz)
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError(f"rmat probabilities exceed 1: a+b+c={a + b + c}")
    rng = np.random.default_rng(seed)
    levels = max(1, int(np.ceil(np.log2(n))))
    size = 1 << levels
    # Oversample to compensate for duplicates and self-loops.
    m = int(nnz * 1.35) + 16
    rows = np.zeros(m, dtype=np.int64)
    cols = np.zeros(m, dtype=np.int64)
    c0, c1, c2, c3 = np.cumsum(np.array([a, b, c, d])).tolist()
    # Each level draws u ~ U[0, 1) and picks quadrant q = the number of
    # cumulative probabilities below u (a left searchsorted). The row
    # bit is q >= 2, i.e. u > c1; the column bit is q's parity, the xor
    # of all four comparisons (c3 may round below 1.0, so u > c3 counts).
    u = np.empty(m)
    for _ in range(levels):
        rng.random(out=u)
        rows <<= 1
        rows |= u > c1
        cols <<= 1
        cols |= (u > c0) ^ (u > c1) ^ (u > c2) ^ (u > c3)
    scale = n / size
    rows = np.minimum((rows * scale).astype(np.int64), n - 1)
    cols = np.minimum((cols * scale).astype(np.int64), n - 1)
    out = _finalize(n, rows, cols, rng)
    return _trim(out, nnz)


def _trim(coo: COOMatrix, nnz: int) -> COOMatrix:
    """Drop surplus entries uniformly to land near the requested nnz."""
    if coo.nnz <= nnz:
        return coo
    rng = np.random.default_rng(coo.nnz)
    keep = rng.choice(coo.nnz, size=nnz, replace=False)
    keep.sort()
    return COOMatrix(coo.shape, coo.rows[keep], coo.cols[keep], coo.vals[keep])


def erdos_renyi(n: int, nnz: int, seed: int = 0) -> COOMatrix:
    """Uniform random matrix with ~``nnz`` entries."""
    check_positive("n", n)
    rng = np.random.default_rng(seed)
    m = int(nnz * 1.1) + 16
    return _trim(
        _finalize(n, rng.integers(0, n, m), rng.integers(0, n, m), rng), nnz
    )


def power_law(
    n: int, nnz: int, exponent: float = 2.1, lower_bias: float = 0.0, seed: int = 0
) -> COOMatrix:
    """Configuration-model style graph with Zipf-distributed endpoint
    probabilities — hubs appear in many rows *and* columns.

    ``lower_bias`` orients that fraction of the edges below the diagonal
    (row > column). Under the OEI dataflow a below-diagonal element
    stays on chip for ``row - column`` steps, so a high bias models the
    scrambled natural orderings of collaboration graphs whose Table-I
    footprint is large (the paper's ``ca``)."""
    check_positive("n", n)
    check_positive("exponent", exponent)
    check_probability("lower_bias", lower_bias)
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n + 1) ** (exponent - 1.0)
    weights /= weights.sum()
    m = int(nnz * 1.25) + 16
    rows = rng.choice(n, size=m, p=weights)
    cols = rng.choice(n, size=m, p=weights)
    perm = rng.permutation(n)  # scatter hubs across the index space
    rows, cols = perm[rows], perm[cols]
    flip = (rng.random(m) < lower_bias) & (rows < cols)
    rows[flip], cols[flip] = cols[flip], rows[flip]
    return _trim(_finalize(n, rows, cols, rng), nnz)


def banded_mesh(n: int, bandwidth: int, nnz: int, seed: int = 0) -> COOMatrix:
    """Stiffness-matrix-like structure: entries confined to a band
    around the diagonal (the paper's ``gy`` gyroscope mesh class)."""
    check_positive("n", n)
    check_positive("bandwidth", bandwidth)
    rng = np.random.default_rng(seed)
    m = int(nnz * 1.25) + 16
    rows = rng.integers(0, n, m)
    offsets = rng.integers(-bandwidth, bandwidth + 1, m)
    cols = np.clip(rows + offsets, 0, n - 1)
    return _trim(_finalize(n, rows, cols, rng), nnz)


def grid_2d(side: int, diagonal: bool = False, seed: int = 0) -> COOMatrix:
    """5-point (or 9-point with ``diagonal``) stencil on a ``side x side``
    grid — adaptive-mesh / planar structure (``ad`` class)."""
    check_positive("side", side)
    n = side * side
    idx = np.arange(n, dtype=np.int64)
    x, y = idx % side, idx // side
    pairs = []
    offsets = [(1, 0), (0, 1)]
    if diagonal:
        offsets += [(1, 1), (1, -1)]
    for dx, dy in offsets:
        ok = (x + dx >= 0) & (x + dx < side) & (y + dy >= 0) & (y + dy < side)
        src = idx[ok]
        dst = (x[ok] + dx) + (y[ok] + dy) * side
        pairs.append((src, dst))
        pairs.append((dst, src))
    rows = np.concatenate([p[0] for p in pairs])
    cols = np.concatenate([p[1] for p in pairs])
    rng = np.random.default_rng(seed)
    return _finalize(n, rows, cols, rng)


def road_network(n: int, nnz: int, shortcut_fraction: float = 0.02, seed: int = 0) -> COOMatrix:
    """Road-network analog (``ro``/``eu`` class): a long path with local
    detours plus a small fraction of longer shortcuts. Extremely sparse
    (~1-2 nnz per row) and highly local after ordering."""
    check_positive("n", n)
    check_probability("shortcut_fraction", shortcut_fraction)
    rng = np.random.default_rng(seed)
    budget_pairs = max(1, nnz // 2)
    n_short = int(budget_pairs * shortcut_fraction)
    n_back = min(n - 1, budget_pairs - n_short)
    n_local = budget_pairs - n_short - n_back
    # Backbone path (possibly subsampled when nnz < 2(n-1)).
    base = rng.choice(n - 1, size=n_back, replace=False) if n_back < n - 1 else np.arange(n - 1)
    rows = [base, base + 1]
    cols = [base + 1, base]
    # Local detours within a small window.
    if n_local > 0:
        src = rng.integers(0, n, n_local)
        dst = np.clip(src + rng.integers(2, 12, n_local), 0, n - 1)
        rows += [src, dst]
        cols += [dst, src]
    # Rare long shortcuts (bridges, ferries) — these create the small
    # but non-zero OEI footprint Table I reports for road networks.
    if n_short > 0:
        src = rng.integers(0, n, n_short)
        dst = rng.integers(0, n, n_short)
        rows += [src, dst]
        cols += [dst, src]
    return _trim(
        _finalize(n, np.concatenate(rows), np.concatenate(cols), rng), nnz
    )


def circuit_like(n: int, nnz: int, n_rails: int = 4, seed: int = 0) -> COOMatrix:
    """Circuit-simulation analog (``g2`` class): near-diagonal coupling
    plus a handful of dense "rail" rows/columns (power/ground nets)."""
    check_positive("n", n)
    rng = np.random.default_rng(seed)
    m = int(nnz * 0.9)
    rows = rng.integers(0, n, m)
    cols = np.clip(rows + rng.integers(-3, 4, m), 0, n - 1)
    rails = rng.choice(n, size=max(1, n_rails), replace=False)
    rail_deg = max(1, (nnz - m) // (2 * max(1, n_rails)))
    rail_rows, rail_cols = [], []
    for rail in rails:
        others = rng.integers(0, n, rail_deg)
        rail_rows += [np.full(rail_deg, rail), others]
        rail_cols += [others, np.full(rail_deg, rail)]
    rows = np.concatenate([rows] + rail_rows)
    cols = np.concatenate([cols] + rail_cols)
    return _trim(_finalize(n, rows, cols, rng), nnz)


def clique_overlap(
    n: int, nnz: int, clique_size: int = 30, locality: float = 0.9, seed: int = 0
) -> COOMatrix:
    """Co-authorship analog (``co`` class): overlapping dense cliques.
    ``locality`` controls how near-diagonal the clique membership is."""
    check_positive("n", n)
    check_probability("locality", locality)
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    budget = int(nnz * 1.1)
    while budget > 0:
        center = int(rng.integers(0, n))
        spread = clique_size if rng.random() < locality else n // 4
        members = np.unique(
            np.clip(center + rng.integers(-spread, spread + 1, clique_size), 0, n - 1)
        )
        r = np.repeat(members, members.size)
        c = np.tile(members, members.size)
        rows.append(r)
        cols.append(c)
        budget -= r.size
    return _trim(
        _finalize(n, np.concatenate(rows), np.concatenate(cols), rng), nnz
    )


def watts_strogatz(
    n: int, k: int = 6, rewire: float = 0.1, seed: int = 0
) -> COOMatrix:
    """Small-world graph: a ring lattice of degree ``k`` with a
    ``rewire`` fraction of edges re-targeted uniformly. Low ``rewire``
    is nearly banded; high ``rewire`` approaches a random graph —
    a one-knob family for reuse-window studies."""
    check_positive("n", n)
    check_positive("k", k)
    check_probability("rewire", rewire)
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(n, dtype=np.int64), k // 2)
    offsets = np.tile(np.arange(1, k // 2 + 1, dtype=np.int64), n)
    dst = (src + offsets) % n
    rewired = rng.random(dst.size) < rewire
    dst[rewired] = rng.integers(0, n, int(rewired.sum()))
    rows = np.concatenate((src, dst))
    cols = np.concatenate((dst, src))
    return _finalize(n, rows, cols, rng)


def barabasi_albert(n: int, m: int = 3, seed: int = 0) -> COOMatrix:
    """Preferential-attachment graph: each new vertex attaches to ``m``
    existing vertices with probability proportional to degree — hubs
    emerge early (low indices), giving a naturally skewed ordering."""
    check_positive("n", n)
    check_positive("m", m)
    rng = np.random.default_rng(seed)
    targets = list(range(min(m, n)))
    repeated: list = list(targets)
    rows, cols = [], []
    for v in range(len(targets), n):
        chosen = rng.choice(repeated, size=min(m, len(repeated)), replace=False)
        for u in np.unique(chosen):
            rows += [v, int(u)]
            cols += [int(u), v]
            repeated += [v, int(u)]
    return _finalize(
        n, np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64), rng
    )


def bipartite_block(
    n: int, nnz: int, split: float = 0.45, corner_share: float = 0.88, seed: int = 0
) -> COOMatrix:
    """Bundle-adjustment analog (``bu`` class): a point/camera split
    whose coupling block dominates and, in the natural point-then-camera
    ordering, lands in the lower-left corner (rows in the camera range,
    columns in the point range).

    At the OEI step that crosses the split, essentially the whole
    coupling block is live at once — which is how the paper measures up
    to 90% on-chip footprint for ``bu`` (Table I).
    """
    check_positive("n", n)
    check_probability("split", split)
    check_probability("corner_share", corner_share)
    rng = np.random.default_rng(seed)
    k = max(1, int(n * split))
    m_corner = int(nnz * corner_share)
    m_diag = nnz - m_corner
    # Sparse near-diagonal blocks for both partitions.
    d_rows = rng.integers(0, n, m_diag)
    d_cols = np.clip(d_rows + rng.integers(-2, 3, m_diag), 0, n - 1)
    # Coupling block: rows [k, n) x cols [0, k).
    b_rows = rng.integers(k, n, m_corner)
    b_cols = rng.integers(0, k, m_corner)
    rows = np.concatenate((d_rows, b_rows))
    cols = np.concatenate((d_cols, b_cols))
    return _trim(_finalize(n, rows, cols, rng), nnz)
