"""Tests for the matrix generators and the Table-I suite."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrices import generators
from repro.matrices import (
    SUITE,
    banded_mesh,
    bipartite_block,
    circuit_like,
    clique_overlap,
    erdos_renyi,
    grid_2d,
    load_suite_matrix,
    power_law,
    rmat,
    road_network,
    suite_names,
)
from repro.oei import reuse_footprint
from tests.strategies import seeds


class TestGenerators:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: rmat(200, 1500, seed=1),
            lambda: erdos_renyi(200, 1500, seed=1),
            lambda: power_law(200, 1500, seed=1),
            lambda: banded_mesh(200, 10, 1500, seed=1),
            lambda: road_network(200, 600, seed=1),
            lambda: circuit_like(200, 1200, seed=1),
            lambda: clique_overlap(200, 1500, clique_size=10, seed=1),
            lambda: bipartite_block(200, 1500, seed=1),
        ],
        ids=["rmat", "er", "powerlaw", "banded", "road", "circuit", "clique", "bipartite"],
    )
    def test_basic_invariants(self, build):
        coo = build()
        assert coo.shape == (200, 200)
        assert coo.nnz > 0
        # No self-loops, coordinates in range, deduplicated.
        assert np.all(coo.rows != coo.cols)
        dedup = coo.deduplicate()
        assert dedup.nnz == coo.nnz

    def test_deterministic(self):
        a = rmat(100, 500, seed=7)
        b = rmat(100, 500, seed=7)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.vals, b.vals)

    def test_seed_changes_output(self):
        a = rmat(100, 500, seed=7)
        b = rmat(100, 500, seed=8)
        assert not (
            a.nnz == b.nnz and np.array_equal(a.rows, b.rows)
        )

    def test_nnz_close_to_requested(self):
        coo = erdos_renyi(300, 2000, seed=3)
        assert 0.8 * 2000 <= coo.nnz <= 2000

    def test_banded_respects_bandwidth(self):
        coo = banded_mesh(300, 7, 2000, seed=3)
        assert np.abs(coo.rows - coo.cols).max() <= 7

    def test_grid_2d_degree(self):
        coo = grid_2d(10)
        degrees = np.bincount(coo.rows, minlength=100)
        assert degrees.max() <= 4
        assert degrees.min() >= 2

    def test_power_law_lower_bias(self):
        coo = power_law(300, 3000, lower_bias=1.0, seed=5)
        below = np.count_nonzero(coo.rows > coo.cols)
        assert below / coo.nnz > 0.95

    def test_bipartite_block_corner_mass(self):
        coo = bipartite_block(400, 4000, split=0.45, corner_share=0.9, seed=2)
        k = int(400 * 0.45)
        corner = np.count_nonzero((coo.rows >= k) & (coo.cols < k))
        assert corner / coo.nnz > 0.7

    def test_rmat_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            rmat(10, 20, a=0.6, b=0.3, c=0.3)

    def test_positive_values(self):
        coo = road_network(200, 600, seed=1)
        assert np.all(coo.vals > 0)


def _searchsorted_rmat(n, nnz, a=0.57, b=0.19, c=0.19, seed=0):
    """R-MAT with each level's quadrant picked by ``np.searchsorted``
    over the cumulative probabilities (the sampler ``rmat`` replaced)."""
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError(f"rmat probabilities exceed 1: a+b+c={a + b + c}")
    rng = np.random.default_rng(seed)
    levels = max(1, int(np.ceil(np.log2(n))))
    size = 1 << levels
    m = int(nnz * 1.35) + 16
    rows = np.zeros(m, dtype=np.int64)
    cols = np.zeros(m, dtype=np.int64)
    cum = np.cumsum(np.array([a, b, c, d]))
    for _ in range(levels):
        quadrant = np.searchsorted(cum, rng.random(m))
        rows = rows * 2 + (quadrant >= 2)
        cols = cols * 2 + (quadrant % 2)
    scale = n / size
    rows = np.minimum((rows * scale).astype(np.int64), n - 1)
    cols = np.minimum((cols * scale).astype(np.int64), n - 1)
    return generators._trim(generators._finalize(n, rows, cols, rng), nnz)


def _assert_same_rmat(n, nnz, seed, **probs):
    try:
        want = _searchsorted_rmat(n, nnz, seed=seed, **probs)
    except ValueError:
        with pytest.raises(ValueError):
            rmat(n, nnz, seed=seed, **probs)
        return
    got = rmat(n, nnz, seed=seed, **probs)
    for field in ("rows", "cols", "vals"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


_default_rng = np.random.default_rng


class _DrawsOnTheEdges:
    """A seeded numpy generator whose ``random`` draws only values on
    and next to the cumulative probabilities ``cum`` (those above a
    ``cum[3]`` that rounds below 1.0 included); every other method is
    the real generator's. Plain uniform draws land within one ulp of a
    boundary with probability ~1e-16."""

    def __init__(self, seed, cum):
        self._rng = _default_rng(seed)
        edges = {0.0}
        for c in cum:
            edges.update((c, np.nextafter(c, 0.0), np.nextafter(c, 2.0)))
        self._edges = np.array(sorted(e for e in edges if 0.0 <= e < 1.0))

    def random(self, size=None, out=None):
        n = size if out is None else out.size
        draws = self._edges[self._rng.integers(0, self._edges.size, n)]
        if out is None:
            return draws
        out[...] = draws
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestRmatSampler:
    """``rmat`` draws each quadrant bit from comparisons against the
    cumulative probabilities; it must reproduce the searchsorted
    sampler bit for bit, from the same random stream."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 600), nnz=st.integers(1, 3000), seed=seeds)
    def test_default_probabilities(self, n, nnz, seed):
        _assert_same_rmat(n, nnz, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.tuples(*[st.floats(0.0, 1.0)] * 4).filter(lambda w: sum(w) > 0),
        n=st.integers(1, 300), seed=seeds,
    )
    def test_drawn_probabilities(self, weights, n, seed):
        total = sum(weights)
        a, b, c = (w / total for w in weights[:3])
        _assert_same_rmat(n, 4 * n, seed, a=a, b=b, c=c)

    @pytest.mark.parametrize("a,b", [(0.5, 0.25), (0.25, 0.25), (0.6, 0.4), (1.0, 0.0)])
    def test_no_fourth_quadrant(self, a, b):
        c = 1.0 - a - b
        assert 1.0 - a - b - c == 0.0
        _assert_same_rmat(257, 2000, 11, a=a, b=b, c=c)

    @pytest.mark.parametrize("a,b,c", [(0.5, 0.2, 0.2), (0.4, 0.3, 0.2), (0.03, 0.29, 0.04)])
    def test_cumulative_sum_below_one(self, a, b, c):
        assert np.cumsum([a, b, c, 1.0 - a - b - c])[3] < 1.0
        _assert_same_rmat(1000, 5000, 3, a=a, b=b, c=c)

    @pytest.mark.parametrize("a,b,c", [
        (0.03, 0.29, 0.04), (0.5, 0.2, 0.2), (0.57, 0.19, 0.19), (0.5, 0.25, 0.25),
    ])
    def test_draws_on_the_boundaries(self, a, b, c, monkeypatch):
        cum = np.cumsum([a, b, c, 1.0 - a - b - c]).tolist()
        if (a, b, c) == (0.03, 0.29, 0.04):
            # cum[3] is 1 - 2**-52: a draw of 1 - 2**-53 lies above it,
            # and searchsorted puts it in a fifth "quadrant", q = 4.
            assert np.nextafter(cum[3], 2.0) < 1.0
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _DrawsOnTheEdges(seed, cum))
        _assert_same_rmat(700, 4000, 5, a=a, b=b, c=c)


class TestSuite:
    def test_names_in_paper_order(self):
        assert suite_names() == ["ca", "gy", "g2", "co", "bu", "wi", "ad", "ro", "eu"]

    def test_load_is_cached(self):
        assert load_suite_matrix("gy") is load_suite_matrix("gy")

    def test_unknown_matrix(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            load_suite_matrix("zz")

    @pytest.mark.parametrize("name", ["ca", "gy", "g2", "ro"])
    def test_matrices_are_square_nonempty(self, name):
        m = load_suite_matrix(name)
        assert m.nrows == m.ncols
        assert m.nnz > 1000

    def test_footprint_ordering_matches_paper(self):
        """The qualitative Table-I result: bu/ca/wi large, roads tiny."""
        pct = {
            name: reuse_footprint(load_suite_matrix(name)).avg_pct
            for name in suite_names()
        }
        assert pct["bu"] > pct["ca"] > pct["co"]
        assert pct["wi"] > pct["co"]
        assert pct["ro"] < 3.0
        assert pct["gy"] < 5.0
        assert pct["bu"] > 30.0


class TestNewGenerators:
    def test_watts_strogatz_degree(self):
        from repro.matrices import watts_strogatz

        coo = watts_strogatz(200, k=6, rewire=0.0, seed=1)
        # Pure ring lattice: every vertex has degree exactly k.
        degrees = np.bincount(coo.rows, minlength=200)
        assert np.all(degrees == 6)

    def test_watts_strogatz_rewire_scatters(self):
        from repro.matrices import watts_strogatz
        from repro.oei import reuse_footprint

        local = reuse_footprint(watts_strogatz(300, k=6, rewire=0.0, seed=2))
        scattered = reuse_footprint(watts_strogatz(300, k=6, rewire=0.8, seed=2))
        assert scattered.avg_pct > local.avg_pct

    def test_barabasi_albert_has_hubs(self):
        from repro.matrices import barabasi_albert

        coo = barabasi_albert(300, m=3, seed=3)
        degrees = np.bincount(coo.rows, minlength=300)
        # Preferential attachment: the max degree dwarfs the median.
        assert degrees.max() > 4 * np.median(degrees[degrees > 0])

    def test_barabasi_albert_connected_shape(self):
        from repro.matrices import barabasi_albert

        coo = barabasi_albert(100, m=2, seed=4)
        assert coo.shape == (100, 100)
        assert coo.nnz >= 2 * 97  # ~m edges per arriving vertex, both dirs


class TestAutotune:
    def test_returns_candidate_and_result(self):
        from repro.arch.autotune import autotune_subtensor_cols
        from repro.arch.config import SparsepipeConfig
        from repro.arch.profile import WorkloadProfile
        from repro.matrices import rmat

        profile = WorkloadProfile(
            name="pr", semiring_name="mul_add", has_oei=True,
            n_iterations=8, path_ewise_ops=2,
        )
        coo = rmat(500, 4000, seed=5)
        best, result = autotune_subtensor_cols(
            profile, coo, SparsepipeConfig(), candidates=(16, 64, 256)
        )
        assert best in (16, 64, 256)
        assert result.n_iterations == 8

    def test_best_never_worse_than_fixed_candidates(self):
        from repro.arch.autotune import autotune_subtensor_cols
        from repro.arch.config import SparsepipeConfig
        from repro.arch.profile import WorkloadProfile
        from repro.arch.simulator import SparsepipeSimulator
        from dataclasses import replace
        from repro.matrices import rmat

        profile = WorkloadProfile(
            name="pr", semiring_name="mul_add", has_oei=True,
            n_iterations=6, path_ewise_ops=2,
        )
        coo = rmat(400, 3000, seed=6)
        candidates = (16, 128)
        best, tuned = autotune_subtensor_cols(
            profile, coo, SparsepipeConfig(), candidates=candidates,
            probe_iterations=6,  # probe == full run -> exact choice
        )
        fixed = [
            SparsepipeSimulator(
                replace(SparsepipeConfig(), subtensor_cols=c)
            ).run(profile, coo).cycles
            for c in candidates
        ]
        assert tuned.cycles == pytest.approx(min(fixed))

    def test_rejects_empty_candidates(self):
        from repro.arch.autotune import autotune_subtensor_cols
        from repro.arch.profile import WorkloadProfile
        from repro.errors import ConfigError
        from repro.matrices import rmat

        profile = WorkloadProfile(
            name="pr", semiring_name="mul_add", has_oei=True, n_iterations=2,
        )
        with pytest.raises(ConfigError):
            autotune_subtensor_cols(profile, rmat(50, 200, seed=1), candidates=())
