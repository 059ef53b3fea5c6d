"""Correctness tests for the 11 Table-III workloads against independent
references (dense numpy, scipy, networkx)."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.graphblas import Matrix
from repro.matrices import erdos_renyi, grid_2d, road_network
from repro.workloads import WORKLOADS, get_workload, workload_names
from repro.workloads.pagerank import normalize_columns_out
from repro.workloads import solvers
from repro.workloads.solvers import build_spd_system, spd_system


@pytest.fixture(scope="module")
def graph() -> Matrix:
    return Matrix(erdos_renyi(80, 600, seed=11))


@pytest.fixture(scope="module")
def sparse_graph() -> Matrix:
    return Matrix(road_network(150, 400, seed=12))


class TestRegistry:
    def test_table_iii_order(self):
        assert workload_names() == [
            "pr", "kcore", "bfs", "sssp", "kpp", "knn",
            "label", "gcn", "gmres", "cg", "bgs",
        ]

    def test_unknown_workload(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            get_workload("nope")

    def test_oei_classification_matches_table_iii(self):
        for name in ("pr", "kcore", "bfs", "sssp", "kpp", "knn", "label", "gcn", "gmres"):
            assert WORKLOADS[name].program().has_oei, name
        for name in ("cg", "bgs"):
            assert not WORKLOADS[name].program().has_oei, name

    def test_semirings_match_table_iii(self):
        expected = {
            "pr": "mul_add", "kcore": "mul_add", "bfs": "and_or",
            "sssp": "min_add", "kpp": "aril_add", "knn": "and_or",
            "label": "mul_add", "gcn": "mul_add", "gmres": "mul_add",
            "cg": "mul_add", "bgs": "mul_add",
        }
        for name, semiring in expected.items():
            assert WORKLOADS[name].program().semiring_name == semiring, name

    def test_profiles_buildable_for_all(self, graph):
        for name in workload_names():
            prof = WORKLOADS[name].profile(graph)
            assert prof.n_iterations >= 1, name


class TestPageRank:
    def test_matches_dense_power_iteration(self, graph):
        result = get_workload("pr").run_functional(graph)
        # Dense reference with the same damping and dangling handling.
        n = graph.nrows
        link = normalize_columns_out(graph).to_dense()
        dangling = graph.row_degrees() == 0
        pr = np.full(n, 1.0 / n)
        for _ in range(result.n_iterations):
            teleport = 0.15 / n + 0.85 * pr[dangling].sum() / n
            pr = 0.85 * (pr @ link) + teleport
        np.testing.assert_allclose(result.output, pr, rtol=1e-8)

    def test_ranks_sum_to_one(self, graph):
        result = get_workload("pr").run_functional(graph)
        assert np.isclose(result.output.sum(), 1.0, atol=1e-6)

    def test_converges_within_cap(self, graph):
        result = get_workload("pr").run_functional(graph)
        assert result.n_iterations < get_workload("pr").max_iterations


class TestBFS:
    def test_levels_match_reference(self, sparse_graph):
        nx = pytest.importorskip("networkx")
        result = get_workload("bfs").run_functional(sparse_graph, source=0)
        coo = sparse_graph.coo
        g = nx.DiGraph()
        g.add_nodes_from(range(sparse_graph.nrows))
        g.add_edges_from(zip(coo.rows.tolist(), coo.cols.tolist()))
        expected = nx.single_source_shortest_path_length(g, 0)
        for v in range(sparse_graph.nrows):
            ref = expected.get(v, -1)
            if ref >= get_workload("bfs").max_iterations:
                continue  # beyond the iteration cap
            assert result.output[v] == ref, f"vertex {v}"

    def test_activity_is_frontier_fraction(self, graph):
        result = get_workload("bfs").run_functional(graph, source=3)
        assert len(result.activity) == result.n_iterations
        assert all(0.0 <= a <= 1.0 for a in result.activity)

    def test_bad_source(self, graph):
        with pytest.raises(ValueError):
            get_workload("bfs").run_functional(graph, source=10**6)


class TestSSSP:
    def test_matches_scipy_bellman_ford(self, graph):
        sp = pytest.importorskip("scipy.sparse")
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        result = get_workload("sssp").run_functional(graph, source=0)
        coo = graph.coo
        mat = sp.coo_matrix(
            (coo.vals, (coo.rows, coo.cols)), shape=graph.shape
        )
        ref = np.asarray(csgraph.bellman_ford(mat, indices=0, directed=True)).ravel()
        converged = result.n_iterations < get_workload("sssp").max_iterations
        if converged:
            np.testing.assert_allclose(result.output, ref)
        else:
            reached = np.isfinite(result.output)
            np.testing.assert_array_less(
                ref[reached] - 1e-9, result.output[reached] + 1e-9
            )

    def test_source_distance_zero(self, graph):
        result = get_workload("sssp").run_functional(graph, source=5)
        assert result.output[5] == 0.0

    def test_distances_monotone_triangle(self, graph):
        # Every edge (u, v) must satisfy d(v) <= d(u) + w(u, v) at
        # convergence.
        result = get_workload("sssp").run_functional(graph, source=0)
        if result.n_iterations >= get_workload("sssp").max_iterations:
            pytest.skip("did not converge within the cap")
        coo = graph.coo
        d = result.output
        finite = np.isfinite(d[coo.rows])
        assert np.all(
            d[coo.cols[finite]] <= d[coo.rows[finite]] + coo.vals[finite] + 1e-9
        )


class TestKCore:
    def test_matches_networkx(self, graph):
        nx = pytest.importorskip("networkx")
        k = 3
        workload = get_workload("kcore")
        result = workload.run_functional_pattern(graph, k=k)
        coo = graph.coo
        g = nx.DiGraph()
        g.add_nodes_from(range(graph.nrows))
        g.add_edges_from(zip(coo.rows.tolist(), coo.cols.tolist()))
        # Our peel counts in-neighbors (vxm = column reduction).
        alive = set(np.flatnonzero(result.output).tolist())
        expected = set(range(graph.nrows))
        changed = True
        while changed:
            changed = False
            for v in list(expected):
                indeg = sum(1 for u, _ in g.in_edges(v) if u in expected)
                if indeg < k:
                    expected.discard(v)
                    changed = True
        assert alive == expected

    def test_rejects_bad_k(self):
        from repro.workloads.kcore import KCore

        with pytest.raises(ValueError):
            KCore(k=0)

    def test_activity_non_increasing(self, graph):
        result = get_workload("kcore").run_functional(graph, k=4)
        assert all(
            b <= a + 1e-12 for a, b in zip(result.activity, result.activity[1:])
        )


class TestKNNAndKPP:
    def test_knn_reach_grows_monotonically(self, graph):
        result = get_workload("knn").run_functional(graph, seeds=3)
        assert all(
            b >= a for a, b in zip(result.activity, result.activity[1:])
        )

    def test_knn_output_is_binary(self, graph):
        result = get_workload("knn").run_functional(graph)
        assert set(np.unique(result.output)).issubset({0.0, 1.0})

    def test_kpp_selects_requested_centers(self, graph):
        result = get_workload("kpp").run_functional(graph, n_centers=5)
        centers = result.extras["centers"]
        assert len(centers) == 5
        assert len(set(centers)) == 5  # centers have distance 0

    def test_kpp_center_distances_zero(self, graph):
        result = get_workload("kpp").run_functional(graph, n_centers=4)
        for c in result.extras["centers"]:
            assert result.output[c] == 0.0

    def test_kpp_distances_nonnegative(self, graph):
        result = get_workload("kpp").run_functional(graph)
        assert np.all(result.output >= 0)


class TestLabelAndGCN:
    def test_label_propagation_converges_on_grid(self):
        grid = Matrix(grid_2d(8))
        result = get_workload("label").run_functional(grid, n_rounds=30)
        assert result.n_iterations >= 1
        assert np.all(np.isfinite(result.output))

    def test_label_smoothing_reduces_variance(self, graph):
        result = get_workload("label").run_functional(graph, n_rounds=15)
        # Weighted averaging cannot expand the label range.
        assert result.output.min() >= -1e-9
        assert result.output.max() <= 1.0 + 1e-9

    def test_gcn_output_shape_and_relu(self, graph):
        from repro.workloads.gcn import GCN

        gcn = GCN(feature_dim=8, n_layers=3)
        result = gcn.run_functional(graph)
        assert result.output.shape == (graph.nrows, 8)
        assert np.all(result.output >= 0.0)
        assert result.n_iterations == 3

    def test_gcn_matches_dense_reference(self, graph):
        from repro.workloads.gcn import GCN

        gcn = GCN(feature_dim=4, n_layers=2)
        result = gcn.run_functional(graph, seed=7)
        norm = GCN._normalized(graph).to_dense()
        h = result.extras["features"]
        for w in result.extras["weights"]:
            h = np.maximum((norm @ h) @ w, 0.0)
        np.testing.assert_allclose(result.output, h, rtol=1e-9)

    def test_gcn_profile_carries_feature_dim(self, graph):
        from repro.workloads.gcn import GCN

        prof = GCN(feature_dim=8, n_layers=2).profile(graph)
        assert prof.feature_dim == 8
        assert prof.extra_ops_per_iteration > 0


class TestSolvers:
    @pytest.mark.parametrize("name", ["cg", "bgs", "gmres"])
    def test_solves_spd_system(self, graph, name):
        result = get_workload(name).run_functional(graph)
        assert result.extras["residual"] < 1e-5, name

    def test_spd_system_is_symmetric_positive(self, graph):
        m = build_spd_system(graph).to_dense()
        np.testing.assert_allclose(m, m.T, atol=1e-12)
        eigvals = np.linalg.eigvalsh(m)
        assert eigvals.min() > 0

    def test_cg_matches_numpy_solve(self, graph):
        result = get_workload("cg").run_functional(graph, seed=3)
        m = build_spd_system(graph).to_dense()
        expected = np.linalg.solve(m, result.extras["b"])
        np.testing.assert_allclose(result.output, expected, rtol=1e-4, atol=1e-6)

    def test_one_shared_system_per_matrix(self, monkeypatch):
        matrix = Matrix(road_network(150, 400, seed=13))
        build = solvers.build_spd_system
        with monkeypatch.context() as patch:
            # Every solver on its own freshly built system.
            patch.setattr(solvers, "spd_system", lambda m, taker: build(m))
            fresh = {
                name: get_workload(name).run_functional(matrix)
                for name in ("cg", "bgs", "gmres")
            }
        builds = []

        def counting_build(m):
            builds.append(m)
            return build(m)

        monkeypatch.setattr(solvers, "_SHARED", weakref.WeakKeyDictionary())
        monkeypatch.setattr(solvers, "build_spd_system", counting_build)
        for name in ("cg", "bgs", "gmres"):
            got = get_workload(name).run_functional(matrix)
            want = fresh[name]
            assert got.output.tobytes() == want.output.tobytes(), name
            assert got.n_iterations == want.n_iterations, name
            assert got.activity == want.activity, name
            assert got.extras["residual"] == want.extras["residual"], name
            assert builds == [matrix], name
            assert (matrix in solvers._SHARED) == (name != "gmres"), name

    def test_shared_system_matches_a_fresh_build(self, graph):
        shared = spd_system(graph, solvers.ConjugateGradient)
        fresh = build_spd_system(graph)
        for field in ("rows", "cols", "vals"):
            np.testing.assert_array_equal(
                getattr(shared.coo, field), getattr(fresh.coo, field))
        for field in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(
                getattr(shared.csr, field), getattr(fresh.csr, field))
        np.testing.assert_array_equal(shared.row_ids, fresh.row_ids)

    def test_shared_system_dies_with_its_matrix(self):
        matrix = Matrix(road_network(60, 150, seed=14))
        system = weakref.ref(spd_system(matrix, solvers.ConjugateGradient))
        assert system() is not None
        del matrix
        gc.collect()
        assert system() is None

    def test_shared_system_under_racing_threads(self, monkeypatch):
        matrices = [Matrix(road_network(80, 200, seed=s)) for s in range(4)]
        build = solvers.build_spd_system
        builds = []

        def counting_build(m):
            builds.append(m)
            return build(m)

        monkeypatch.setattr(solvers, "_SHARED", weakref.WeakKeyDictionary())
        monkeypatch.setattr(solvers, "build_spd_system", counting_build)
        errors = []

        def take(taker):
            try:
                for m in matrices:
                    spd_system(m, taker)
            except BaseException as exc:  # reported by the assert below
                errors.append(exc)

        takers = [solvers.ConjugateGradient, solvers.BiCGStab, solvers.GMRES]
        threads = [threading.Thread(target=take, args=(t,)) for t in takers * 2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # Each matrix is built once, then at most once more by a late
        # repeat taker after the three solvers released it.
        assert all(1 <= builds.count(m) <= 2 for m in matrices)

    def test_gmres_restart_validation(self):
        from repro.workloads.solvers import GMRES

        with pytest.raises(ValueError):
            GMRES(restart=0)


class TestKCoreDecompose:
    def test_core_numbers_consistent_with_per_k_peel(self, graph):
        workload = get_workload("kcore")
        decomposition = workload.decompose(graph, max_k=6)
        core = decomposition.output
        for k in (1, 2, 3):
            alive = workload.run_functional_pattern(graph, k=k).output > 0
            np.testing.assert_array_equal(core >= k, alive)

    def test_core_numbers_bounded_by_in_degree(self, graph):
        core = get_workload("kcore").decompose(graph, max_k=8).output
        indeg = graph.col_degrees()
        assert np.all(core <= indeg)

    def test_max_core_reported(self, graph):
        result = get_workload("kcore").decompose(graph, max_k=8)
        assert result.extras["max_core"] == int(result.output.max())

    def test_empty_graph_all_zero(self):
        from repro.formats.coo import COOMatrix

        empty = Matrix(COOMatrix.empty((5, 5)))
        result = get_workload("kcore").decompose(empty, max_k=3)
        assert np.all(result.output == 0)


class TestWorkloadBase:
    def test_profile_requires_matrix_or_iterations(self):
        with pytest.raises(ValueError, match="needs a matrix"):
            get_workload("pr").profile()

    def test_profile_with_explicit_iterations_skips_functional(self):
        prof = get_workload("pr").profile(n_iterations=9)
        assert prof.n_iterations == 9
        assert prof.activity == ()

    def test_program_is_cached(self):
        w = get_workload("sssp")
        assert w.program() is w.program()
