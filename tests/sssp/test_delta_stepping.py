"""Unit tests for the Δ-stepping kernel."""

import numpy as np
import pytest

from repro.errors import VertexError
from repro.graph.build import from_edge_list
from repro.graph.generators import erdos_renyi, grid_network
from repro.paths import INF, reconstruct_path
from repro.sssp.delta_stepping import choose_delta, delta_stepping
from repro.sssp.dijkstra import dijkstra


def dist_equal(a, b) -> bool:
    return np.allclose(np.nan_to_num(a, posinf=-1.0), np.nan_to_num(b, posinf=-1.0))


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dijkstra_random(self, seed):
        g = erdos_renyi(100, 4.0, seed=seed)
        assert dist_equal(delta_stepping(g, 0).dist, dijkstra(g, 0).dist)

    def test_matches_dijkstra_grid(self, small_grid):
        assert dist_equal(
            delta_stepping(small_grid, 0).dist, dijkstra(small_grid, 0).dist
        )

    @pytest.mark.parametrize("delta", [0.01, 0.1, 1.0, 100.0])
    def test_any_delta_is_correct(self, small_grid, delta):
        res = delta_stepping(small_grid, 0, delta=delta)
        assert dist_equal(res.dist, dijkstra(small_grid, 0).dist)

    def test_unit_weights(self):
        g = grid_network(6, 6, weight_scheme="unit", seed=0)
        assert dist_equal(delta_stepping(g, 0).dist, dijkstra(g, 0).dist)

    def test_parents_form_valid_tree(self, medium_er):
        res = delta_stepping(medium_er, 0)
        dij = dijkstra(medium_er, 0)
        for v in range(medium_er.num_vertices):
            if not np.isfinite(res.dist[v]):
                assert res.parent[v] == -1
                continue
            path = reconstruct_path(res.parent, 0, v)
            assert path is not None
            total = sum(
                medium_er.edge_weight(a, b) for a, b in zip(path[:-1], path[1:])
            )
            assert total == pytest.approx(dij.dist[v])


class TestEdgeCases:
    def test_bad_source(self, diamond_graph):
        with pytest.raises(VertexError):
            delta_stepping(diamond_graph, 17)

    def test_bad_delta(self, diamond_graph):
        with pytest.raises(ValueError):
            delta_stepping(diamond_graph, 0, delta=0.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_delta_raises(self, delta):
        # NaN slipped past a bare ``delta <= 0`` test and inf ran as one
        # bucket; both are configuration errors
        g = erdos_renyi(200, 5.0, seed=1)
        with pytest.raises(ValueError, match="finite"):
            delta_stepping(g, 0, delta=delta)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("backend", ["vectorized", "scalar"])
    def test_tiny_delta_has_no_overflowing_bucket_index(self, backend):
        # dist / 1e-200 is far past int64: the bucket index must be capped
        # before the cast, not wrapped by an undefined one
        g = erdos_renyi(200, 5.0, seed=1)
        res = delta_stepping(g, 0, delta=1e-200, backend=backend)
        assert dist_equal(res.dist, dijkstra(g, 0).dist)

    def test_isolated_source(self):
        g = from_edge_list(3, [(1, 2, 1.0)])
        res = delta_stepping(g, 0)
        assert res.dist[0] == 0.0
        assert res.dist[1] == INF

    def test_single_vertex(self):
        g = from_edge_list(1, [])
        res = delta_stepping(g, 0)
        assert res.dist[0] == 0.0

    def test_vertex_mask_blocks_route(self, diamond_graph):
        mask = np.ones(4, dtype=bool)
        mask[1] = False
        res = delta_stepping(diamond_graph, 0, vertex_mask=mask)
        assert res.dist[3] == pytest.approx(3.0)

    def test_masked_source_raises(self, diamond_graph):
        mask = np.ones(4, dtype=bool)
        mask[0] = False
        with pytest.raises(VertexError):
            delta_stepping(diamond_graph, 0, vertex_mask=mask)


class TestPhaseLog:
    def test_phase_work_recorded(self, medium_er):
        res = delta_stepping(medium_er, 0)
        assert res.stats.phases == len(res.stats.phase_work)
        assert res.stats.phases > 1
        assert sum(res.stats.phase_work) == res.stats.edges_relaxed

    def test_smaller_delta_more_phases(self, small_grid):
        few = delta_stepping(small_grid, 0, delta=10.0).stats.phases
        many = delta_stepping(small_grid, 0, delta=0.05).stats.phases
        assert many > few

    def test_settled_count(self, small_grid):
        res = delta_stepping(small_grid, 0)
        assert res.stats.vertices_settled == res.num_reached()


class TestChooseDelta:
    def test_positive(self, medium_er):
        assert choose_delta(medium_er) > 0

    def test_empty_graph(self):
        g = from_edge_list(3, [])
        assert choose_delta(g) == 1.0

    def test_zero_mean_weight_raises(self):
        from repro.errors import KSPError
        from repro.graph.csr import CSRGraph

        g = CSRGraph(
            np.array([0, 1, 2], dtype=np.int64),
            np.array([1, 0], dtype=np.int64),
            np.array([0.0, 0.0]),
            check=False,
        )
        with pytest.raises(KSPError, match="mean edge weight"):
            choose_delta(g)

    def test_nan_mean_weight_raises(self):
        from repro.errors import KSPError
        from repro.graph.csr import CSRGraph

        g = CSRGraph(
            np.array([0, 1, 2], dtype=np.int64),
            np.array([1, 0], dtype=np.int64),
            np.array([np.nan, 1.0]),
            check=False,
        )
        with pytest.raises(KSPError, match="nan"):
            choose_delta(g)
