"""Graph container, builder, and preprocessing tests."""

import networkx as nx
import numpy as np
import pytest

from repro.dynamic import DeltaGraph
from repro.errors import GraphError
from repro.graph.builder import build_graph, edges_from_iterable
from repro.graph.graph import Graph
from repro.graph.preprocess import (
    induced_subgraph,
    largest_connected_component,
    remove_self_loops,
    symmetrize,
    to_dag,
    with_random_weights,
    with_unit_weights,
)
from repro.matrix.coo import COOMatrix

from tests.conftest import as_networkx


class TestGraphContainer:
    def test_from_edges(self):
        g = Graph.from_edges(
            3, np.array([0, 1]), np.array([1, 2]), np.array([5.0, 6.0])
        )
        assert g.n_vertices == 3
        assert g.n_edges == 2

    def test_rejects_non_square(self):
        with pytest.raises(GraphError):
            Graph(COOMatrix((2, 3), np.array([0]), np.array([1])))

    def test_degrees(self, fig1):
        """Degrees are counted from the COO and equal the CSR's row
        lengths, isolated vertices (5, 6), self-loops (1, 3) and sinks
        (4) included, on a plain graph and on a delta overlay."""
        assert fig1.out_degrees().tolist() == [3, 1, 1, 1]
        assert fig1.in_degrees().tolist() == [1, 1, 2, 2]
        src = np.array([0, 0, 1, 1, 2, 3, 3])
        dst = np.array([1, 4, 1, 2, 4, 3, 0])
        graph = Graph.from_edges(7, src, dst)
        overlay = DeltaGraph(graph).apply_delta(
            inserts=([2, 0], [2, 3]), deletes=([0], [1])
        )
        for g in (graph, overlay):
            out_deg, in_deg = g.out_degrees(), g.in_degrees()
            assert g._out_csr is None and g._in_csr is None
            assert out_deg.dtype == in_deg.dtype == np.int64
            assert np.array_equal(out_deg, np.diff(g.out_csr().indptr))
            assert np.array_equal(in_deg, np.diff(g.in_csr().indptr))
            assert out_deg[5] == in_deg[5] == out_deg[6] == in_deg[6] == 0
            assert out_deg[4] == 0 and in_deg[4] > 0
        # Callers get a copy: scribbling on it leaves the graph's count.
        graph.out_degrees()[0] = 99
        assert graph.out_degrees()[0] == 2

    def test_csr_views_cached(self, fig1):
        assert fig1.out_csr() is fig1.out_csr()
        assert fig1.in_csr() is fig1.in_csr()

    def test_partitions_cached_per_key(self, fig1):
        p1 = fig1.out_partitions(2)
        assert fig1.out_partitions(2) is p1
        assert fig1.out_partitions(3) is not p1

    def test_invalidate_caches(self, fig1):
        p1 = fig1.out_partitions(2)
        fig1.invalidate_caches()
        assert fig1.out_partitions(2) is not p1

    def test_out_partitions_orientation(self, fig1):
        """Out view stores A^T: columns are message sources."""
        block = fig1.out_partitions(1).blocks[0]
        rows, _ = block.column(0)  # messages from vertex 0 (A)
        assert sorted(rows.tolist()) == [1, 2, 3]  # A's out-neighbors

    def test_vertex_state_management(self, fig1):
        fig1.set_all_active()
        assert fig1.active_count == 4
        fig1.set_inactive(0)
        assert fig1.active_count == 3
        fig1.set_all_inactive()
        fig1.set_active(2)
        assert fig1.active_count == 1
        with pytest.raises(GraphError):
            fig1.set_active(99)

    def test_vertex_properties(self, fig1):
        fig1.set_all_vertex_property(7.0)
        assert fig1.get_vertex_property(1) == 7.0
        fig1.set_vertex_property(1, 3.0)
        assert fig1.get_vertex_property(1) == 3.0
        with pytest.raises(GraphError):
            fig1.set_vertex_property(-1, 0.0)

    def test_repr(self, fig1):
        assert "n_vertices=4" in repr(fig1)


class TestBuilder:
    def test_from_tuples(self):
        g = build_graph([(0, 1), (1, 2)])
        assert g.n_vertices == 3
        assert g.n_edges == 2

    def test_weighted_tuples(self):
        g = build_graph([(0, 1, 2.5)])
        assert g.edges.vals.tolist() == [2.5]

    def test_mixed_tuples_rejected(self):
        with pytest.raises(GraphError):
            build_graph([(0, 1), (1, 2, 3.0)])

    def test_bad_tuple_arity(self):
        with pytest.raises(GraphError):
            build_graph([(0, 1, 2, 3)])

    def test_self_loops_removed_by_default(self):
        g = build_graph([(0, 0), (0, 1)])
        assert g.n_edges == 1

    def test_self_loops_kept_on_request(self):
        g = build_graph([(0, 0), (0, 1)], remove_self_loops=False)
        assert g.n_edges == 2

    def test_dedup(self):
        g = build_graph([(0, 1, 1.0), (0, 1, 9.0)])
        assert g.n_edges == 1
        assert g.edges.vals.tolist() == [9.0]

    def test_symmetrize_flag(self):
        g = build_graph([(0, 1)], symmetrize=True)
        assert g.n_edges == 2

    def test_explicit_vertex_count(self):
        g = build_graph([(0, 1)], n_vertices=10)
        assert g.n_vertices == 10

    def test_coo_input_shape_conflict(self):
        coo = COOMatrix((3, 3), np.array([0]), np.array([1]))
        with pytest.raises(GraphError):
            build_graph(coo, n_vertices=5)

    def test_edges_from_iterable(self):
        src, dst, w = edges_from_iterable([(1, 2, 0.5), (3, 4, 1.5)])
        assert src.tolist() == [1, 3]
        assert dst.tolist() == [2, 4]
        assert w.tolist() == [0.5, 1.5]


class TestPreprocess:
    def test_remove_self_loops(self):
        g = build_graph([(0, 0), (0, 1)], remove_self_loops=False)
        assert remove_self_loops(g).n_edges == 1

    def test_symmetrize_makes_symmetric(self, rmat_small):
        sym = symmetrize(rmat_small)
        dense = np.zeros((sym.n_vertices, sym.n_vertices), dtype=bool)
        dense[sym.edges.rows, sym.edges.cols] = True
        assert np.array_equal(dense, dense.T)

    def test_to_dag_upper_triangular(self, rmat_small):
        dag = to_dag(rmat_small)
        assert np.all(dag.edges.rows < dag.edges.cols)

    def test_to_dag_preserves_undirected_edge_count(self, rmat_small):
        sym = symmetrize(rmat_small)
        dag = to_dag(rmat_small)
        assert dag.n_edges == sym.n_edges // 2

    def test_unit_weights(self):
        g = build_graph([(0, 1, 5.0), (1, 2, 7.0)])
        assert with_unit_weights(g).edges.vals.tolist() == [1, 1]

    def test_random_weights_range(self, rmat_small):
        g = with_random_weights(rmat_small, low=2.0, high=3.0, seed=1)
        assert g.edges.vals.min() >= 2.0
        assert g.edges.vals.max() < 3.0

    def test_random_weights_deterministic(self, rmat_small):
        a = with_random_weights(rmat_small, seed=5).edges.vals
        b = with_random_weights(rmat_small, seed=5).edges.vals
        assert np.array_equal(a, b)

    def test_random_weights_bad_range(self, rmat_small):
        with pytest.raises(GraphError):
            with_random_weights(rmat_small, low=5.0, high=5.0)

    def test_induced_subgraph(self):
        g = build_graph([(0, 1), (1, 2), (2, 3)])
        sub = induced_subgraph(g, np.array([1, 2]))
        assert sub.n_vertices == 2
        assert sub.n_edges == 1  # only 1->2 survives, relabelled 0->1
        assert sub.edges.rows.tolist() == [0]
        assert sub.edges.cols.tolist() == [1]

    def test_induced_subgraph_bad_ids(self):
        g = build_graph([(0, 1)])
        with pytest.raises(GraphError):
            induced_subgraph(g, np.array([5]))

    def test_largest_connected_component(self):
        g = build_graph([(0, 1), (1, 2), (3, 4)], n_vertices=6)
        lcc = largest_connected_component(g)
        assert lcc.n_vertices == 3
        assert lcc.n_edges == 2

    def test_lcc_matches_networkx(self, rmat_small):
        lcc = largest_connected_component(rmat_small)
        undirected = as_networkx(rmat_small, directed=False)
        expected = max(nx.connected_components(undirected), key=len)
        assert lcc.n_vertices == len(expected)
