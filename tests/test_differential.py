"""Property-based differential testing: all seven algorithms vs oracles.

Two layers:

1. **Deterministic adversarial suite** (fast, always on): the named
   hostile shapes — empty graph, single vertex, self-loops, duplicate
   edges, disconnected components, dangling sinks, zero-weight edges —
   run through every algorithm on every execution backend and checked
   against NetworkX / dense-NumPy oracles.
2. **Hypothesis suite** (marked ``slow``; the CI fast lane skips it,
   the full-suite job runs it): randomized graphs drawn from a strategy
   that deliberately produces those same pathologies, plus a stateful
   property test that a random sequence of insert/delete batches on a
   :class:`~repro.dynamic.DeltaGraph` always matches a from-scratch
   ``Graph`` built from the final edge set — for every algorithm, and
   for the incremental drivers against their full-recompute twins.

Oracle notes: PageRank and CF are checked against dense NumPy
re-implementations of the exact update rules (including the engine's
receivers-only ``apply`` semantics); BFS/SSSP/CC/LP/TC are checked
against NetworkX.  Min-semiring programs must match *bitwise*; additive
float programs within tight tolerances (summation order differs from
the oracle's by construction).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import networkx as nx

from repro.algorithms import (
    run_bfs,
    run_collaborative_filtering,
    run_connected_components,
    run_label_propagation,
    run_pagerank,
    run_sssp,
    run_triangle_count,
)
from repro.core.options import EngineOptions
from repro.dynamic import (
    DeltaGraph,
    incremental_bfs,
    incremental_components,
    incremental_pagerank,
    incremental_sssp,
)
from repro.graph.graph import Graph
from repro.graph.preprocess import symmetrize, to_dag

ALL_BACKENDS = ("serial", "threaded")

HYPOTHESIS_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Graph construction helpers
# ----------------------------------------------------------------------
def build_graph(n: int, triples: list[tuple[int, int, float]]) -> Graph:
    src = np.array([t[0] for t in triples], dtype=np.int64)
    dst = np.array([t[1] for t in triples], dtype=np.int64)
    vals = np.array([t[2] for t in triples], dtype=np.float64)
    return Graph.from_edges(n, src, dst, vals)


def final_edges(triples: list[tuple[int, int, float]]) -> dict:
    """Keep-last dedup reference, independent of the library."""
    return {(u, v): w for (u, v, w) in triples}


def as_digraph(graph: Graph) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.n_vertices))
    coo = graph.edges
    for k in range(coo.nnz):
        g.add_edge(
            int(coo.rows[k]), int(coo.cols[k]), weight=float(coo.vals[k])
        )
    return g


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def oracle_bfs(graph: Graph, root: int) -> np.ndarray:
    lengths = nx.single_source_shortest_path_length(as_digraph(graph), root)
    out = np.full(graph.n_vertices, np.inf)
    for v, d in lengths.items():
        out[v] = float(d)
    return out


def oracle_sssp(graph: Graph, source: int) -> np.ndarray:
    lengths = nx.single_source_dijkstra_path_length(
        as_digraph(graph), source, weight="weight"
    )
    out = np.full(graph.n_vertices, np.inf)
    for v, d in lengths.items():
        out[v] = float(d)
    return out


def oracle_pagerank(graph: Graph, r: float, iterations: int) -> np.ndarray:
    """Dense replication of the engine's update, receivers-only apply."""
    n = graph.n_vertices
    coo = graph.edges
    out_deg = np.bincount(coo.rows, minlength=n).astype(np.float64)
    inv = np.zeros(n)
    np.divide(1.0, out_deg, out=inv, where=out_deg > 0)
    matrix = np.zeros((n, n))
    matrix[coo.rows, coo.cols] = 1.0  # deduplicated: one entry per pair
    receives = np.bincount(coo.cols, minlength=n) > 0
    x = np.ones(n)
    for _ in range(iterations):
        insum = (x * inv) @ matrix
        x = np.where(receives, r + (1.0 - r) * insum, x)
    return x


def oracle_components(graph: Graph) -> np.ndarray:
    out = np.zeros(graph.n_vertices, dtype=np.int64)
    for comp in nx.weakly_connected_components(as_digraph(graph)):
        label = min(comp)
        for v in comp:
            out[v] = label
    return out


def oracle_label_propagation(
    graph: Graph, seeds: dict[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest seed by (hop distance, label) lexicographic minimum."""
    n = graph.n_vertices
    g = as_digraph(graph)
    labels = np.full(n, -1, dtype=np.int64)
    distances = np.full(n, np.inf)
    best = {}
    for seed, label in seeds.items():
        for v, d in nx.single_source_shortest_path_length(g, seed).items():
            key = (d, label)
            if v not in best or key < best[v]:
                best[v] = key
    for v, (d, label) in best.items():
        labels[v] = label
        distances[v] = float(d)
    return labels, distances


def oracle_triangles(graph: Graph) -> int:
    """Triangles of the underlying simple undirected graph."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.n_vertices))
    coo = graph.edges
    for k in range(coo.nnz):
        u, v = int(coo.rows[k]), int(coo.cols[k])
        if u != v:
            g.add_edge(u, v)
    return sum(nx.triangles(g).values()) // 3


def oracle_cf(
    graph: Graph, n_users: int, k: int, gamma: float, lam: float,
    iterations: int, seed: int,
) -> np.ndarray:
    """Dense replication of the CF gradient step (BSP: both sides update
    from the previous iterate)."""
    n = graph.n_vertices
    rng = np.random.default_rng(seed)
    factors = rng.uniform(0.0, 0.1, size=(n, k))
    coo = graph.edges
    for _ in range(iterations):
        previous = factors.copy()
        gradient = np.zeros_like(previous)
        received = np.zeros(n, dtype=bool)
        for e in range(coo.nnz):
            u, v = int(coo.rows[e]), int(coo.cols[e])
            err = float(coo.vals[e]) - float(previous[u] @ previous[v])
            gradient[v] += err * previous[u]
            gradient[u] += err * previous[v]
            received[u] = received[v] = True
        factors = np.where(
            received[:, None],
            previous + gamma * (gradient - lam * previous),
            previous,
        )
    return factors


# ----------------------------------------------------------------------
# Algorithm runners (graph -> comparison against the oracle)
# ----------------------------------------------------------------------
def check_bfs(graph: Graph, options: EngineOptions) -> None:
    if graph.n_vertices == 0:
        return
    root = graph.n_vertices // 2
    ours = run_bfs(graph, root, options=options).distances
    assert np.array_equal(ours, oracle_bfs(graph, root))


def check_sssp(graph: Graph, options: EngineOptions) -> None:
    if graph.n_vertices == 0:
        return
    source = graph.n_vertices // 2
    ours = run_sssp(graph, source, options=options).distances
    theirs = oracle_sssp(graph, source)
    assert np.isinf(ours).tolist() == np.isinf(theirs).tolist()
    finite = np.isfinite(ours)
    np.testing.assert_allclose(
        ours[finite], theirs[finite], rtol=1e-12, atol=1e-12
    )


def check_pagerank(graph: Graph, options: EngineOptions) -> None:
    ours = run_pagerank(graph, max_iterations=12, options=options).ranks
    np.testing.assert_allclose(
        ours, oracle_pagerank(graph, 0.15, 12), rtol=1e-10, atol=1e-12
    )


def check_components(graph: Graph, options: EngineOptions) -> None:
    ours = run_connected_components(graph, options=options).labels
    assert np.array_equal(ours, oracle_components(graph))


def check_label_propagation(graph: Graph, options: EngineOptions) -> None:
    if graph.n_vertices == 0:
        return
    n = graph.n_vertices
    seeds = {0: min(1, n - 1), n - 1: 0}
    result = run_label_propagation(graph, seeds, options=options)
    labels, distances = oracle_label_propagation(graph, seeds)
    assert np.array_equal(result.labels, labels)
    assert np.array_equal(result.distances, distances)


def check_triangles(graph: Graph, options: EngineOptions) -> None:
    dag = to_dag(graph)
    ours = run_triangle_count(dag, options=options)
    assert ours.total == oracle_triangles(graph)


def check_cf(graph: Graph, options: EngineOptions) -> None:
    """CF runs on a synthetic bipartite reinterpretation of the graph:
    edges (u, v) become ratings user u -> item v (shifted)."""
    coo = graph.edges
    keep = coo.nnz > 0
    if not keep or graph.n_vertices == 0:
        return
    n_users = graph.n_vertices
    n = 2 * graph.n_vertices
    src = coo.rows
    dst = coo.cols + n_users
    ratings = 1.0 + (coo.vals % 4.0)
    bipartite = Graph.from_edges(n, src, dst, ratings)
    ours = run_collaborative_filtering(
        bipartite, n_users, k=3, gamma=0.01, lam=0.05, iterations=3,
        seed=5, track_rmse=False, options=options,
    )
    theirs = oracle_cf(bipartite, n_users, 3, 0.01, 0.05, 3, 5)
    np.testing.assert_allclose(ours.factors, theirs, rtol=1e-9, atol=1e-12)


ALGORITHM_CHECKS = {
    "bfs": check_bfs,
    "sssp": check_sssp,
    "pagerank": check_pagerank,
    "components": check_components,
    "label_propagation": check_label_propagation,
    "triangles": check_triangles,
    "cf": check_cf,
}


# ----------------------------------------------------------------------
# Deterministic adversarial suite (fast lane)
# ----------------------------------------------------------------------
def adversarial_graphs() -> dict[str, Graph]:
    return {
        "empty": Graph.from_edges(0, np.zeros(0, np.int64), np.zeros(0, np.int64)),
        "single_vertex": Graph.from_edges(
            1, np.zeros(0, np.int64), np.zeros(0, np.int64)
        ),
        "self_loops": build_graph(
            3, [(0, 0, 1.0), (1, 1, 2.0), (0, 1, 1.0), (1, 2, 3.0)]
        ),
        "duplicate_edges": build_graph(
            4, [(0, 1, 5.0), (0, 1, 2.0), (1, 2, 1.0), (0, 1, 7.0), (2, 3, 1.0)]
        ),
        "disconnected": build_graph(
            6, [(0, 1, 1.0), (1, 0, 1.0), (3, 4, 2.0), (4, 5, 2.0)]
        ),
        "dangling_sinks": build_graph(
            5, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 4, 4.0)]
        ),
        "zero_weights": build_graph(
            4, [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 1.0), (0, 3, 0.5)]
        ),
    }


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_CHECKS))
def test_adversarial_graphs_match_oracles(algorithm, backend):
    options = EngineOptions(backend=backend, n_workers=2)
    for name, graph in adversarial_graphs().items():
        try:
            ALGORITHM_CHECKS[algorithm](graph, options)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(
                f"{algorithm} diverged from its oracle on {name!r} "
                f"(backend={backend}): {exc}"
            ) from exc


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def graph_triples(draw, max_n: int = 20, max_edges: int = 60):
    """(n, triples): skewed toward the adversarial shapes — empty and
    tiny graphs, self-loops, duplicates, zero weights, dangling sinks."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return 0, []
    n_edges = draw(st.integers(min_value=0, max_value=max_edges))
    vertex = st.integers(min_value=0, max_value=n - 1)
    weight = st.one_of(
        st.just(0.0),
        st.just(1.0),
        st.floats(
            min_value=0.0, max_value=100.0,
            allow_nan=False, allow_infinity=False,
        ),
    )
    triples = draw(
        st.lists(
            st.tuples(vertex, vertex, weight),
            min_size=n_edges, max_size=n_edges,
        )
    )
    return n, triples


@pytest.mark.slow
class TestHypothesisDifferential:
    @HYPOTHESIS_SETTINGS
    @given(data=graph_triples())
    def test_dedup_semantics(self, data):
        n, triples = data
        graph = build_graph(n, triples)
        coo = graph.edges
        ours = {
            (int(coo.rows[k]), int(coo.cols[k])): float(coo.vals[k])
            for k in range(coo.nnz)
        }
        assert ours == final_edges(triples)

    @HYPOTHESIS_SETTINGS
    @given(data=graph_triples())
    def test_bfs(self, data):
        check_bfs(build_graph(*data), EngineOptions())

    @HYPOTHESIS_SETTINGS
    @given(data=graph_triples())
    def test_sssp(self, data):
        check_sssp(build_graph(*data), EngineOptions())

    @HYPOTHESIS_SETTINGS
    @given(data=graph_triples())
    def test_pagerank(self, data):
        check_pagerank(build_graph(*data), EngineOptions())

    @HYPOTHESIS_SETTINGS
    @given(data=graph_triples())
    def test_components(self, data):
        check_components(build_graph(*data), EngineOptions())

    @HYPOTHESIS_SETTINGS
    @given(data=graph_triples())
    def test_label_propagation(self, data):
        check_label_propagation(build_graph(*data), EngineOptions())

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=graph_triples(max_n=14, max_edges=40))
    def test_triangles(self, data):
        check_triangles(build_graph(*data), EngineOptions())

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=graph_triples(max_n=10, max_edges=30))
    def test_cf(self, data):
        check_cf(build_graph(*data), EngineOptions())

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=graph_triples(max_n=12, max_edges=30),
        backend=st.sampled_from(ALL_BACKENDS),
        algorithm=st.sampled_from(sorted(ALGORITHM_CHECKS)),
    )
    def test_any_algorithm_any_backend(self, data, backend, algorithm):
        options = EngineOptions(backend=backend, n_workers=2)
        ALGORITHM_CHECKS[algorithm](build_graph(*data), options)


# ----------------------------------------------------------------------
# DeltaGraph sequences vs from-scratch rebuilds (satellite property test)
# ----------------------------------------------------------------------
@st.composite
def mutation_batches(draw, n: int, max_batches: int = 4):
    vertex = st.integers(min_value=0, max_value=n - 1)
    weight = st.floats(
        min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False
    )
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_batches))):
        inserts = draw(
            st.lists(st.tuples(vertex, vertex, weight), max_size=12)
        )
        deletes = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
        batches.append((inserts, deletes))
    return batches


def rebuild_from(delta: DeltaGraph) -> Graph:
    coo = delta.edges
    return Graph.from_edges(
        delta.n_vertices, coo.rows.copy(), coo.cols.copy(), coo.vals.copy(),
        dedup=False,
    )


@pytest.mark.slow
class TestDeltaGraphProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_mutation_sequence_matches_rebuild_every_algorithm(self, data):
        n, triples = data.draw(graph_triples(max_n=14, max_edges=40))
        if n == 0:
            return
        graph = build_graph(n, triples)
        reference = final_edges(triples)
        delta = DeltaGraph(graph)
        for inserts, deletes in data.draw(mutation_batches(n)):
            ins = (
                ([t[0] for t in inserts], [t[1] for t in inserts],
                 [t[2] for t in inserts])
                if inserts
                else None
            )
            dels = (
                ([t[0] for t in deletes], [t[1] for t in deletes])
                if deletes
                else None
            )
            delta = delta.apply_delta(ins, dels)
            for u, v in deletes:
                reference.pop((u, v), None)
            for u, v, w in inserts:
                reference[(u, v)] = w
        coo = delta.edges
        ours = {
            (int(coo.rows[k]), int(coo.cols[k])): float(coo.vals[k])
            for k in range(coo.nnz)
        }
        assert ours == reference

        rebuilt = rebuild_from(delta)
        options = EngineOptions()
        root = n // 2
        # Engine-path algorithms: overlay vs rebuild, bitwise.
        assert np.array_equal(
            run_bfs(delta, root, options=options).distances,
            run_bfs(rebuilt, root, options=options).distances,
        )
        assert np.array_equal(
            run_sssp(delta, root, options=options).distances,
            run_sssp(rebuilt, root, options=options).distances,
        )
        assert np.array_equal(
            run_pagerank(delta, max_iterations=8, options=options).ranks,
            run_pagerank(rebuilt, max_iterations=8, options=options).ranks,
        )
        assert np.array_equal(
            run_connected_components(delta, options=options).labels,
            run_connected_components(rebuilt, options=options).labels,
        )
        seeds = {0: 0, n - 1: min(1, n - 1)}
        assert np.array_equal(
            run_label_propagation(delta, seeds, options=options).labels,
            run_label_propagation(rebuilt, seeds, options=options).labels,
        )
        # Materialization-path algorithms (preprocessing reads .edges).
        assert (
            run_triangle_count(to_dag(delta), options=options).total
            == run_triangle_count(to_dag(rebuilt), options=options).total
        )

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_incremental_paths_match_full_recompute(self, data):
        n, triples = data.draw(graph_triples(max_n=14, max_edges=40))
        if n == 0:
            return
        graph = build_graph(n, triples)
        delta = DeltaGraph(graph)
        root = n // 2
        prev_bfs = run_bfs(delta, root).distances
        prev_sssp = run_sssp(delta, root).distances
        prev_cc = run_connected_components(delta).labels
        prev_pr = run_pagerank(delta, max_iterations=200).ranks
        for inserts, deletes in data.draw(mutation_batches(n, max_batches=3)):
            ins = (
                ([t[0] for t in inserts], [t[1] for t in inserts],
                 [t[2] for t in inserts])
                if inserts
                else None
            )
            dels = (
                ([t[0] for t in deletes], [t[1] for t in deletes])
                if deletes
                else None
            )
            delta = delta.apply_delta(ins, dels)
            batch = delta.last_batch
            rebuilt = rebuild_from(delta)
            # Monotone or not, incremental results must equal a full
            # recompute (bitwise for the min-semiring programs).
            inc_bfs = incremental_bfs(delta, root, prev_bfs, batch)
            assert np.array_equal(
                inc_bfs.result.distances, run_bfs(rebuilt, root).distances
            )
            inc_sssp = incremental_sssp(delta, root, prev_sssp, batch)
            assert np.array_equal(
                inc_sssp.result.distances,
                run_sssp(rebuilt, root).distances,
            )
            inc_cc = incremental_components(delta, prev_cc, batch)
            assert np.array_equal(
                inc_cc.result.labels,
                run_connected_components(rebuilt).labels,
            )
            inc_pr = incremental_pagerank(
                delta, prev_pr, batch, tolerance=1e-13
            )
            full_pr = run_pagerank(rebuilt, max_iterations=200).ranks
            np.testing.assert_allclose(
                inc_pr.result.ranks, full_pr, rtol=1e-8, atol=1e-8
            )
            prev_bfs = inc_bfs.result.distances
            prev_sssp = inc_sssp.result.distances
            prev_cc = inc_cc.result.labels
            prev_pr = inc_pr.result.ranks
