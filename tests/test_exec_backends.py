"""Execution backends: parity, pool lifetime, options and scheduling.

Every algorithm must produce *identical* results under every backend —
the executors drive the same per-block kernel over partitions with
disjoint output rows, so there is no legitimate source of divergence,
and the assertions here are exact (``np.array_equal``), not approximate.
For the lane-capable algorithms the reference is not the same lane
kernel under the serial schedule but the generic kernel
(:mod:`tests.generic_reference`), so the comparison is between two
implementations, not a tautology.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import run_bfs
from repro.algorithms.collaborative_filtering import run_collaborative_filtering
from repro.algorithms.connected_components import run_connected_components
from repro.algorithms.degree import in_degrees_via_spmv
from repro.algorithms.label_propagation import run_label_propagation
from repro.algorithms.pagerank import (
    PageRankProgram,
    init_pagerank,
    run_pagerank,
    run_personalized_pagerank,
)
from repro.algorithms.sssp import run_sssp
from repro.algorithms.triangle_count import run_triangle_count
from repro.core.engine import run_graph_program
from repro.core.options import KNOWN_BACKENDS, EngineOptions
from repro.errors import ProgramError
from repro.graph.generators.bipartite import BipartiteSpec, bipartite_rating_graph
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import symmetrize, to_dag, with_random_weights

from tests.generic_reference import (
    reference_bfs,
    reference_components,
    reference_pagerank,
    reference_ppr,
    reference_sssp,
)

BACKEND_NAMES = list(KNOWN_BACKENDS)


def _options(backend: str, **kw) -> EngineOptions:
    return EngineOptions(backend=backend, n_workers=2, **kw)


@pytest.fixture(scope="module")
def rmat():
    """One deterministic R-MAT graph reused by every parity test."""
    return rmat_graph(scale=7, edge_factor=8, seed=11)


@pytest.fixture(scope="module")
def rmat_sym(rmat):
    return symmetrize(rmat)


class TestBackendParity:
    """Satellite: every algorithm identical under every backend.

    The five lane-capable algorithms compare the lane kernel under each
    backend against the generic-kernel reference.
    """

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_pagerank(self, rmat, backend):
        ref, ref_stats = reference_pagerank(rmat, 8)
        got = run_pagerank(rmat, max_iterations=8, options=_options(backend))
        assert np.array_equal(ref, got.ranks)
        assert got.stats.backend == backend
        assert got.stats.total_edges_processed == ref_stats.total_edges_processed

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_personalized_pagerank(self, rmat, backend):
        ref, _ = reference_ppr(rmat, 17, 8)
        got = run_personalized_pagerank(
            rmat, 17, max_iterations=8, options=_options(backend)
        )
        assert np.array_equal(ref, got.ranks)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_bfs(self, rmat_sym, backend):
        ref, ref_stats = reference_bfs(rmat_sym, 0)
        got = run_bfs(rmat_sym, 0, options=_options(backend))
        assert np.array_equal(ref, got.distances)
        assert got.stats.n_supersteps == ref_stats.n_supersteps
        assert got.stats.total_messages == ref_stats.total_messages

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_sssp(self, rmat_sym, backend):
        ref, _ = reference_sssp(rmat_sym, 0)
        got = run_sssp(rmat_sym, 0, options=_options(backend))
        assert np.array_equal(ref, got.distances)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_connected_components(self, rmat_sym, backend):
        ref, _ = reference_components(rmat_sym)
        got = run_connected_components(rmat_sym, options=_options(backend))
        assert np.array_equal(ref, got.labels)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_label_propagation(self, rmat_sym, backend):
        seeds = {0: 0, 5: 1, 9: 2}
        ref = run_label_propagation(rmat_sym, seeds)
        got = run_label_propagation(rmat_sym, seeds, options=_options(backend))
        assert np.array_equal(ref.labels, got.labels)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_triangle_count(self, rmat_sym, backend):
        dag = to_dag(rmat_sym)
        ref = run_triangle_count(dag)
        got = run_triangle_count(dag, options=_options(backend))
        assert ref.total == got.total
        assert np.array_equal(ref.per_vertex, got.per_vertex)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_collaborative_filtering(self, backend):
        spec = BipartiteSpec(n_users=60, n_items=40, ratings_per_user=6.0)
        graph = bipartite_rating_graph(spec, seed=5)
        ref = run_collaborative_filtering(
            graph, spec.n_users, k=4, iterations=3, track_rmse=False
        )
        got = run_collaborative_filtering(
            graph,
            spec.n_users,
            k=4,
            iterations=3,
            track_rmse=False,
            options=_options(backend),
        )
        assert np.array_equal(ref.factors, got.factors)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_degrees(self, rmat, backend):
        ref = in_degrees_via_spmv(rmat)
        got = in_degrees_via_spmv(rmat, _options(backend))
        assert np.array_equal(ref, got)


def _block_results(graph, bipartite, n_users, options) -> dict:
    """Every algorithm's result arrays on one R-MAT graph under ``options``."""
    sym = symmetrize(graph)
    weighted = with_random_weights(sym, seed=3)
    degrees = sym.out_degrees()
    root = int(np.argmax(degrees))
    ranked = np.argsort(degrees, kind="stable")
    seeds = {int(ranked[-1]): 0, int(ranked[-2]): 1}
    propagated = run_label_propagation(sym, seeds, options=options)
    return {
        "pagerank": run_pagerank(graph, max_iterations=6, options=options).ranks,
        "ppr": run_personalized_pagerank(
            graph, root, max_iterations=6, options=options
        ).ranks,
        "bfs": run_bfs(sym, root, options=options).distances,
        "sssp": run_sssp(weighted, root, options=options).distances,
        "cc": run_connected_components(sym, options=options).labels,
        "labelprop": propagated.labels,
        "labelprop_distances": propagated.distances,
        "cf": run_collaborative_filtering(
            bipartite, n_users, k=3, iterations=2, track_rmse=False,
            options=options,
        ).factors,
        "triangles": run_triangle_count(to_dag(sym), options=options).per_vertex,
    }


class TestBlockCountParity:
    """Any block count gives the bits of any other.

    A destination row lives in exactly one block, and its fold order
    does not depend on where the blocks are cut, so the block count a
    backend and a graph imply (``EngineOptions.block_count``) is a
    schedule, not a semantic.  The reference is the default one-block
    serial run; the other side draws a count from 1 to 9 through
    ``blocks`` and either backend.
    """

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scale=st.integers(min_value=3, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
        blocks=st.integers(min_value=1, max_value=9),
        backend=st.sampled_from(BACKEND_NAMES),
    )
    def test_any_block_count_equals_any_other(self, scale, seed, blocks, backend):
        graph = rmat_graph(scale=scale, edge_factor=6, seed=seed)
        spec = BipartiteSpec(n_users=24, n_items=9, ratings_per_user=4.0)
        bipartite = bipartite_rating_graph(spec, seed=seed)
        reference = EngineOptions()
        assert reference.block_count(graph.n_vertices) == 1
        options = EngineOptions(
            backend=backend,
            n_workers=min(blocks, 2),
            blocks=blocks,
        )
        want = _block_results(graph, bipartite, spec.n_users, reference)
        got = _block_results(graph, bipartite, spec.n_users, options)
        view = graph.peek_partitions("out", options.block_count(graph.n_vertices))
        assert len(view.blocks) == min(blocks, graph.n_vertices)
        for name, array in want.items():
            assert np.array_equal(array, got[name]), (name, blocks, backend)


def _pool_threads() -> set[threading.Thread]:
    return {
        t for t in threading.enumerate() if t.name.startswith("repro-spmv")
    }


class TestPoolLifetime:
    """No ``repro-spmv`` thread outlives the run that started it."""

    THREADED = EngineOptions(backend="threaded", n_workers=2, max_iterations=3)

    def test_run_owned_pool_is_shut_down(self, rmat):
        before = _pool_threads()
        during = []
        program = PageRankProgram()
        init_pagerank(rmat, program)
        stats = run_graph_program(
            rmat, program,
            self.THREADED.with_(
                profile_hook=lambda it: during.append(_pool_threads() - before)
            ),
        )
        assert stats.backend == "threaded"
        assert all(during), "the run's own pool ran the blocks"
        assert _pool_threads() <= before

    def test_failed_run_shuts_its_pool_down(self, rmat):
        """A run that raises mid-sweep still closes the pool it opened."""

        class Boom(PageRankProgram):
            lane_kernel = None  # reach the NumPy hook

            def process_message_lanes(self, messages, edge_values, dst_props):
                raise RuntimeError("boom")

        before = _pool_threads()
        program = Boom()
        init_pagerank(rmat, program)
        with pytest.raises(RuntimeError, match="boom"):
            run_graph_program(rmat, program, self.THREADED)
        assert _pool_threads() <= before


class TestRunIsolation:
    """A run shares nothing with earlier runs but the graph's views."""

    def test_a_run_after_other_programs_matches_a_fresh_run(self):
        """SSSP after PageRank (whose ``x`` holds ``0.0`` at silent
        vertices) and after an IN_EDGES run on the same directed graph
        gives the bits of SSSP on a graph nothing ran on."""
        from repro.algorithms.sssp import SSSPProgram, init_sssp
        from repro.core.graph_program import EdgeDirection

        class InSSSP(SSSPProgram):
            direction = EdgeDirection.IN_EDGES

        def weighted():
            return with_random_weights(
                rmat_graph(scale=7, edge_factor=8, seed=11), seed=3
            )

        fresh, used = weighted(), weighted()
        root = int(np.argmax(fresh.out_degrees()))
        init_sssp(fresh, root)
        run_graph_program(fresh, SSSPProgram(), EngineOptions())
        pagerank = PageRankProgram()
        init_pagerank(used, pagerank)
        run_graph_program(used, pagerank, EngineOptions(max_iterations=3))
        init_sssp(used, root)
        run_graph_program(used, InSSSP(), EngineOptions())
        init_sssp(used, root)
        run_graph_program(used, SSSPProgram(), EngineOptions())
        assert np.array_equal(
            fresh.vertex_properties.data, used.vertex_properties.data
        )


class TestKernelSelectorStats:
    def test_kernel_counts_recorded(self, rmat_sym):
        result = run_bfs(rmat_sym, 0)
        totals = result.stats.kernel_totals()
        assert totals, "fused runs must record kernel selections"
        assert set(totals) <= {"sparse-gather", "dense-pull"}
        # A BFS frontier grows from one vertex to most of the graph: the
        # selector should have used more than one kernel along the way.
        assert len(totals) >= 2

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_partition_work_sums_to_edges_processed(self, rmat_sym, backend):
        """The stats ``run_graph_program`` returns are one lane's, and
        one lane's stats are complete: the shared sweep's per-partition
        work rides along and accounts for every edge."""
        result = run_bfs(
            rmat_sym,
            0,
            options=_options(backend, record_partition_stats=True),
        )
        assert result.stats.n_supersteps > 1
        n_partitions = _options(backend).block_count(rmat_sym.n_vertices)
        for it in result.stats.iterations:
            assert len(it.partition_work) == n_partitions
            assert sum(w.edges for w in it.partition_work) == it.edges_processed
            assert sum(it.kernel_counts.values()) == sum(
                1 for w in it.partition_work if w.kernel
            )

    def test_partition_work_records_kernel(self, rmat):
        result = run_pagerank(
            rmat,
            max_iterations=2,
            options=EngineOptions(record_partition_stats=True),
        )
        work = result.stats.iterations[0].partition_work
        assert work
        assert any(w.kernel for w in work)

    def test_batch_only_program_never_hits_scalar_kernel(self):
        """Regression: supports_fused() requires only the batch surface;
        tiny frontiers must not route batch-only programs to the scalar
        kernel (whose default scalar hooks raise NotImplementedError)."""
        from repro.core.graph_program import GraphProgram
        from repro.graph.graph import Graph
        from repro.vector.sparse_vector import FLOAT64

        class BatchOnly(GraphProgram):
            message_spec = result_spec = property_spec = FLOAT64
            reduce_ufunc = np.add

            def send_message_batch(self, props, vertices):
                return props

            def process_message_batch(self, messages, edge_values, dst_props):
                return messages * edge_values

            def apply_batch(self, reduced, props):
                return reduced

        n = 100
        src = np.arange(n - 1, dtype=np.int64)
        graph = Graph.from_edges(n, src, src + 1)
        graph.init_properties(FLOAT64, 1.0)
        graph.set_vertex_property(0, 2.0)  # distinct value to propagate
        graph.set_all_inactive()
        graph.set_active(0)  # single-vertex frontier: scalar territory
        stats = run_graph_program(graph, BatchOnly(), EngineOptions(max_iterations=3))
        assert stats.n_supersteps == 3
        assert stats.kernel_totals() == {"sparse-gather": 3}
        assert graph.vertex_properties.data[3] == 2.0


class TestOptionsValidation:
    """Satellite: option errors surface at construction, not mid-engine."""

    def test_unknown_backend_raises(self):
        with pytest.raises(ProgramError):
            EngineOptions(backend="gpu")

    @pytest.mark.parametrize("backend", ["jit", "jit-threaded", "process"])
    def test_removed_backends_are_unknown(self, backend):
        with pytest.raises(ProgramError) as err:
            EngineOptions(backend=backend)
        assert "available: serial, threaded" in str(err.value)

    def test_bad_worker_count_raises(self):
        with pytest.raises(ProgramError):
            EngineOptions(n_workers=0)
