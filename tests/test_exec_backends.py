"""Execution backends: parity, workspace reuse, options and scheduling.

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
from repro.core.engine import graph_program_init, run_graph_program
from repro.core.options import KNOWN_BACKENDS, EngineOptions
from repro.errors import ProgramError
from repro.exec import (
    BACKENDS,
    SerialExecutor,
    available_backends,
    create_executor,
)
from repro.graph.generators.bipartite import BipartiteSpec, bipartite_rating_graph
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import symmetrize, to_dag, with_random_weights
from repro.perf.counters import EventCounters

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
    serial run; the other side draws a count from 1 to 9 through the
    simulated-core knobs, either split strategy and either backend.
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
        strategy=st.sampled_from(("rows", "nnz")),
        backend=st.sampled_from(BACKEND_NAMES),
    )
    def test_any_block_count_equals_any_other(
        self, scale, seed, blocks, strategy, backend
    ):
        graph = rmat_graph(scale=scale, edge_factor=6, seed=seed)
        spec = BipartiteSpec(n_users=24, n_items=9, ratings_per_user=4.0)
        bipartite = bipartite_rating_graph(spec, seed=seed)
        reference = EngineOptions()
        assert reference.block_count(graph.n_vertices) == 1
        options = EngineOptions(
            backend=backend,
            n_workers=min(blocks, 2),
            n_threads=blocks,
            partitions_per_thread=1,
            partition_strategy=strategy,
        )
        want = _block_results(graph, bipartite, spec.n_users, reference)
        got = _block_results(graph, bipartite, spec.n_users, options)
        view = graph.peek_partitions(
            "out", options.block_count(graph.n_vertices), strategy
        )
        assert len(view.blocks) == min(blocks, graph.n_vertices)
        for name, array in want.items():
            assert np.array_equal(array, got[name]), (name, blocks, strategy)


class TestWorkspaceReuse:
    def test_prebuilt_workspace_reused_across_runs(self, rmat):
        program = PageRankProgram()
        with graph_program_init(rmat, program) as ws:
            assert ws.superstep is not None
            init_pagerank(rmat, program)
            run_graph_program(
                rmat,
                program,
                EngineOptions(max_iterations=3),
                workspace=ws,
            )
            first = rmat.vertex_properties.data.copy()
            init_pagerank(rmat, program)
            run_graph_program(
                rmat,
                program,
                EngineOptions(max_iterations=3),
                workspace=ws,
            )
            assert np.array_equal(first, rmat.vertex_properties.data)
        # ... and to a run that built its own buffers.
        init_pagerank(rmat, program)
        run_graph_program(rmat, program, EngineOptions(max_iterations=3))
        assert np.array_equal(first, rmat.vertex_properties.data)

    def test_mismatched_superstep_workspace_is_bypassed(self, rmat):
        """A workspace built for another program's specs must not be
        reused; the engine builds a run-local one instead."""
        from repro.algorithms.triangle_count import NeighborGatherProgram
        from repro.vector.sparse_vector import OBJECT

        pagerank_ws = graph_program_init(rmat, PageRankProgram())
        assert pagerank_ws.superstep is not None

        def gather_neighbors(workspace):
            gather = NeighborGatherProgram()
            rmat.init_properties(OBJECT)
            for v in range(rmat.n_vertices):
                rmat.vertex_properties.data[v] = v
            rmat.set_all_active()
            run_graph_program(
                rmat,
                gather,
                EngineOptions(max_iterations=1),
                workspace=workspace,
            )
            return [
                np.asarray(p).tolist() if isinstance(p, np.ndarray) else p
                for p in rmat.vertex_properties.data
            ]

        # Same graph + direction, object-valued specs: the PageRank
        # workspace's superstep buffers must be rejected by matches()
        # and the run must still produce the reference result.
        expected = gather_neighbors(None)
        with pagerank_ws:
            got = gather_neighbors(pagerank_ws)
        assert got == expected

    def test_direction_mismatched_workspace_rebuilds_views_and_scratch(self):
        """Regression: a workspace reused across an edge-direction
        mismatch must drop both its views *and* its superstep scratch —
        the asymmetric in/out partitions have different block sizes, and
        stale scratch overruns (IndexError) or silently truncates."""
        from repro.core.graph_program import EdgeDirection
        from repro.algorithms.sssp import SSSPProgram, init_sssp

        # Strongly asymmetric: out-partitions and in-partitions of the
        # same index have very different nnz.
        rng = np.random.default_rng(3)
        n = 400
        src = rng.integers(0, 40, 3000)       # sources concentrated low
        dst = rng.integers(0, n, 3000)        # destinations spread out
        from repro.graph.graph import Graph

        graph = Graph.from_edges(n, src, dst)
        root = int(np.bincount(src, minlength=n).argmax())

        class InSSSP(SSSPProgram):
            direction = EdgeDirection.IN_EDGES

        init_sssp(graph, root)
        run_graph_program(graph, SSSPProgram(), EngineOptions())
        expected = graph.vertex_properties.data.copy()

        with graph_program_init(graph, InSSSP()) as ws:  # IN_EDGES views
            init_sssp(graph, root)
            run_graph_program(graph, SSSPProgram(), EngineOptions(), workspace=ws)
        assert np.array_equal(expected, graph.vertex_properties.data)

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

    def test_scratchless_workspace_does_not_disable_scratch(self, rmat):
        """A workspace built for the unfused sweep holds no per-block
        scratch; a fused run reusing it must build a scratch-enabled
        workspace, not silently lose the zero-allocation path."""

        class GenericPageRank(PageRankProgram):
            reduce_identity = None  # the generic family, as unfused runs use

        program = GenericPageRank()
        run_opts = EngineOptions(max_iterations=3)
        baseline = EventCounters()
        init_pagerank(rmat, program)
        run_graph_program(rmat, program, run_opts, counters=baseline)

        with graph_program_init(rmat, program, EngineOptions(fused=False)) as ws:
            assert not ws.superstep.scratch_built
            via_ws = EventCounters()
            init_pagerank(rmat, program)
            run_graph_program(
                rmat, program, run_opts, workspace=ws, counters=via_ws
            )
        assert via_ws.allocations == baseline.allocations

    def test_run_options_backend_overrides_workspace_executor(self, rmat):
        """The run's backend/n_workers win over the workspace's executor."""
        program = PageRankProgram()
        with graph_program_init(rmat, program) as ws:  # serial executor
            init_pagerank(rmat, program)
            stats = run_graph_program(
                rmat,
                program,
                EngineOptions(backend="threaded", n_workers=2, max_iterations=2),
                workspace=ws,
            )
        assert stats.backend == "threaded"


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

    def test_known_backends_match_registry(self):
        assert set(KNOWN_BACKENDS) == set(BACKENDS) == set(available_backends())

    def test_create_executor_names(self):
        for name in KNOWN_BACKENDS:
            executor = create_executor(EngineOptions(backend=name, n_workers=2))
            assert executor.name == name
            executor.close()

    def test_serial_executor_is_default(self):
        executor = create_executor(EngineOptions())
        assert isinstance(executor, SerialExecutor)
