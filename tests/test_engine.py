"""Engine tests: Algorithm 2 semantics on every code path."""

import numpy as np
import pytest

from repro.core.engine import run_graph_program
from repro.core.graph_program import EdgeDirection, GraphProgram, SemiringProgram
from repro.core.options import EngineOptions
from repro.core.semiring import MIN_FIRST, PLUS_FIRST, PLUS_TIMES
from repro.errors import ConvergenceError, ProgramError
from repro.graph.builder import build_graph
from repro.graph.generators import cycle_graph, figure1_graph, figure3_graph
from repro.vector.sparse_vector import FLOAT64

ALL_PATHS = [
    EngineOptions(use_bitvector=False, fused=False),
    EngineOptions(use_bitvector=True, fused=False),
    EngineOptions(use_bitvector=True, fused=True),
]
PATH_IDS = ["naive", "bitvector", "fused"]


def run_indegree(graph, options):
    program = SemiringProgram(PLUS_TIMES, EdgeDirection.OUT_EDGES)
    graph.init_properties(FLOAT64, 1.0)
    graph.set_all_active()
    stats = run_graph_program(graph, program, options.with_(max_iterations=1))
    return graph.vertex_properties.data.copy(), stats


class MinApplyProgram(SemiringProgram):
    """Min-label propagation: apply keeps the minimum (monotone, quiesces)."""

    def apply(self, reduced, vertex_prop):
        return min(reduced, vertex_prop)

    def apply_batch(self, reduced, props):
        return np.minimum(reduced, props)


@pytest.mark.parametrize("options", ALL_PATHS, ids=PATH_IDS)
class TestPaths:
    def test_figure1_indegree(self, options):
        graph = figure1_graph()
        degrees, _ = run_indegree(graph, options)
        assert degrees.tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_in_edges_direction_gives_outdegree(self, options):
        graph = figure1_graph()
        program = SemiringProgram(PLUS_TIMES, EdgeDirection.IN_EDGES)
        graph.init_properties(FLOAT64, 1.0)
        graph.set_all_active()
        run_graph_program(graph, program, options.with_(max_iterations=1))
        # Vertices with no in-edges under this direction keep init value 1;
        # A has out-degree 3, B 1, C 1, D 1.
        assert graph.vertex_properties.data.tolist() == [3.0, 1.0, 1.0, 1.0]

    def test_all_edges_direction_sums_both(self, options):
        graph = build_graph([(0, 1)], n_vertices=2)
        program = SemiringProgram(PLUS_FIRST, EdgeDirection.ALL_EDGES)
        graph.init_properties(FLOAT64, 1.0)
        graph.set_all_active()
        run_graph_program(graph, program, options.with_(max_iterations=1))
        # Each vertex hears the other once.
        assert graph.vertex_properties.data.tolist() == [1.0, 1.0]

    def test_quiescence_terminates(self, options):
        # Min-label propagation on a cycle settles in <= n steps.
        graph = cycle_graph(6)
        program = MinApplyProgram(MIN_FIRST, EdgeDirection.OUT_EDGES)
        graph.init_properties(FLOAT64)
        graph.vertex_properties.data[:] = np.arange(6, dtype=np.float64)
        graph.set_all_active()
        stats = run_graph_program(
            graph, program, options.with_(max_iterations=-1)
        )
        assert stats.converged
        assert np.all(graph.vertex_properties.data == 0.0)

    def test_max_iterations_respected(self, options):
        graph = cycle_graph(20)
        program = MinApplyProgram(MIN_FIRST, EdgeDirection.OUT_EDGES)
        graph.init_properties(FLOAT64)
        graph.vertex_properties.data[:] = np.arange(20, dtype=np.float64)
        graph.set_all_active()
        stats = run_graph_program(
            graph, program, options.with_(max_iterations=3)
        )
        assert stats.n_supersteps == 3
        assert not stats.converged

    def test_inactive_graph_runs_zero_supersteps(self, options):
        graph = figure1_graph()
        program = SemiringProgram(PLUS_TIMES)
        graph.init_properties(FLOAT64, 1.0)
        graph.set_all_inactive()
        stats = run_graph_program(graph, program, options)
        assert stats.n_supersteps == 0
        assert stats.converged

    def test_iteration_stats_recorded(self, options):
        graph = figure1_graph()
        _, stats = run_indegree(graph, options)
        assert stats.n_supersteps == 1
        it = stats.iterations[0]
        assert it.active_before == 4
        assert it.messages_sent == 4
        assert it.edges_processed == graph.n_edges
        assert it.vertices_updated == 4
        assert stats.total_edges_processed == graph.n_edges
        assert stats.seconds_per_iteration() > 0


class TestActivityRule:
    def test_only_changed_vertices_activate(self):
        # Min propagation: once a vertex holds the min, it stops changing.
        graph = figure3_graph()
        program = MinApplyProgram(MIN_FIRST, EdgeDirection.OUT_EDGES)
        graph.init_properties(FLOAT64)
        graph.vertex_properties.data[:] = np.arange(5, dtype=np.float64)
        graph.set_all_active()
        options = EngineOptions(max_iterations=1)
        run_graph_program(graph, program, options)
        # Vertices that adopted a smaller label are the active ones.
        assert graph.active_count < graph.n_vertices

    def test_reactivate_all_flag(self):
        class AlwaysOn(SemiringProgram):
            reactivate_all = True

        graph = figure1_graph()
        program = AlwaysOn(PLUS_TIMES)
        graph.init_properties(FLOAT64, 1.0)
        graph.set_all_active()
        run_graph_program(graph, program, EngineOptions(max_iterations=1))
        assert graph.active_count == graph.n_vertices


class TestGuards:
    def test_safety_cap_raises(self):
        class Oscillator(GraphProgram):
            """Flips vertex state forever (never quiesces)."""

            reduce_ufunc = np.add

            def send_message(self, vertex_prop):
                return 1.0

            def process_message(self, message, edge_value, dst_prop):
                return message

            def reduce(self, a, b):
                return a + b

            def apply(self, reduced, vertex_prop):
                return -vertex_prop

        graph = cycle_graph(4)
        graph.init_properties(FLOAT64, 1.0)
        graph.set_all_active()
        with pytest.raises(ConvergenceError):
            run_graph_program(
                graph, Oscillator(), EngineOptions(safety_cap=10)
            )

    def test_invalid_program_declaration(self):
        class Broken(SemiringProgram):
            pass

        program = Broken(PLUS_TIMES)
        program.direction = "out"  # not an EdgeDirection
        graph = figure1_graph()
        with pytest.raises(ProgramError):
            run_graph_program(graph, program, EngineOptions())


#: The Figure 7 ablation, in presentation order: the serial rungs, then
#: the paper's 24 static partitions and its 24 * 8 load-balanced ones.
FIGURE7_RUNGS = (
    ("naive", EngineOptions(use_bitvector=False, fused=False)),
    ("+bitvector", EngineOptions(use_bitvector=True, fused=False)),
    ("+ipo", EngineOptions(use_bitvector=True, fused=True)),
    ("+parallel", EngineOptions(blocks=24, record_partition_stats=True)),
    (
        "+load balance",
        EngineOptions(blocks=24 * 8, record_partition_stats=True),
    ),
)


class TestAblationLadder:
    def test_ladder_order(self):
        names = [name for name, _ in FIGURE7_RUNGS]
        assert names == [
            "naive",
            "+bitvector",
            "+ipo",
            "+parallel",
            "+load balance",
        ]

    @pytest.mark.parametrize("name,options", FIGURE7_RUNGS)
    def test_every_rung_computes_same_answer(self, name, options):
        graph = figure3_graph()
        from repro.algorithms import run_sssp

        result = run_sssp(graph, 0, options=options)
        assert result.distances.tolist() == [0.0, 1.0, 2.0, 2.0, 4.0]


class TestPartitionedExecution:
    @pytest.mark.parametrize("n_parts", [1, 2, 3, 7])
    def test_partitions_do_not_change_results(self, n_parts):
        graph = figure3_graph()
        from repro.algorithms import run_sssp

        options = EngineOptions(blocks=n_parts, record_partition_stats=True)
        result = run_sssp(graph, 0, options=options)
        assert result.distances.tolist() == [0.0, 1.0, 2.0, 2.0, 4.0]
        # The run swept n_parts blocks (at most one per row), and
        # recorded their work every superstep.
        view = graph.peek_partitions("out", n_parts)
        assert len(view.blocks) == min(n_parts, graph.n_vertices)
        assert all(
            len(it.partition_work) == len(view.blocks)
            for it in result.stats.iterations
        )


class TestStatsSerialization:
    """RunStats / IterationStats / BatchRun expose JSON-ready to_dict():
    the /stats endpoint and the serving load generator consume these, so
    dataclass internals (and numpy scalar types) must never leak."""

    def _run_stats(self):
        from repro.algorithms import run_pagerank
        from repro.graph.generators import rmat_graph

        graph = rmat_graph(6, 8, seed=2)
        options = EngineOptions(record_partition_stats=True, blocks=2)
        stats = run_pagerank(graph, max_iterations=3, options=options).stats
        assert len(graph.peek_partitions("out", 2).blocks) == 2
        return stats

    def test_run_stats_round_trips_through_json(self):
        import json

        stats = self._run_stats()
        doc = json.loads(json.dumps(stats.to_dict()))
        assert doc["n_supersteps"] == stats.n_supersteps == 3
        assert doc["total_edges_processed"] == stats.total_edges_processed
        assert doc["total_messages"] == stats.total_messages
        assert doc["backend"] == stats.backend
        assert len(doc["iterations"]) == 3
        first = doc["iterations"][0]
        assert first["iteration"] == 0
        assert first["messages_sent"] == stats.iterations[0].messages_sent
        assert all(
            isinstance(v, int) for v in first["kernel_counts"].values()
        )
        # Partition work rides along when recorded.
        assert first["partition_work"]
        assert {"partition", "edges", "kernel"} <= set(
            first["partition_work"][0]
        )
        compact = stats.to_dict(include_iterations=False)
        assert "iterations" not in compact
        json.dumps(compact)

    def test_batch_run_to_dict_excludes_properties(self):
        import json

        from repro.algorithms import bfs_multi_source
        from repro.graph.generators import rmat_graph
        from repro.graph.preprocess import symmetrize

        graph = symmetrize(rmat_graph(6, 8, seed=2))
        batched = bfs_multi_source(graph, [0, 1, 2])
        doc = json.loads(
            json.dumps(batched.run.to_dict(include_iterations=True))
        )
        assert doc["n_lanes"] == 3
        assert doc["converged"] is True
        assert "properties" not in doc
        assert len(doc["lane_stats"]) == 3
        assert doc["lane_stats"][0]["n_supersteps"] >= 1
        assert doc["n_supersteps"] == len(doc["iterations"])
        lean = batched.run.to_dict(include_lanes=False)
        assert "lane_stats" not in lean and "iterations" not in lean
        json.dumps(lean)
