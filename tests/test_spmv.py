"""Generalized SpMV tests: all code paths agree with scipy reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph_program import EdgeDirection, SemiringProgram
from repro.core.options import EngineOptions
from repro.core.semiring import MIN_PLUS, PLUS_TIMES
from repro.core.spmv import PartitionWork, run_block, spmv_scalar, sweep_view
from repro.graph.graph import Graph
from repro.matrix.coo import COOMatrix
from repro.matrix.partition import PartitionedMatrix
from repro.vector.dense import PropertyArray
from repro.vector.sparse_vector import (
    FLOAT64,
    BitvectorVector,
    SortedTuplesVector,
)

from tests.test_matrix_formats import coo_matrices


def reference_spmv_plus_times(coo: COOMatrix, x_dense: np.ndarray) -> np.ndarray:
    """y = M x over (+, *) using scipy, for square matrices."""
    return coo.to_scipy().tocsr() @ x_dense


def _run_spmv(coo, x_idx, x_vals, semiring, *, fused, n_parts=2):
    """Drive one SpMV call directly (bypassing the engine loop)."""
    n = coo.shape[0]
    blocks = PartitionedMatrix.from_coo(coo, n_parts)
    program = SemiringProgram(semiring)
    properties = PropertyArray(n, FLOAT64)
    if fused:
        x = BitvectorVector(n)
        y = BitvectorVector(n)
    else:
        x = SortedTuplesVector(n)
        y = SortedTuplesVector(n)
    for i, v in zip(x_idx, x_vals):
        x.set(int(i), float(v))
    work: list[PartitionWork] = []
    if fused:
        edges = sweep_view(
            run_block, blocks, x, y, program, properties.data, None, work
        )
    else:
        edges = spmv_scalar(blocks, x, y, program, properties, None, work)
    return y, edges, work


class TestAgainstScipy:
    def test_dense_input_plus_times(self):
        coo = COOMatrix(
            (4, 4),
            np.array([0, 1, 2, 3, 1]),
            np.array([1, 2, 3, 0, 0]),
            np.array([2.0, 3.0, 4.0, 5.0, 7.0]),
        )
        x_dense = np.array([1.0, 2.0, 3.0, 4.0])
        expected = reference_spmv_plus_times(coo, x_dense)
        for fused in (False, True):
            y, edges, _ = _run_spmv(
                coo, np.arange(4), x_dense, PLUS_TIMES, fused=fused
            )
            assert edges == coo.nnz
            got = y.to_dense(fill=0.0)
            assert np.allclose(got, expected)

    def test_sparse_input_only_touches_active_columns(self):
        coo = COOMatrix(
            (4, 4),
            np.array([1, 2, 3]),
            np.array([0, 0, 2]),
            np.array([1.0, 2.0, 3.0]),
        )
        # Only column 0 active: edges from column 2 must not fire.
        y, edges, _ = _run_spmv(
            coo, np.array([0]), np.array([10.0]), PLUS_TIMES, fused=True
        )
        assert edges == 2
        assert sorted(y.indices().tolist()) == [1, 2]

    def test_min_plus(self):
        coo = COOMatrix(
            (3, 3),
            np.array([1, 2, 2]),
            np.array([0, 0, 1]),
            np.array([5.0, 1.0, 10.0]),
        )
        for fused in (False, True):
            y, _, _ = _run_spmv(
                coo,
                np.array([0, 1]),
                np.array([0.0, 2.0]),
                MIN_PLUS,
                fused=fused,
            )
            assert y.get(1) == 5.0
            assert y.get(2) == 1.0  # min(0+1, 2+10)


class TestPartitionWork:
    def test_work_sums_to_edges(self):
        coo = COOMatrix(
            (6, 6),
            np.array([0, 1, 2, 3, 4, 5]),
            np.array([1, 2, 3, 4, 5, 0]),
        )
        y, edges, work = _run_spmv(
            coo,
            np.arange(6),
            np.ones(6),
            PLUS_TIMES,
            fused=True,
            n_parts=3,
        )
        assert sum(w.edges for w in work) == edges == coo.nnz
        assert len(work) == 3
        assert all(w.seconds >= 0 for w in work)


@given(coo=coo_matrices(max_dim=15, max_nnz=60), data=st.data())
@settings(max_examples=50, deadline=None)
def test_all_paths_match_scipy_on_square_matrices(coo, data):
    if coo.shape[0] != coo.shape[1]:
        n = max(coo.shape)
        coo = COOMatrix((n, n), coo.rows, coo.cols, coo.vals)
    coo = coo.deduplicated("last")
    n = coo.shape[0]
    active = data.draw(
        st.lists(st.integers(0, n - 1), max_size=n, unique=True)
    )
    x_dense = np.zeros(n)
    for i in active:
        x_dense[i] = data.draw(
            st.floats(-100, 100, allow_nan=False, allow_infinity=False)
        )
    full = coo.to_scipy().tocsr() @ x_dense
    # Expected: only rows fed by at least one active column have entries.
    expected_mask = np.zeros(n, dtype=bool)
    active_set = set(active)
    for k in range(coo.nnz):
        if int(coo.cols[k]) in active_set:
            expected_mask[coo.rows[k]] = True
    results = {}
    for fused in (False, True):
        y, _, _ = _run_spmv(
            coo,
            np.asarray(active, dtype=np.int64),
            x_dense[np.asarray(active, dtype=np.int64)]
            if active
            else np.zeros(0),
            PLUS_TIMES,
            fused=fused,
            n_parts=data.draw(st.integers(1, 4)),
        )
        got_mask = np.zeros(n, dtype=bool)
        got_mask[y.indices()] = True
        assert np.array_equal(got_mask, expected_mask)
        dense = y.to_dense(fill=0.0)
        assert np.allclose(dense[expected_mask], full[expected_mask])
        results[fused] = dense
    assert np.allclose(results[False], results[True])


class TestEngineOptionValidation:
    def test_bad_thread_count(self):
        with pytest.raises(Exception):
            EngineOptions(n_threads=0)

    def test_bad_strategy(self):
        with pytest.raises(Exception):
            EngineOptions(partition_strategy="zigzag")

    def test_bad_max_iterations(self):
        with pytest.raises(Exception):
            EngineOptions(max_iterations=0)
        with pytest.raises(Exception):
            EngineOptions(max_iterations=-2)

    def test_n_partitions_math(self):
        assert EngineOptions(n_threads=4, partitions_per_thread=8).n_partitions == 32
        assert (
            EngineOptions(n_threads=4, dynamic_schedule=False).n_partitions == 4
        )

    def test_with_updates(self):
        options = EngineOptions().with_(n_threads=4)
        assert options.n_threads == 4
        assert EngineOptions().n_threads == 1


class SaturatingMinProgram(SemiringProgram):
    """Min-plus with distances saturating at CAP == reduce_identity.

    A vertex whose only incoming path saturates receives a *real* reduced
    message equal to the identity sentinel — the case the dense-frontier
    kernel used to silently drop when it compared reduced values against
    the identity instead of tracking which rows actually received.
    """

    CAP = 8.0
    reduce_identity = CAP

    def __init__(self):
        super().__init__(MIN_PLUS)

    def process_message(self, message, edge_value, dst_prop):
        return min(message + edge_value, self.CAP)

    def process_message_batch(self, messages, edge_values, dst_props):
        return np.minimum(messages + edge_values, self.CAP)


class TestDenseFrontierIdentityHazard:
    """Regression: reduced value == reduce_identity must not be dropped."""

    def _saturating_setup(self):
        # Block layout chosen to force the masked dense-pull kernel:
        # 3 non-empty columns, 2 active (2*2 > 3), ~80 edges so the
        # estimated edge count exceeds the scalar-kernel threshold.
        n = 90
        src = np.concatenate(
            [
                np.zeros(40, dtype=np.int64),          # column 0: 40 edges
                np.ones(40, dtype=np.int64),           # column 1: 40 edges
                np.array([2], dtype=np.int64),         # column 2 (silent)
            ]
        )
        dst = np.concatenate(
            [
                np.arange(3, 43, dtype=np.int64),
                np.arange(43, 83, dtype=np.int64),
                np.array([83], dtype=np.int64),
            ]
        )
        # Columns are message sources (the engine multiplies by G^T):
        # store (row=dst, col=src).
        coo = COOMatrix((n, n), dst, src, np.ones(src.shape[0]))
        return n, coo

    def test_saturated_distances_survive_dense_kernel(self):
        n, coo = self._saturating_setup()
        blocks = PartitionedMatrix.from_coo(coo, 1)
        program = SaturatingMinProgram()
        properties = PropertyArray(n, FLOAT64)
        x = BitvectorVector(n)
        y = BitvectorVector(n)
        # Senders already at CAP - 0.5: every processed message saturates
        # to exactly CAP == reduce_identity.
        x.set(0, SaturatingMinProgram.CAP - 0.5)
        x.set(1, SaturatingMinProgram.CAP - 0.5)
        work: list[PartitionWork] = []
        sweep_view(run_block, blocks, x, y, program, properties.data, None, work)
        assert work[0].kernel == "dense-pull", (
            "test setup no longer exercises the masked dense kernel"
        )
        received = y.indices()
        # All 80 destinations of the two active columns received a real
        # (saturated) message and must be present in y.
        assert received.shape[0] == 80
        assert np.all(y.values[received] == SaturatingMinProgram.CAP)

    def test_unsaturated_dense_kernel_matches_scalar_path(self):
        n, coo = self._saturating_setup()
        blocks = PartitionedMatrix.from_coo(coo, 1)
        program = SaturatingMinProgram()
        properties = PropertyArray(n, FLOAT64)
        x_f = BitvectorVector(n)
        y_f = BitvectorVector(n)
        x_s = SortedTuplesVector(n)
        y_s = SortedTuplesVector(n)
        for vec in (x_f, x_s):
            vec.set(0, 1.0)
            vec.set(1, 2.5)
        sweep_view(run_block, blocks, x_f, y_f, program, properties.data)
        spmv_scalar(blocks, x_s, y_s, program, properties)
        assert np.array_equal(y_f.indices(), y_s.indices())
        assert np.allclose(
            y_f.values[y_f.indices()], y_s.gather(y_s.indices()).ravel()
        )


class TestSelectKernelBoundaries:
    """Satellite: the selector's edge cases, exercised directly."""

    def _block(self, n=64, cols=3, edges_per_col=20):
        # 60 edges over 3 columns: a 2-of-3 frontier holds 40 edges,
        # above the default scalar budget (32), so the scalar-vs-dense
        # boundaries are both reachable.
        src = np.repeat(np.arange(cols, dtype=np.int64), edges_per_col)
        dst = np.arange(cols * edges_per_col, dtype=np.int64) % n
        coo = COOMatrix((n, n), dst, src, np.ones(src.shape[0]))
        return PartitionedMatrix.from_coo(coo, 1).blocks[0]

    def test_empty_frontier_prefers_scalar_when_hooks_exist(self):
        from repro.core.spmv import select_kernel

        block = self._block()
        program = SemiringProgram(PLUS_TIMES)
        spec = program.message_spec
        # A frontier holding zero edges: scalar kernel territory
        # (run_block never calls the selector for an empty frontier, but
        # the selector itself must stay total).
        kernel = select_kernel(block, 0, program, spec, program.result_spec)
        assert kernel == "scalar"

    def test_exact_full_coverage_is_dense(self):
        from repro.core.spmv import select_kernel

        block = self._block()
        program = SemiringProgram(PLUS_TIMES)
        kernel = select_kernel(
            block, block.nnz, program, program.message_spec,
            program.result_spec,
        )
        assert kernel == "dense-pull"

    def test_object_specs_never_scalar_or_dense(self):
        from repro.core.spmv import select_kernel
        from repro.vector.sparse_vector import OBJECT

        block = self._block()

        class ObjectProgram(SemiringProgram):
            message_spec = OBJECT
            result_spec = OBJECT

            def __init__(self):
                super().__init__(PLUS_TIMES)

        program = ObjectProgram()
        # Tiny frontier would be scalar for numeric specs; object specs
        # must take sparse-gather (no scalar fast path, no masked pull).
        kernel = select_kernel(block, 1, program, OBJECT, OBJECT)
        assert kernel == "sparse-gather"

    def test_batch_only_program_never_scalar(self):
        from repro.core.graph_program import GraphProgram
        from repro.core.spmv import select_kernel
        from repro.vector.sparse_vector import FLOAT64

        class BatchOnly(GraphProgram):
            message_spec = result_spec = property_spec = FLOAT64
            reduce_ufunc = np.add

            def send_message_batch(self, props, vertices):
                return props

            def process_message_batch(self, messages, edge_values, dst_props):
                return messages

            def apply_batch(self, reduced, props):
                return reduced

        block = self._block()
        program = BatchOnly()
        kernel = select_kernel(block, 1, program, FLOAT64, FLOAT64)
        assert kernel == "sparse-gather"

    def test_thresholds_from_options_change_selection(self):
        from repro.core.spmv import KernelThresholds, select_kernel

        block = self._block()
        program = SemiringProgram(MIN_PLUS)  # has a reduce identity
        spec = program.message_spec
        # Default crossover: 40 of 60 edges -> dense-pull.
        assert (
            select_kernel(block, 40, program, spec, spec) == "dense-pull"
        )
        # Crossover 1.0 demands full coverage: 40 of 60 stays sparse.
        tight = KernelThresholds(scalar_max_edges=0, dense_crossover=1.0)
        assert (
            select_kernel(block, 40, program, spec, spec, tight)
            == "sparse-gather"
        )
        # A huge scalar budget routes everything with scalar hooks there.
        lavish = KernelThresholds(scalar_max_edges=10_000)
        assert (
            select_kernel(block, 40, program, spec, spec, lavish) == "scalar"
        )

    def test_options_expose_thresholds(self):
        from repro.core.spmv import KernelThresholds

        options = EngineOptions(
            scalar_kernel_max_edges=7, dense_pull_crossover=3.5
        )
        thresholds = KernelThresholds.from_options(options)
        assert thresholds.scalar_max_edges == 7
        assert thresholds.dense_crossover == 3.5
        with pytest.raises(Exception):
            EngineOptions(scalar_kernel_max_edges=-1)
        with pytest.raises(Exception):
            EngineOptions(dense_pull_crossover=0.0)

    def test_custom_thresholds_drive_engine_runs(self):
        """An engine run with a zero scalar budget must never pick the
        scalar kernel, and results must be unchanged.  (Only the generic
        kernel has a scalar shape, so the program under test is BFS
        without its lane certification.)"""
        from repro.algorithms.bfs import BFSProgram, init_bfs
        from repro.core.engine import run_graph_program
        from repro.graph.generators.rmat import rmat_graph
        from repro.graph.preprocess import symmetrize

        from tests.generic_reference import generic

        graph = symmetrize(rmat_graph(scale=7, edge_factor=8, seed=2))
        program = generic(BFSProgram)()
        totals, distances = [], []
        for options in (
            EngineOptions(),
            EngineOptions(scalar_kernel_max_edges=0),
        ):
            init_bfs(graph, 0)
            stats = run_graph_program(graph, program, options)
            totals.append(stats.kernel_totals())
            distances.append(graph.vertex_properties.data.copy())
        assert np.array_equal(distances[0], distances[1])
        assert "scalar" in totals[0]
        assert "scalar" not in totals[1]

    def test_frontier_density_recorded(self):
        from repro.algorithms.bfs import run_bfs
        from repro.graph.generators.rmat import rmat_graph
        from repro.graph.preprocess import symmetrize

        graph = symmetrize(rmat_graph(scale=7, edge_factor=8, seed=2))
        stats = run_bfs(graph, 0).stats
        densities = [it.frontier_density for it in stats.iterations]
        assert densities[0] == 1.0 / graph.n_vertices
        assert max(densities) > densities[0]
        assert all(0.0 <= d <= 1.0 for d in densities)


class TestEdgeProportionalSelection:
    """The selector counts the frontier's edges, not its columns: on a
    hub-skewed block the two disagree in both directions."""

    N, HUB_EDGES, TAIL = 1024, 900, 100

    def _block(self):
        # Column 0 is a hub with 900 edges; columns 1..100 hold one each.
        src = np.concatenate([
            np.zeros(self.HUB_EDGES, dtype=np.int64),
            np.arange(1, self.TAIL + 1, dtype=np.int64),
        ])
        dst = np.arange(src.shape[0], dtype=np.int64)
        vals = 1.0 + (dst % 7)
        coo = COOMatrix((self.N, self.N), dst, src, vals)
        return PartitionedMatrix.from_coo(coo, 1).blocks[0]

    def _lane_run(self, block, frontier, thresholds=None):
        from repro.core.spmv import DEFAULT_THRESHOLDS, run_block_batch

        program = SemiringProgram(MIN_PLUS)
        x_valid = np.zeros((1, self.N), dtype=bool)
        x_values = np.full((1, self.N), program.batch_reduce_identity())
        x_valid[0, frontier] = True
        x_values[0, frontier] = 0.5 * np.asarray(frontier)
        return run_block_batch(
            0, block, x_valid, x_values, program,
            np.zeros((1, self.N)), None, thresholds or DEFAULT_THRESHOLDS,
        )

    def test_few_columns_most_edges_pull(self):
        """One column of 101 (the column rule gathered it) holds 900 of
        1000 edges: pulling all 1000 is cheaper than sorting 900."""
        result = self._lane_run(self._block(), [0])
        assert result.kernel == "dense-pull"
        assert (result.active_columns, result.edges) == (1, 1000)

    def test_many_columns_few_edges_gather(self):
        """60 columns of 101 (the column rule pulled 1000 edges for
        them) hold 60 edges: gather those."""
        result = self._lane_run(self._block(), list(range(1, 61)))
        assert result.kernel == "sparse-gather"
        assert (result.active_columns, result.edges) == (60, 60)

    @pytest.mark.parametrize("frontier", [[0], list(range(1, 61)), [0, 5, 9]])
    def test_either_kernel_gives_the_same_bits(self, frontier):
        from repro.core.spmv import KernelThresholds

        block = self._block()
        runs = {
            r.kernel: r
            for r in (
                self._lane_run(
                    block, frontier, KernelThresholds(dense_crossover=c)
                )
                for c in (1e-9, 1e9)
            )
        }
        assert set(runs) == {"sparse-gather", "dense-pull"}
        sparse, dense = runs["sparse-gather"], runs["dense-pull"]
        assert np.array_equal(sparse.unique_dst, dense.unique_dst)
        assert np.array_equal(sparse.reduced, dense.reduced)

    def test_no_identity_never_pulls_a_partial_frontier(self):
        """Without a reduce identity silent sources cannot be masked:
        the hub frontier stays sparse-gather whatever its edge share,
        and only true full coverage pulls."""
        from repro.algorithms.sssp import SSSPProgram

        from tests.generic_reference import generic

        block = self._block()
        program = generic(SSSPProgram)()
        assert program.reduce_identity is None
        x = BitvectorVector(self.N)
        x.set(0, 1.0)
        properties = np.full(self.N, np.inf)
        partial = run_block(
            0, block, x.valid_mask(), x.values, program, properties
        )
        assert (partial.kernel, partial.edges) == ("sparse-gather", 900)
        for j in range(1, self.TAIL + 1):
            x.set(j, 1.0)
        full = run_block(
            0, block, x.valid_mask(), x.values, program, properties
        )
        assert (full.kernel, full.edges) == ("dense-pull", 1000)


class TestDestinationOrder:
    """The 16-bit block-local sort key gives the int64 sort's permutation."""

    @settings(max_examples=60, deadline=None)
    @given(
        span=st.sampled_from([1, 2, 255, 256, 257, 65_535, 65_536, 65_537, 200_000]),
        lo=st.integers(0, 1 << 40),
        n_edges=st.integers(0, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_stable_argsort(self, span, lo, n_edges, seed):
        from repro.core.spmv import destination_order

        rng = np.random.default_rng(seed)
        # Few distinct rows (many ties, where stability shows) plus the
        # span's two ends: in a span of 65 537 the last row would wrap
        # to 0 in a 16-bit key, so that span must take the int64 sort.
        pool = np.unique(
            np.concatenate([[0, span - 1], rng.integers(0, span, 12)])
        )
        edge_dst = lo + rng.choice(pool, size=n_edges)
        order = destination_order(edge_dst, (lo, lo + span))
        assert order.dtype == np.intp
        assert np.array_equal(order, np.argsort(edge_dst, kind="stable"))


class TestScalarProbeCounters:
    """Regression: membership probes are charged only when performed."""

    def _blocks(self):
        coo = COOMatrix(
            (6, 6),
            np.array([0, 1, 2, 3]),
            np.array([1, 2, 3, 4]),
            np.array([1.0, 1.0, 1.0, 1.0]),
        )
        return PartitionedMatrix.from_coo(coo, 1)

    def test_empty_frontier_charges_zero_probes(self):
        from repro.perf.counters import EventCounters

        blocks = self._blocks()
        program = SemiringProgram(PLUS_TIMES)
        properties = PropertyArray(6, FLOAT64)
        x = SortedTuplesVector(6)
        y = SortedTuplesVector(6)
        counters = EventCounters()
        edges = spmv_scalar(blocks, x, y, program, properties, counters)
        assert edges == 0
        assert counters.random_accesses == 0
        assert counters.user_calls == 0

    def test_nonempty_frontier_charges_tested_columns(self):
        from repro.perf.counters import EventCounters

        blocks = self._blocks()
        program = SemiringProgram(PLUS_TIMES)
        properties = PropertyArray(6, FLOAT64)
        x = SortedTuplesVector(6)
        y = SortedTuplesVector(6)
        x.set(1, 2.0)
        counters = EventCounters()
        edges = spmv_scalar(blocks, x, y, program, properties, counters)
        assert edges == 1
        nzc = sum(b.nzc for b in blocks)
        # 2 random accesses per edge + one probe per tested column.
        assert counters.random_accesses == 2 * edges + nzc
