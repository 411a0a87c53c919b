"""Generalized SpMV tests: all code paths agree with scipy reference."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.batched import (
    bfs_multi_source,
    pagerank_personalized_batch,
    sssp_landmarks,
)
from repro.algorithms.bfs import BFSProgram, run_bfs
from repro.algorithms.connected_components import (
    MinLabelProgram,
    run_connected_components,
)
from repro.algorithms.label_propagation import (
    NearestSeedProgram,
    run_label_propagation,
)
from repro.algorithms.pagerank import (
    PageRankProgram,
    PersonalizedPageRankProgram,
    run_pagerank,
    run_personalized_pagerank,
)
from repro.algorithms.sssp import SSSPProgram, run_sssp
from repro.core import ckernels, spmv
from repro.core.engine import run_graph_program
from repro.core.graph_program import EdgeDirection, GraphProgram, SemiringProgram
from repro.core.kernels import select_kernel
from repro.core.options import EngineOptions
from repro.core.semiring import MIN_FIRST, MIN_PLUS, PLUS_FIRST, PLUS_TIMES
from repro.core.spmv import (
    RADIX_KEY_MAX_ROWS,
    PartitionWork,
    _tiled_process_reduce,
    run_block,
    run_block_batch,
    spmv_scalar,
    sweep_view,
)
from repro.dynamic import DeltaGraph, incremental_pagerank
from repro.dynamic.incremental import DeltaPageRankProgram
from repro.errors import ProgramError
from repro.graph.graph import Graph
from repro.matrix.coo import COOMatrix
from repro.matrix.partition import PartitionedMatrix, row_ranges_equal_rows
from repro.vector.dense import PropertyArray
from repro.vector.multi_frontier import MultiFrontier
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
        with pytest.raises(ProgramError):
            EngineOptions(n_workers=0)

    def test_bad_block_count(self):
        with pytest.raises(ProgramError):
            EngineOptions(blocks=0)
        with pytest.raises(ProgramError):
            EngineOptions(blocks=-3)

    def test_bad_max_iterations(self):
        with pytest.raises(Exception):
            EngineOptions(max_iterations=0)
        with pytest.raises(Exception):
            EngineOptions(max_iterations=-2)

    def test_block_count(self):
        table = [
            # The override wins, whatever the graph and the backend.
            (EngineOptions(blocks=32), 100, 32),
            (EngineOptions(blocks=32), 200_000, 32),
            (EngineOptions(blocks=1, backend="threaded", n_workers=3), 100, 1),
            # Derived: the fewest blocks of at most 65,536 rows, and at
            # least one per worker.
            (EngineOptions(), 0, 1),
            (EngineOptions(), 32_768, 1),
            (EngineOptions(), 65_536, 1),
            (EngineOptions(), 65_537, 2),
            (EngineOptions(), 131_072, 2),
            (EngineOptions(backend="threaded", n_workers=3), 100, 3),
            (EngineOptions(backend="threaded", n_workers=2), 200_000, 4),
        ]
        for options, n_vertices, blocks in table:
            assert options.block_count(n_vertices) == blocks, (options, n_vertices)
        # 65,537 vertices: two "rows" blocks, neither wider than the
        # 16-bit sort key.
        ranges = row_ranges_equal_rows(65_537, EngineOptions().block_count(65_537))
        assert len(ranges) == 2
        assert max(hi - lo for lo, hi in ranges) <= RADIX_KEY_MAX_ROWS

    def test_with_updates(self):
        options = EngineOptions().with_(blocks=4)
        assert options.blocks == 4
        assert EngineOptions().blocks is None


class SaturatingMinProgram(SemiringProgram):
    """Min-plus with distances saturating at CAP == reduce_identity.

    A vertex whose only incoming path saturates receives a *real* reduced
    message equal to the identity sentinel — the case the dense-frontier
    kernel used to silently drop when it compared reduced values against
    the identity instead of tracking which rows actually received.
    """

    CAP = 8.0

    def __init__(self):
        super().__init__(MIN_PLUS)
        # Replaces the semiring's identity (inf), which SemiringProgram
        # sets per instance: silent sources must carry CAP too.
        self.reduce_identity = self.CAP

    def process_message(self, message, edge_value, dst_prop):
        return min(message + edge_value, self.CAP)

    def process_message_batch(self, messages, edge_values, dst_props):
        return np.minimum(messages + edge_values, self.CAP)


class TestDenseFrontierIdentityHazard:
    """Regression: reduced value == reduce_identity must not be dropped."""

    def _saturating_setup(self):
        # Block layout chosen to force the lane kernel's dense pull over a
        # partial frontier: 3 non-empty columns, 2 active, holding 80 of
        # the block's 81 edges.
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

    def _lane_sweep(self, senders):
        """One ``run_block_batch`` sweep of ``{vertex: message}`` (K=1)."""
        n, coo = self._saturating_setup()
        blocks = PartitionedMatrix.from_coo(coo, 1)
        program = SaturatingMinProgram()
        x = MultiFrontier(n, 1, fill=program.batch_reduce_identity())
        y = MultiFrontier(n, 1)
        x.scatter_lane(
            0, np.array(list(senders)), np.array(list(senders.values()))
        )
        work: list[PartitionWork] = []
        sweep_view(
            run_block_batch, blocks, x, y, program, np.zeros((1, n)), None,
            work,
        )
        assert work[0].kernel == "dense-pull", (
            "test setup no longer exercises the dense pull"
        )
        return blocks, program, y

    def test_saturated_distances_survive_dense_kernel(self):
        # Senders already at CAP - 0.5: every processed message saturates
        # to exactly CAP == reduce_identity.
        cap = SaturatingMinProgram.CAP
        _, _, y = self._lane_sweep({0: cap - 0.5, 1: cap - 0.5})
        received = y.lane_indices(0)
        # All 80 destinations of the two active columns received a real
        # (saturated) message and must be present in y.
        assert received.shape[0] == 80
        assert np.all(y.values[0, received] == cap)

    def test_unsaturated_dense_pull_matches_algorithm_1(self):
        blocks, program, y_f = self._lane_sweep({0: 1.0, 1: 2.5})
        n = y_f.length
        x_s = SortedTuplesVector(n)
        y_s = SortedTuplesVector(n)
        x_s.set(0, 1.0)
        x_s.set(1, 2.5)
        spmv_scalar(blocks, x_s, y_s, program, PropertyArray(n, FLOAT64))
        received = y_f.lane_indices(0)
        assert np.array_equal(received, y_s.indices())
        assert np.array_equal(
            y_f.values[0, received], y_s.gather(y_s.indices()).ravel()
        )


class TestSelectKernelBoundaries:
    """Satellite: the selector's edge cases, exercised directly."""

    def _block(self, n=64, cols=3, edges_per_col=20):
        # 60 edges over 3 columns: a 2-of-3 frontier holds 40 edges.
        src = np.repeat(np.arange(cols, dtype=np.int64), edges_per_col)
        dst = np.arange(cols * edges_per_col, dtype=np.int64) % n
        coo = COOMatrix((n, n), dst, src, np.ones(src.shape[0]))
        return PartitionedMatrix.from_coo(coo, 1).blocks[0]

    def test_empty_frontier_gathers(self):
        # run_block_batch never calls the selector for an empty frontier,
        # but the selector itself must stay total.
        assert select_kernel(self._block(), 0) == "sparse-gather"

    def test_exact_full_coverage_is_dense(self):
        block = self._block()
        assert select_kernel(block, block.nnz) == "dense-pull"
        # Full coverage pulls whatever the crossover.
        assert select_kernel(block, block.nnz, 1e-9) == "dense-pull"

    def test_thresholds_from_options_change_selection(self, rmat_sym):
        block = self._block()
        # Default crossover: 40 of 60 edges -> dense-pull.
        assert select_kernel(block, 40) == "dense-pull"
        # Crossover 1.0 demands full coverage: 40 of 60 stays sparse.
        assert select_kernel(block, 40, 1.0) == "sparse-gather"
        # Through the engine: the option reaches every block's selector,
        # and the shape never changes the result.
        root = _roots(rmat_sym, 1)[0]
        totals, distances = [], []
        for crossover in (1e-9, 1e9):
            result = run_bfs(
                rmat_sym, root,
                options=EngineOptions(dense_pull_crossover=crossover),
            )
            totals.append(result.stats.kernel_totals())
            distances.append(result.distances)
        assert totals[0] != totals[1]
        assert totals[0].get("dense-pull", 0) < totals[1]["dense-pull"]
        assert np.array_equal(distances[0], distances[1])

    def test_options_expose_thresholds(self):
        options = EngineOptions(dense_pull_crossover=3.5)
        assert options.dense_pull_crossover == 3.5
        with pytest.raises(Exception):
            EngineOptions(dense_pull_crossover=0.0)

    def test_generic_bfs_tags_shapes_by_coverage(self):
        """The generic kernel runs one packed path: it records only the
        two shapes, ``dense-pull`` exactly on blocks whose every column
        is active, and its distances equal the lane BFS's."""
        from repro.algorithms.bfs import init_bfs
        from repro.graph.generators.rmat import rmat_graph
        from repro.graph.preprocess import symmetrize

        from tests.generic_reference import generic

        # 32 vertices in 32 one-row blocks: a frontier often holds every
        # in-neighbour of a row, so both shapes occur.
        graph = symmetrize(rmat_graph(scale=5, edge_factor=8, seed=3))
        root = _roots(graph, 1)[0]
        options = EngineOptions(record_partition_stats=True, blocks=32)
        init_bfs(graph, root)
        stats = run_graph_program(graph, generic(BFSProgram)(), options)
        distances = graph.vertex_properties.data.copy()
        assert set(stats.kernel_totals()) == {"sparse-gather", "dense-pull"}
        blocks = graph.peek_partitions("out", 32).blocks
        assert len(blocks) == 32
        for it in stats.iterations:
            for work in it.partition_work:
                if work.active_columns == 0:
                    continue  # nothing ran, nothing tagged
                full = work.active_columns == blocks[work.partition].nzc
                assert work.kernel == ("dense-pull" if full else "sparse-gather")
        assert np.array_equal(distances, run_bfs(graph, root).distances)

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

    def _lane_run(self, block, frontier, crossover=spmv.DENSE_PULL_CROSSOVER):
        program = SemiringProgram(MIN_PLUS)
        x_valid = np.zeros((1, self.N), dtype=bool)
        x_values = np.full((1, self.N), program.batch_reduce_identity())
        x_valid[0, frontier] = True
        x_values[0, frontier] = 0.5 * np.asarray(frontier)
        return run_block_batch(
            0, block, x_valid, x_values, program,
            np.zeros((1, self.N)), crossover,
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
        block = self._block()
        runs = {
            r.kernel: r
            for r in (self._lane_run(block, frontier, c) for c in (1e-9, 1e9))
        }
        assert set(runs) == {"sparse-gather", "dense-pull"}
        sparse, dense = runs["sparse-gather"], runs["dense-pull"]
        assert np.array_equal(sparse.unique_dst, dense.unique_dst)
        assert np.array_equal(sparse.reduced, dense.reduced)

    def test_no_identity_never_pulls_a_partial_frontier(self):
        """The generic kernel (no reduce identity) has one packed path:
        the hub frontier is gathered whatever its edge share, and only
        true full coverage walks the whole block."""
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


# ----------------------------------------------------------------------
# Compiled lane kernels (repro.core.ckernels) against the NumPy fold
# ----------------------------------------------------------------------
needs_ckernels = pytest.mark.skipif(
    not ckernels.status()["loaded"],
    reason=f"C kernels not loaded: {ckernels.status()['reason']}",
)

#: Finite floats, both zeros, both infinities and NaNs of any payload.
_LANE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
    st.floats(),
)


def numpy_fold():
    """Context: ``_tiled_process_reduce`` with the loader disabled."""
    return mock.patch.object(ckernels, "_ensure", return_value=None)


def assert_fold_bits_equal(program, got: np.ndarray, want: np.ndarray) -> None:
    """Bit for bit, except for a NaN's payload, which no fold fixes, and
    where ``np.minimum.reduceat`` itself has no fixed order: the sign of
    a zero minimum (docs/KERNELS.md, "Compiled kernel shapes")."""
    assert got.shape == want.shape and got.dtype == want.dtype
    same = got.view(np.int64) == want.view(np.int64)
    if program.reduce_ufunc is np.minimum:
        same |= (got == 0) & (want == 0)
    same |= np.isnan(got) & np.isnan(want)
    assert same.all(), (got[~same], want[~same])


def _keyed_programs(n_vertices: int):
    """One instance of every built-in program declaring a lane kernel."""
    return [
        SSSPProgram(),
        BFSProgram(),
        MinLabelProgram(),
        NearestSeedProgram(n_vertices),
        SemiringProgram(MIN_PLUS),
        SemiringProgram(MIN_FIRST),
        PageRankProgram(),
        PersonalizedPageRankProgram(),
        DeltaPageRankProgram(),
        SemiringProgram(PLUS_TIMES),
        SemiringProgram(PLUS_FIRST),
    ]


def documented_fold(program, messages: np.ndarray) -> float:
    """One group's fold, left to right: ``min`` keeps the first of equal
    values and the first NaN; ``+`` adds each message to ``+0.0``."""
    messages = messages.tolist()  # Python floats: IEEE without warnings
    if program.reduce_ufunc is np.add:
        acc = 0.0
        for v in messages:
            acc += v
        return acc
    acc = messages[0]
    for v in messages[1:]:
        acc = acc if (acc <= v or acc != acc) else v
    return acc


@st.composite
def lane_blocks(draw):
    """A destination-grouped K-lane edge space with a small NumPy tile:
    single-edge groups, and sometimes one hub group larger than a tile."""
    k = draw(st.integers(1, 17))
    n = draw(st.integers(1, 12))
    tile = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    if draw(st.booleans()):
        hub = tile + draw(st.integers(1, 10))
        sizes.insert(draw(st.integers(0, len(sizes))), hub)
    edges = sum(sizes)
    starts = np.cumsum([0] + sizes[:-1]).astype(np.int64)
    cols = np.asarray(
        draw(st.lists(st.integers(0, n - 1), min_size=edges, max_size=edges)),
        dtype=np.int64,
    )
    vals = np.asarray(
        draw(st.lists(_LANE_VALUES, min_size=edges, max_size=edges)),
        dtype=np.float64,
    )
    x = np.asarray(
        draw(st.lists(_LANE_VALUES, min_size=k * n, max_size=k * n)),
        dtype=np.float64,
    ).reshape(k, n)
    return x, cols, vals, starts, edges, tile


def _tiled(program, x, cols, vals, starts, edges):
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 + 1e308
        return _tiled_process_reduce(
            program, x, cols, vals, starts, edges, None, None
        )


@needs_ckernels
class TestLaneKernelBits:
    """The C sweep equals the NumPy fold for every lane-kernel program."""

    @given(data=lane_blocks())
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_fold(self, data):
        x, cols, vals, starts, edges, tile = data
        with mock.patch.object(
            spmv, "_batch_tile_edges", lambda n_lanes, itemsize: tile
        ):
            for program in _keyed_programs(x.shape[1]):
                got = _tiled(program, x, cols, vals, starts, edges)
                with numpy_fold():
                    want = _tiled(program, x, cols, vals, starts, edges)
                assert_fold_bits_equal(program, got, want)

    @given(data=lane_blocks())
    @settings(max_examples=100, deadline=None)
    def test_is_the_documented_left_fold(self, data):
        """In stored order, min: first of equal values and first NaN
        win; +: from +0.0.  The zero's sign is exact (only a NaN's
        payload is unchecked)."""
        x, cols, vals, starts, edges, _ = data
        ends = np.append(starts[1:], edges)
        for program in _keyed_programs(x.shape[1]):
            with np.errstate(invalid="ignore", over="ignore"):
                messages = np.asarray(
                    program.process_message_lanes(x[:, cols], vals, None)
                )
            want = np.empty((x.shape[0], starts.shape[0]))
            for lane in range(x.shape[0]):
                for g, (lo, hi) in enumerate(zip(starts, ends)):
                    want[lane, g] = documented_fold(
                        program, messages[lane, lo:hi]
                    )
            got = _tiled(program, x, cols, vals, starts, edges)
            same = (got.view(np.int64) == want.view(np.int64)) | (
                np.isnan(got) & np.isnan(want)
            )
            assert same.all()

    @given(coo=coo_matrices(max_dim=15, max_nnz=60), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_both_shapes_match_numpy_fold(self, coo, data):
        """Through run_block_batch: dense-pull and sparse-gather inputs."""
        n = max(coo.shape)
        coo = COOMatrix((n, n), coo.rows, coo.cols, coo.vals)
        block = PartitionedMatrix.from_coo(coo, 1).blocks[0]
        k = data.draw(st.integers(1, 17))
        x_valid = np.asarray(
            data.draw(st.lists(st.booleans(), min_size=k * n, max_size=k * n))
        ).reshape(k, n)
        x_values = np.asarray(
            data.draw(st.lists(_LANE_VALUES, min_size=k * n, max_size=k * n)),
            dtype=np.float64,
        ).reshape(k, n)
        props = np.zeros((k, n))
        for crossover in (1e9, 1e-9):  # pull / gather any partial frontier
            for program in _keyed_programs(n):
                # The MultiFrontier fill contract.
                x_values[~x_valid] = program.batch_reduce_identity()
                with np.errstate(invalid="ignore", over="ignore"):
                    got = run_block_batch(
                        0, block, x_valid, x_values, program, props,
                        crossover=crossover,
                    )
                    with numpy_fold():
                        want = run_block_batch(
                            0, block, x_valid, x_values, program, props,
                            crossover=crossover,
                        )
                if want.unique_dst is None:
                    assert got.unique_dst is None
                    continue
                assert got.kernel == want.kernel
                assert np.array_equal(got.unique_dst, want.unique_dst)
                assert_fold_bits_equal(program, got.reduced, want.reduced)
                if want.received is None:
                    assert got.received is None
                else:
                    assert np.array_equal(got.received, want.received)


def _plus_programs():
    """Every built-in program that reduces with ``+``."""
    return [
        program for program in _keyed_programs(1)
        if program.reduce_ufunc is np.add
    ]


def _as_received(result, n_lanes):
    """The lane kernel's received mask, ``None`` spelled out."""
    if result.received is None:
        return np.ones((n_lanes, result.unique_dst.shape[0]), dtype=bool)
    return result.received


@st.composite
def plus_frontiers(draw):
    """A one-block matrix and a K-lane frontier holding the ``+`` fill
    (0.0) at silent slots; lane values include ±0.0, ±inf and NaN."""
    coo = draw(coo_matrices(max_dim=15, max_nnz=60))
    n = max(coo.shape)
    coo = COOMatrix((n, n), coo.rows, coo.cols, coo.vals)
    block = PartitionedMatrix.from_coo(coo, 1).blocks[0]
    k = draw(st.integers(1, 9))
    x_valid = np.asarray(
        draw(st.lists(st.booleans(), min_size=k * n, max_size=k * n))
    ).reshape(k, n)
    x_values = np.asarray(
        draw(st.lists(_LANE_VALUES, min_size=k * n, max_size=k * n)),
        dtype=np.float64,
    ).reshape(k, n)
    x_values[~x_valid] = 0.0
    return block, x_valid, x_values


class TestPlusFold:
    """Under the left fold, the ``+`` programs get the same bits from
    every kernel shape and every lane count (both C-kernel settings)."""

    @staticmethod
    def _lanes(block, x_valid, x_values, program, crossover):
        props = np.zeros(x_values.shape + tuple(program.property_spec.shape))
        with np.errstate(invalid="ignore", over="ignore"):
            return run_block_batch(
                0, block, x_valid, x_values, program, props,
                crossover=crossover,
            )

    @given(data=plus_frontiers())
    @settings(max_examples=80, deadline=None)
    def test_dense_pull_equals_sparse_gather(self, data):
        block, x_valid, x_values = data
        k = x_valid.shape[0]
        for program in _plus_programs():
            dense = self._lanes(block, x_valid, x_values, program, 1e9)
            sparse = self._lanes(block, x_valid, x_values, program, 1e-9)
            if sparse.unique_dst is None:
                assert dense.unique_dst is None
                continue
            assert np.array_equal(dense.unique_dst, sparse.unique_dst)
            assert np.array_equal(
                _as_received(dense, k), _as_received(sparse, k)
            )
            assert_fold_bits_equal(program, dense.reduced, sparse.reduced)

    @given(data=plus_frontiers(), crossover=st.sampled_from([1e9, 6.0, 1e-9]))
    @settings(max_examples=80, deadline=None)
    def test_k_wide_column_equals_one_vector_call(self, data, crossover):
        """Each lane of a K-wide sweep equals that lane swept alone, by
        the lane kernel at K = 1 and by the generic one-vector kernel."""
        block, x_valid, x_values = data
        k, n = x_valid.shape
        for program in _plus_programs():
            wide = self._lanes(block, x_valid, x_values, program, crossover)
            props = np.zeros((n,) + tuple(program.property_spec.shape))
            for lane in range(k):
                one = slice(lane, lane + 1)
                alone = self._lanes(
                    block, x_valid[one], x_values[one], program, crossover
                )
                with np.errstate(invalid="ignore", over="ignore"):
                    vector = run_block(
                        0, block, x_valid[lane], x_values[lane], program, props
                    )
                if vector.unique_dst is None:
                    assert alone.unique_dst is None
                    assert wide.unique_dst is None or not _as_received(
                        wide, k
                    )[lane].any()
                    continue
                got = _as_received(wide, k)[lane]
                assert np.array_equal(wide.unique_dst[got], vector.unique_dst)
                assert_fold_bits_equal(
                    program, wide.reduced[lane, got], vector.reduced
                )
                mine = _as_received(alone, 1)[0]
                assert np.array_equal(alone.unique_dst[mine], vector.unique_dst)
                assert_fold_bits_equal(
                    program, alone.reduced[0, mine], vector.reduced
                )


def _roots(graph, k):
    """``k`` of the highest out-degree vertices (they reach far)."""
    degree = np.bincount(graph.edges.rows, minlength=graph.n_vertices)
    return [int(v) for v in np.argsort(-degree, kind="stable")[:k]]


def _semiring_run(semiring):
    def run(weighted, sym):
        graph = weighted
        graph.init_properties(FLOAT64)
        graph.vertex_properties.data[:] = np.arange(graph.n_vertices, dtype=float)
        graph.set_all_active()
        run_graph_program(
            graph, SemiringProgram(semiring), EngineOptions(max_iterations=4)
        )
        return [graph.vertex_properties.data.copy()]

    return run


def _delta_pagerank(graph):
    """Warm-started PageRank after an edge batch (DeltaPageRankProgram)."""
    base = DeltaGraph(graph)
    previous = run_pagerank(base, max_iterations=40).ranks
    rng = np.random.default_rng(3)
    n = graph.n_vertices
    after = base.apply_delta(
        inserts=(rng.integers(0, n, 20), rng.integers(0, n, 20))
    )
    run = incremental_pagerank(after, previous, after.last_batch)
    assert run.incremental
    return run.result.ranks


#: Program class -> a run through the public entry points, K=1 and K=16.
KEYED_PROGRAM_RUNS = {
    "SSSPProgram": lambda weighted, sym: [
        run_sssp(weighted, _roots(weighted, 1)[0]).distances,
        sssp_landmarks(weighted, _roots(weighted, 16)).table(),
    ],
    "BFSProgram": lambda weighted, sym: [
        run_bfs(sym, _roots(sym, 1)[0]).distances,
        bfs_multi_source(sym, _roots(sym, 16)).table(),
    ],
    "MinLabelProgram": lambda weighted, sym: [
        run_connected_components(sym).labels
    ],
    "NearestSeedProgram": lambda weighted, sym: [
        run_label_propagation(
            sym, {v: i for i, v in enumerate(_roots(sym, 5))}
        ).labels
    ],
    "SemiringProgram(min-plus)": _semiring_run(MIN_PLUS),
    "SemiringProgram(min-first)": _semiring_run(MIN_FIRST),
    "PageRankProgram": lambda weighted, sym: [
        run_pagerank(weighted, max_iterations=12).ranks
    ],
    "PersonalizedPageRankProgram": lambda weighted, sym: [
        run_personalized_pagerank(
            weighted, _roots(weighted, 1)[0], max_iterations=12
        ).ranks,
        pagerank_personalized_batch(
            weighted, _roots(weighted, 16), max_iterations=12
        ).table(),
    ],
    "DeltaPageRankProgram": lambda weighted, sym: [_delta_pagerank(weighted)],
    "SemiringProgram(plus-times)": _semiring_run(PLUS_TIMES),
    "SemiringProgram(plus-first)": _semiring_run(PLUS_FIRST),
}


@needs_ckernels
@pytest.mark.parametrize("name", sorted(KEYED_PROGRAM_RUNS))
def test_lane_kernel_program_parity(name, rmat_weighted, rmat_sym):
    """Each program declaring a ``lane_kernel`` gets the same bits from
    the C sweep as from its own ``process_message_lanes`` + NumPy fold,
    and the C sweep really ran (BFS and SSSP sweep through its ``min``
    accumulate entry)."""
    run = KEYED_PROGRAM_RUNS[name]
    swept = []

    def counting(entry):
        def call(*args):
            out = entry(*args)
            swept.append(out is not None)
            return out
        return call

    with mock.patch.object(
        ckernels, "lane_sweep", counting(ckernels.lane_sweep)
    ), mock.patch.object(
        ckernels, "lane_accumulate", counting(ckernels.lane_accumulate)
    ):
        got = run(rmat_weighted, rmat_sym)
    assert any(swept)
    with numpy_fold():
        want = run(rmat_weighted, rmat_sym)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_every_lane_kernel_program_has_a_parity_case():
    """A program (or subclass) carrying a key must be in the table above."""
    import repro.algorithms  # noqa: F401  (registers the built-ins)
    import repro.dynamic  # noqa: F401

    seen, stack = set(), [GraphProgram]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                stack.append(sub)
    keyed = {
        cls.__name__
        for cls in seen
        if cls.__module__.startswith("repro.") and cls.lane_kernel is not None
    }
    covered = {name.split("(")[0] for name in KEYED_PROGRAM_RUNS}
    assert keyed == covered


def test_redefining_a_hook_drops_the_inherited_key():
    class Capped(SSSPProgram):
        def process_message_batch(self, messages, edge_values, dst_props):
            return np.minimum(messages + edge_values, 8.0)

    class Renamed(SSSPProgram):
        pass

    assert Capped.lane_kernel is None
    assert Renamed.lane_kernel == SSSPProgram.lane_kernel
    assert SaturatingMinProgram().lane_kernel is None
    assert SemiringProgram(MIN_PLUS).lane_kernel == SSSPProgram.lane_kernel


def test_destination_props_and_other_dtypes_take_the_numpy_fold():
    x = np.zeros((2, 3))
    cols = np.array([0, 1, 2], dtype=np.int64)
    vals = np.ones(3)
    starts = np.array([0, 2], dtype=np.int64)
    program = SSSPProgram()
    with mock.patch.object(ckernels, "lane_sweep") as sweep:
        _tiled_process_reduce(
            program, x, cols, vals, starts, 3, np.zeros((2, 3)), cols
        )
    sweep.assert_not_called()
    assert ckernels.lane_sweep(
        program.lane_kernel, x.astype(np.float32), cols, vals, starts, 3
    ) is None
    assert ckernels.lane_sweep(
        program.lane_kernel, x, cols.astype(np.int32), vals, starts, 3
    ) is None
