"""Batched multi-frontier engine: parity, convergence, kernels, caching.

The acceptance bar for the lane kernel is absolute: for BFS, SSSP and
personalized PageRank, **every lane** of a K=8 batched run must be
bitwise identical to the corresponding single-source run, on every
execution backend.  A single-source ``run_bfs`` is itself a one-lane run
of the same kernel, so the reference side is the *generic* kernel
(:mod:`tests.generic_reference`) — an independent implementation.
Identity-masked lanes fold through exact-identity operations and tile
boundaries align to destination groups, so the assertions are
``np.array_equal``, never approximate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    bfs_multi_source,
    pagerank_personalized_batch,
    run_bfs,
    run_pagerank,
    run_personalized_pagerank,
    sssp_landmarks,
)
from repro.algorithms.bfs import BFSProgram
from repro.algorithms.pagerank import (
    PageRankProgram,
    PersonalizedPageRankProgram,
    inverse_out_degrees,
)
from repro.core.engine import run_graph_programs_batched
from repro.core.graph_program import GraphProgram, SemiringProgram
from repro.core.options import KNOWN_BACKENDS, EngineOptions
from repro.core.semiring import MIN_PLUS, PLUS_TIMES
from repro.core.spmv import run_block, run_block_batch, sweep_view
from repro.errors import ProgramError, ShapeError
from repro.graph.generators.rmat import rmat_graph
from repro.graph.graph import Graph
from repro.graph.preprocess import symmetrize
from repro.matrix.partition import PartitionedMatrix
from repro.vector.multi_frontier import MultiFrontier
from repro.vector.sparse_vector import FLOAT64, OBJECT, BitvectorVector

from tests.generic_reference import (
    reference_bfs,
    reference_pagerank,
    reference_ppr,
    reference_sssp,
)

BACKEND_NAMES = list(KNOWN_BACKENDS)
ROOTS = [0, 3, 17, 42, 63, 77, 91, 100]  # K = 8


def _options(backend: str) -> EngineOptions:
    return EngineOptions(backend=backend, n_workers=2)


@pytest.fixture(scope="module")
def rmat():
    return rmat_graph(scale=7, edge_factor=8, seed=11)


@pytest.fixture(scope="module")
def rmat_sym(rmat):
    return symmetrize(rmat)


class TestBatchSequentialParity:
    """Acceptance: every lane bitwise identical to its own single run
    on the generic kernel."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_bfs_lanes_match_reference(self, rmat_sym, backend):
        batched = bfs_multi_source(rmat_sym, ROOTS, options=_options(backend))
        assert batched.run.backend == backend
        for lane, root in enumerate(ROOTS):
            ref, _ = reference_bfs(rmat_sym, root)
            assert np.array_equal(ref, batched.lane(lane)), (
                f"BFS lane {lane} (root {root}) diverged on {backend}"
            )

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_sssp_lanes_match_reference(self, rmat_sym, backend):
        batched = sssp_landmarks(rmat_sym, ROOTS, options=_options(backend))
        for lane, source in enumerate(ROOTS):
            ref, _ = reference_sssp(rmat_sym, source)
            assert np.array_equal(ref, batched.lane(lane)), (
                f"SSSP lane {lane} (source {source}) diverged on {backend}"
            )

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_ppr_lanes_match_reference(self, rmat, backend):
        batched = pagerank_personalized_batch(
            rmat, ROOTS, max_iterations=12, options=_options(backend)
        )
        for lane, source in enumerate(ROOTS):
            ref, _ = reference_ppr(rmat, source, 12)
            assert np.array_equal(ref, batched.lane(lane)), (
                f"PPR lane {lane} (source {source}) diverged on {backend}"
            )

    def test_nonuniform_lane_parameters_still_match(self, rmat):
        """Lanes with different constructor params fall back to the
        per-lane hooks and must still match their single runs."""
        rs = [0.15, 0.25, 0.10, 0.5]
        sources = ROOTS[: len(rs)]
        programs = [PersonalizedPageRankProgram(r=r) for r in rs]
        n, k = rmat.n_vertices, len(rs)
        properties = np.zeros((k, n, 3))
        properties[:, :, 1] = inverse_out_degrees(rmat)[None, :]
        active = np.ones((k, n), dtype=bool)
        for lane, s in enumerate(sources):
            properties[lane, s, 0] = 1.0
            properties[lane, s, 2] = 1.0
        run = run_graph_programs_batched(
            rmat, programs, properties, active,
            EngineOptions(max_iterations=8),
        )
        for lane, (s, r) in enumerate(zip(sources, rs)):
            ref, _ = reference_ppr(rmat, s, 8, r=r)
            assert np.array_equal(ref, run.properties[lane, :, 0])

    def test_pagerank_rides_the_lanes(self, rmat):
        """PageRankProgram declares its identity, so it is lane-capable:
        three lanes with different ``r`` each equal their single run."""
        rs = [0.15, 0.3, 0.05]
        assert PageRankProgram().supports_batched()
        n, k = rmat.n_vertices, len(rs)
        properties = np.ones((k, n, 2))
        properties[:, :, 1] = inverse_out_degrees(rmat)[None, :]
        run = run_graph_programs_batched(
            rmat,
            [PageRankProgram(r=r) for r in rs],
            properties,
            np.ones((k, n), dtype=bool),
            EngineOptions(max_iterations=7),
        )
        for lane, r in enumerate(rs):
            single = run_pagerank(rmat, r=r, max_iterations=7)
            assert np.array_equal(single.ranks, run.properties[lane, :, 0])
            ref, _ = reference_pagerank(rmat, 7, r=r)
            assert np.array_equal(ref, run.properties[lane, :, 0])


class TestPerLaneConvergence:
    def test_lanes_converge_independently(self, rmat_sym):
        # An isolated-ish root converges in fewer supersteps than a hub.
        batched = bfs_multi_source(rmat_sym, ROOTS)
        per_lane = [s.n_supersteps for s in batched.run.lane_stats]
        assert max(per_lane) == batched.run.n_supersteps
        assert all(s.converged for s in batched.run.lane_stats)
        assert batched.run.converged
        # A lane records iterations only while it was live.
        assert min(per_lane) <= max(per_lane)

    def test_converged_lane_stops_sending(self, rmat_sym):
        batched = bfs_multi_source(rmat_sym, ROOTS)
        for stats in batched.run.lane_stats:
            final = stats.iterations[-1]
            # The last recorded superstep of a lane activates nobody.
            assert final.activated == 0

    def test_shared_sweep_cheaper_than_lane_sum(self, rmat_sym):
        """The batched run's shared edge count must be well under the
        sum of the lanes' sequential edge counts — that is the entire
        point of the SpMM path."""
        batched = bfs_multi_source(rmat_sym, ROOTS)
        sequential_edges = sum(
            run_bfs(rmat_sym, root).stats.total_edges_processed
            for root in ROOTS
        )
        assert batched.run.total_edges_processed < sequential_edges

    def test_iteration_budget_respected(self, rmat):
        batched = pagerank_personalized_batch(rmat, ROOTS, max_iterations=3)
        assert batched.run.n_supersteps == 3
        assert all(s.n_supersteps == 3 for s in batched.run.lane_stats)

    def test_aggregate_stats_recorded(self, rmat_sym):
        batched = bfs_multi_source(rmat_sym, ROOTS)
        run = batched.run
        assert run.kernel_totals(), "SpMM runs must record kernel choices"
        assert set(run.kernel_totals()) <= {"sparse-gather", "dense-pull"}
        densities = [it.frontier_density for it in run.iterations]
        assert all(0.0 <= d <= 1.0 for d in densities)
        assert any(d > 0 for d in densities)


class TestDriverValidation:
    def _bfs_state(self, graph, k=2):
        n = graph.n_vertices
        props = np.full((k, n), np.inf)
        active = np.zeros((k, n), dtype=bool)
        for lane in range(k):
            props[lane, lane] = 0.0
            active[lane, lane] = True
        return props, active

    def test_mixed_program_classes_rejected(self, rmat_sym):
        props, active = self._bfs_state(rmat_sym)
        with pytest.raises(ProgramError, match="one program class"):
            run_graph_programs_batched(
                rmat_sym,
                [BFSProgram(), PersonalizedPageRankProgram()],
                props,
                active,
            )

    def test_bad_property_shape_rejected(self, rmat_sym):
        props, active = self._bfs_state(rmat_sym)
        with pytest.raises(ProgramError, match="lane_properties"):
            run_graph_programs_batched(
                rmat_sym, [BFSProgram(), BFSProgram()], props[:, :-1], active
            )

    def test_unbatchable_program_rejected(self, rmat_sym):
        from repro.algorithms.triangle_count import NeighborGatherProgram

        props = np.zeros((2, rmat_sym.n_vertices))
        active = np.ones((2, rmat_sym.n_vertices), dtype=bool)
        with pytest.raises(ProgramError, match="batched"):
            run_graph_programs_batched(
                rmat_sym,
                [NeighborGatherProgram(), NeighborGatherProgram()],
                props,
                active,
            )

    def test_uncertified_identity_program_rejected(self, rmat_sym):
        """Regression: an additive program whose process hook does NOT
        absorb a zero message (messages + edge_values) must not sneak
        onto the identity-masked SpMM path via np.add's own identity —
        silent-lane zeros would become real edge contributions."""

        class PlusPlus(GraphProgram):
            message_spec = result_spec = property_spec = FLOAT64
            reduce_ufunc = np.add  # ufunc identity 0 exists, but the
            # process hook maps 0 -> edge_value: no certification.

            def send_message_batch(self, props, vertices):
                return props

            def process_message_batch(self, messages, edge_values, dst_props):
                return messages + edge_values

            def apply_batch(self, reduced, props):
                return reduced

        program = PlusPlus()
        assert program.batch_reduce_identity() is None
        assert not program.supports_batched()
        props = np.zeros((2, rmat_sym.n_vertices))
        active = np.ones((2, rmat_sym.n_vertices), dtype=bool)
        with pytest.raises(ProgramError, match="batched"):
            run_graph_programs_batched(
                rmat_sym, [PlusPlus(), PlusPlus()], props, active
            )

    def test_non_fused_options_rejected(self, rmat_sym):
        props, active = self._bfs_state(rmat_sym)
        with pytest.raises(ProgramError, match="fused"):
            run_graph_programs_batched(
                rmat_sym,
                [BFSProgram(), BFSProgram()],
                props,
                active,
                EngineOptions(fused=False),
            )

    def test_array_valued_program_attributes_compare_safely(self, rmat_sym):
        """Regression: detecting uniform lanes compared ``vars()`` dicts
        with ``==``, which raises on ndarray attributes (ambiguous truth
        value).  Equal arrays are uniform, differing ones fall back to
        the per-lane hooks; both run and agree with plain BFS."""

        class WeightedBFS(BFSProgram):
            def __init__(self, weights):
                self.weights = np.asarray(weights)

        props, active = self._bfs_state(rmat_sym)
        expected = run_graph_programs_batched(
            rmat_sym, [BFSProgram(), BFSProgram()], props, active
        ).properties
        for second in ([1.0, 2.0], [1.0, 3.0], [1.0, 2.0, 3.0]):
            run = run_graph_programs_batched(
                rmat_sym,
                [WeightedBFS([1.0, 2.0]), WeightedBFS(second)],
                props,
                active,
            )
            assert np.array_equal(run.properties, expected)

    def test_empty_program_list_rejected(self, rmat_sym):
        with pytest.raises(ProgramError):
            run_graph_programs_batched(
                rmat_sym, [], np.zeros((0, rmat_sym.n_vertices)),
                np.zeros((0, rmat_sym.n_vertices), dtype=bool),
            )

    def test_inputs_not_mutated(self, rmat_sym):
        props, active = self._bfs_state(rmat_sym)
        props_before = props.copy()
        active_before = active.copy()
        run_graph_programs_batched(
            rmat_sym, [BFSProgram(), BFSProgram()], props, active
        )
        assert np.array_equal(props, props_before)
        assert np.array_equal(active, active_before)


class TestMultiFrontier:
    def test_identity_fill_maintained(self):
        mf = MultiFrontier(6, 3, FLOAT64, fill=np.inf)
        assert np.all(np.isinf(mf.values))
        mf.scatter_lane(1, np.array([2, 4]), np.array([1.0, 2.0]))
        assert mf.values[1, 2] == 1.0
        assert mf.lane_indices(1).tolist() == [2, 4]
        mf.clear()
        assert np.all(np.isinf(mf.values))
        assert mf.lane_nnz().tolist() == [0, 0, 0]

    def test_any_mask_is_lane_union(self):
        mf = MultiFrontier(5, 2)
        mf.scatter_lane(0, np.array([1]), np.array([7.0]))
        mf.scatter_lane(1, np.array([3]), np.array([8.0]))
        assert mf.any_mask().tolist() == [False, True, False, True, False]

    def test_scatter_block_respects_mask(self):
        mf = MultiFrontier(4, 2)
        idx = np.array([0, 2])
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[True, False], [False, True]])
        mf.scatter_block(idx, values, mask)
        assert mf.valid_mask()[0, 0] and not mf.valid_mask()[0, 2]
        assert mf.valid_mask()[1, 2] and not mf.valid_mask()[1, 0]
        assert mf.values[0, 0] == 1.0 and mf.values[1, 2] == 4.0

    def test_set_from_mask_restores_nothing_for_unmasked(self):
        mf = MultiFrontier(3, 2, fill=0.0)
        mask = np.array([[True, False, True], [False, False, False]])
        vals = np.full((2, 3), 9.0)
        mf.set_from_mask(mask, vals)
        assert mf.values[0].tolist() == [9.0, 0.0, 9.0]
        assert np.array_equal(mf.valid_mask(), mask)

    def test_object_spec_rejected(self):
        with pytest.raises(ShapeError):
            MultiFrontier(4, 2, OBJECT)

    def test_bad_lane_count_rejected(self):
        with pytest.raises(ShapeError):
            MultiFrontier(4, 0)


def _multi_vs_single_spmv(coo_blocks, program, n, lanes):
    """Drive the lane kernel directly and compare per lane against the
    generic kernel (``run_block``), one frontier at a time."""
    k = len(lanes)
    x = MultiFrontier(n, k, fill=program.batch_reduce_identity())
    for lane, entries in enumerate(lanes):
        for i, v in entries:
            x.scatter_lane(lane, np.array([i]), np.array([v]))
    y = MultiFrontier(n, k)
    props = np.zeros((k, n))
    sweep_view(run_block_batch, coo_blocks, x, y, program, props)
    for lane, entries in enumerate(lanes):
        xs = BitvectorVector(n)
        for i, v in entries:
            xs.set(i, v)
        ys = BitvectorVector(n)
        sweep_view(run_block, coo_blocks, xs, ys, program, np.zeros(n))
        assert np.array_equal(ys.indices(), y.lane_indices(lane))
        idx = ys.indices()
        assert np.array_equal(ys.values[idx], y.values[lane, idx])


class TestSpMMKernels:
    def test_plus_times_generic_sent_path(self):
        """SemiringProgram leaves batch_received_by_value False, so the
        kernel must derive received masks from gathered sent masks."""
        from repro.matrix.coo import COOMatrix

        rng = np.random.default_rng(5)
        n = 40
        src = rng.integers(0, n, 160)
        dst = rng.integers(0, n, 160)
        coo = COOMatrix((n, n), dst, src, rng.random(160)).deduplicated("last")
        blocks = PartitionedMatrix.from_coo(coo, 3)
        program = SemiringProgram(PLUS_TIMES)
        assert program.supports_batched()
        assert not program.batch_received_by_value
        lanes = [
            [(1, 2.0), (7, 1.5)],
            [(i, float(i + 1)) for i in range(n)],  # full lane
            [],                                     # silent lane
        ]
        _multi_vs_single_spmv(blocks, program, n, lanes)

    def test_min_plus_masked_lanes(self):
        from repro.matrix.coo import COOMatrix

        rng = np.random.default_rng(9)
        n = 30
        src = rng.integers(0, n, 120)
        dst = rng.integers(0, n, 120)
        coo = COOMatrix((n, n), dst, src, rng.random(120)).deduplicated("last")
        blocks = PartitionedMatrix.from_coo(coo, 2)
        program = SemiringProgram(MIN_PLUS)
        lanes = [[(0, 0.0)], [(3, 1.0), (9, 0.5)]]
        _multi_vs_single_spmv(blocks, program, n, lanes)

    def test_saturated_identity_values_survive_batched(self):
        """The dense-frontier identity hazard, K-lane edition: a real
        reduced value equal to the masking identity must not be dropped
        for programs without the by-value certification."""
        from repro.matrix.coo import COOMatrix

        class SaturatingMin(SemiringProgram):
            CAP = 8.0
            reduce_identity = CAP

            def __init__(self):
                super().__init__(MIN_PLUS)

            def process_message(self, message, edge_value, dst_prop):
                return min(message + edge_value, self.CAP)

            def process_message_batch(self, messages, edge_values, dst_props):
                return np.minimum(messages + edge_values, self.CAP)

        n = 90
        src = np.concatenate([
            np.zeros(40, dtype=np.int64),
            np.ones(40, dtype=np.int64),
            np.array([2], dtype=np.int64),
        ])
        dst = np.concatenate([
            np.arange(3, 43, dtype=np.int64),
            np.arange(43, 83, dtype=np.int64),
            np.array([83], dtype=np.int64),
        ])
        coo = COOMatrix((n, n), dst, src, np.ones(src.shape[0]))
        blocks = PartitionedMatrix.from_coo(coo, 1)
        program = SaturatingMin()
        assert not program.batch_received_by_value
        # Lane 0 saturates everything it sends; lane 1 is silent.
        lanes = [[(0, SaturatingMin.CAP - 0.5), (1, SaturatingMin.CAP - 0.5)], []]
        _multi_vs_single_spmv(blocks, program, n, lanes)

    def test_empty_and_dead_blocks(self):
        graph = Graph.from_edges(
            10, np.array([0, 1]), np.array([1, 2])
        )
        view = graph.out_partitions(4, "rows")
        x = MultiFrontier(10, 2, fill=0.0)
        program = SemiringProgram(PLUS_TIMES)
        props = np.zeros((2, 10))
        # Empty frontier: every block reports zero work, no kernel.
        for p, block in enumerate(view):
            result = run_block_batch(
                p, block, x.valid_mask(), x.values, program, props
            )
            assert result.edges == 0 and result.unique_dst is None

    def test_batch_only_lane_program(self):
        """A program with only the batch surface must run on the SpMM
        path (the scalar kernel is never selected there)."""

        class BatchOnly(GraphProgram):
            message_spec = result_spec = property_spec = FLOAT64
            reduce_ufunc = np.add
            # 0 * edge_value == 0: identity absorption certified.
            reduce_identity = 0.0

            def send_message_batch(self, props, vertices):
                return props

            def process_message_batch(self, messages, edge_values, dst_props):
                return messages * edge_values

            def apply_batch(self, reduced, props):
                return reduced

        # A path long enough that one edge is under an eighth of its
        # block's 25: neither a pull nor (across lanes) a scalar loop.
        n = 200
        src = np.arange(n - 1, dtype=np.int64)
        graph = Graph.from_edges(n, src, src + 1)
        props = np.ones((2, n))
        props[0, 0] = 2.0
        active = np.zeros((2, n), dtype=bool)
        active[0, 0] = True   # single-vertex frontier: scalar territory
        active[1, 5] = True
        run = run_graph_programs_batched(
            graph,
            [BatchOnly(), BatchOnly()],
            props,
            active,
            EngineOptions(max_iterations=3),
        )
        assert run.n_supersteps == 3
        assert set(run.kernel_totals()) == {"sparse-gather"}
        assert run.properties[0, 3] == 2.0


class TestSnapshotCacheWarm:
    def test_batched_run_reuses_mmap_views_without_rebuild(
        self, rmat_sym, tmp_path, monkeypatch
    ):
        """Satellite: a warm snapshot cache must feed the batched driver
        mmap'd DCSC views — no re-partitioning on the second run."""
        cache = tmp_path / "view-cache"
        options = EngineOptions(snapshot_cache=str(cache))
        edges = rmat_sym.edges
        # Fresh graphs on both sides: the module fixture already holds
        # in-memory views, which would satisfy the lookup before the
        # disk cache ever gets exercised.
        cold_graph = Graph.from_edges(
            rmat_sym.n_vertices, edges.rows, edges.cols, edges.vals,
            dedup=False,
        )
        cold = bfs_multi_source(cold_graph, ROOTS[:4], options=options)
        assert cache.exists() and list(cache.glob("*.gmsnap"))

        # Same edges, fresh Graph: only the on-disk cache can satisfy it.
        fresh = Graph.from_edges(
            rmat_sym.n_vertices, edges.rows, edges.cols, edges.vals,
            dedup=False,
        )

        def boom(*args, **kwargs):
            raise AssertionError(
                "partition rebuild on a warm snapshot cache"
            )

        monkeypatch.setattr(PartitionedMatrix, "from_coo", boom)
        warm = bfs_multi_source(fresh, ROOTS[:4], options=options)
        assert np.array_equal(cold.values, warm.values)
        view = fresh.peek_partitions(
            "out", options.n_partitions, options.partition_strategy
        )
        assert view is not None and view.snapshot_path is not None


class TestDegenerateSingleLane:
    """K=1 is a supported batch and bitwise identical to a single run.

    The serving scheduler dispatches partial batches on timeout, so a
    lone request becomes a K=1 batched run; ``run_graph_program`` is the
    same one-lane run with its state on the graph.  Both are pinned to
    the generic-kernel reference — distances, ranks, convergence and
    superstep counts alike.
    """

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_k1_bfs_bitwise_matches_reference(self, rmat_sym, backend):
        root = ROOTS[2]
        ref, ref_stats = reference_bfs(rmat_sym, root)
        batched = bfs_multi_source(rmat_sym, [root], options=_options(backend))
        single = run_bfs(rmat_sym, root, options=_options(backend))
        assert batched.run.n_lanes == 1
        assert np.array_equal(ref, batched.lane(0))
        assert np.array_equal(ref, single.distances)
        for stats in (batched.run.lane_stats[0], single.stats):
            assert stats.converged and ref_stats.converged
            assert stats.n_supersteps == ref_stats.n_supersteps
            assert stats.total_messages == ref_stats.total_messages

    def test_k1_sssp_bitwise_matches_reference(self, rmat_sym):
        source = ROOTS[4]
        ref, _ = reference_sssp(rmat_sym, source)
        batched = sssp_landmarks(rmat_sym, [source])
        assert np.array_equal(ref, batched.lane(0))

    def test_k1_ppr_bitwise_matches_reference(self, rmat):
        source = ROOTS[1]
        ref, ref_stats = reference_ppr(rmat, source, 9)
        batched = pagerank_personalized_batch(
            rmat, [source], max_iterations=9
        )
        single = run_personalized_pagerank(rmat, source, max_iterations=9)
        assert np.array_equal(ref, batched.lane(0))
        assert np.array_equal(ref, single.ranks)
        assert batched.run.total_edges_processed == (
            ref_stats.total_edges_processed
        )
