"""Tests for ``repro.dynamic``: DeltaGraph overlays, incremental
recompute, and the ``repro.store`` delta log."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    run_bfs,
    run_connected_components,
    run_label_propagation,
    run_pagerank,
    run_sssp,
)
from repro.core.engine import run_graph_program
from repro.core.options import EngineOptions
from repro.dynamic import (
    DeltaGraph,
    incremental_bfs,
    incremental_components,
    incremental_pagerank,
    incremental_sssp,
)
from repro.errors import GraphError, IOFormatError
from repro.graph.generators import rmat_graph
from repro.graph.graph import Graph
from repro.graph.preprocess import symmetrize, with_random_weights
from repro.matrix.delta import dedup_last_by_key, merge_sorted_unique
from repro.store import DeltaLog, compact_delta_graph, load_snapshot, save_snapshot


def edge_dict(graph: Graph) -> dict[tuple[int, int], float]:
    coo = graph.edges
    return {
        (int(coo.rows[k]), int(coo.cols[k])): float(coo.vals[k])
        for k in range(coo.nnz)
    }


def rebuild(graph: Graph) -> Graph:
    """A from-scratch Graph over the same final edge set."""
    coo = graph.edges
    return Graph.from_edges(
        graph.n_vertices,
        coo.rows.copy(),
        coo.cols.copy(),
        coo.vals.copy(),
        dedup=False,
    )


@pytest.fixture
def weighted_graph():
    return with_random_weights(rmat_graph(8, 8, seed=42), seed=7)


# ----------------------------------------------------------------------
# Sorted-merge primitives
# ----------------------------------------------------------------------
class TestMergePrimitives:
    def test_dedup_last_keeps_final_occurrence(self):
        keys = np.array([5, 2, 5, 9, 2], dtype=np.int64)
        vals = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        out_keys, out_vals = dedup_last_by_key(keys, vals)
        assert out_keys.tolist() == [2, 5, 9]
        assert out_vals.tolist() == [50.0, 30.0, 40.0]

    def test_merge_sorted_unique_upsert_and_delete(self):
        base = np.array([1, 3, 5, 7], dtype=np.int64)
        ins = np.array([3, 4], dtype=np.int64)  # replace 3, add 4
        dels = np.array([7, 9], dtype=np.int64)  # remove 7; 9 absent
        merged, keep, positions, hit = merge_sorted_unique(base, ins, dels)
        assert merged.tolist() == [1, 3, 4, 5]
        assert keep.tolist() == [True, False, True, False]
        assert hit.tolist() == [True, False]
        assert positions.tolist() == [1, 1]


# ----------------------------------------------------------------------
# DeltaGraph semantics
# ----------------------------------------------------------------------
class TestDeltaGraphSemantics:
    def test_epoch_zero_matches_base(self, weighted_graph):
        dg = DeltaGraph(weighted_graph)
        assert dg.epoch == 0
        assert dg.n_edges == weighted_graph.n_edges
        assert edge_dict(dg) == edge_dict(weighted_graph)
        # epoch-0 views alias the base's (zero copies)
        assert dg.out_partitions(4) is weighted_graph.out_partitions(4)

    def test_insert_delete_replace_semantics(self):
        g = Graph.from_edges(
            4,
            np.array([0, 1, 2]),
            np.array([1, 2, 3]),
            np.array([1.0, 2.0, 3.0]),
        )
        dg = DeltaGraph(g)
        new = dg.apply_delta(
            inserts=([0, 3, 0], [1, 0, 2], [9.0, 4.0, 5.0]),
            deletes=([1, 3], [2, 1]),  # (1,2) exists; (3,1) does not
        )
        assert new.epoch == 1
        assert dg.epoch == 0  # persistent: receiver untouched
        assert edge_dict(dg) == edge_dict(g)
        assert edge_dict(new) == {
            (0, 1): 9.0,  # replaced
            (2, 3): 3.0,  # untouched
            (3, 0): 4.0,  # inserted
            (0, 2): 5.0,  # inserted
        }
        batch = new.last_batch
        assert batch.n_inserted == 2
        assert batch.n_replaced == 1
        assert batch.n_deleted == 1
        assert batch.noop_deletes == 1
        assert batch.old_vals[~batch.new_mask].tolist() == [1.0]

    def test_delete_then_insert_same_key_nets_to_insert(self):
        g = Graph.from_edges(3, np.array([0]), np.array([1]), np.array([2.0]))
        new = DeltaGraph(g).apply_delta(
            inserts=([0], [1], [7.0]), deletes=([0], [1])
        )
        assert edge_dict(new) == {(0, 1): 7.0}
        assert new.last_batch.n_deleted == 0

    def test_duplicate_batch_inserts_keep_last(self):
        g = Graph.from_edges(3, np.array([0]), np.array([1]), np.array([1.0]))
        new = DeltaGraph(g).apply_delta(
            inserts=([0, 0], [2, 2], [5.0, 6.0])
        )
        assert edge_dict(new)[(0, 2)] == 6.0

    def test_degrees_maintained_incrementally(self, weighted_graph):
        rng = np.random.default_rng(0)
        n = weighted_graph.n_vertices
        dg = DeltaGraph(weighted_graph).apply_delta(
            inserts=(rng.integers(0, n, 40), rng.integers(0, n, 40),
                     rng.uniform(1, 9, 40)),
            deletes=(weighted_graph.edges.rows[:25],
                     weighted_graph.edges.cols[:25]),
        )
        ref = rebuild(dg)
        assert np.array_equal(dg.out_degrees(), ref.out_degrees())
        assert np.array_equal(dg.in_degrees(), ref.in_degrees())
        assert dg.n_edges == ref.n_edges

    def test_chained_epochs_accumulate(self, weighted_graph):
        rng = np.random.default_rng(1)
        n = weighted_graph.n_vertices
        dg = DeltaGraph(weighted_graph)
        reference = edge_dict(weighted_graph)
        for step in range(4):
            ins = (rng.integers(0, n, 10), rng.integers(0, n, 10),
                   rng.uniform(1, 9, 10))
            keys = list(reference)
            picks = rng.choice(len(keys), 5, replace=False)
            dels = ([keys[p][0] for p in picks], [keys[p][1] for p in picks])
            dg = dg.apply_delta(inserts=ins, deletes=dels)
            for s, d in zip(*dels):
                reference.pop((int(s), int(d)), None)
            for s, d, w in zip(*ins):
                reference[(int(s), int(d))] = float(w)
            assert dg.epoch == step + 1
            assert edge_dict(dg) == reference

    def test_vertex_range_and_dtype_validation(self, weighted_graph):
        dg = DeltaGraph(weighted_graph)
        n = weighted_graph.n_vertices
        with pytest.raises(GraphError):
            dg.apply_delta(inserts=([n], [0]))
        with pytest.raises(GraphError):
            dg.apply_delta(deletes=([-1], [0]))
        unweighted = Graph.from_edges(3, np.array([0]), np.array([1]))
        with pytest.raises(GraphError):
            # float weights into an int64-valued base: not same-kind
            DeltaGraph(unweighted).apply_delta(inserts=([0], [2], [1.5]))

    def test_wrap_requires_plain_base(self, weighted_graph):
        dg = DeltaGraph(weighted_graph)
        with pytest.raises(GraphError):
            DeltaGraph(dg)

    def test_graph_overlay_convenience(self, weighted_graph):
        dg = weighted_graph.overlay()
        assert isinstance(dg, DeltaGraph)
        assert dg.epoch == 0 and dg.base is weighted_graph


# ----------------------------------------------------------------------
# View parity: merged blocks bitwise-identical to a rebuild
# ----------------------------------------------------------------------
class TestViewParity:
    @pytest.mark.parametrize("direction", ["out", "in"])
    def test_blocks_bitwise_equal_rebuild(self, weighted_graph, direction):
        rng = np.random.default_rng(5)
        n = weighted_graph.n_vertices
        dg = DeltaGraph(weighted_graph).apply_delta(
            inserts=(rng.integers(0, n, 60), rng.integers(0, n, 60),
                     rng.uniform(1, 9, 60)),
            deletes=(weighted_graph.edges.rows[10:40],
                     weighted_graph.edges.cols[10:40]),
        )
        ref = rebuild(dg)
        mine = (
            dg.out_partitions(8)
            if direction == "out"
            else dg.in_partitions(8)
        )
        theirs = (
            ref.out_partitions(8)
            if direction == "out"
            else ref.in_partitions(8)
        )
        assert mine.nnz == theirs.nnz == dg.n_edges
        for a, b in zip(mine.blocks, theirs.blocks):
            assert a.row_range == b.row_range
            assert np.array_equal(a.jc, b.jc)
            assert np.array_equal(a.cp, b.cp)
            assert np.array_equal(a.ir, b.ir)
            assert np.array_equal(a.num, b.num)
            assert a.num.dtype == b.num.dtype

    @pytest.mark.parametrize("direction", ["out", "in"])
    def test_transplanted_kernel_caches_match_fresh_argsort(
        self, weighted_graph, direction
    ):
        """Merged blocks inherit dst_groups by O(nnz) transplant; the
        result must equal what a cold stable argsort would compute."""
        rng = np.random.default_rng(11)
        n = weighted_graph.n_vertices
        dg = DeltaGraph(weighted_graph).apply_delta(
            inserts=(rng.integers(0, n, 50), rng.integers(0, n, 50),
                     rng.uniform(1, 9, 50)),
            deletes=(weighted_graph.edges.rows[::17],
                     weighted_graph.edges.cols[::17]),
        )
        view = (
            dg.out_partitions(8)
            if direction == "out"
            else dg.in_partitions(8)
        )
        for merged in view.blocks:
            if merged._dst_groups is None:
                continue  # untouched base block, warmed lazily
            order, starts, unique = merged.dst_groups()
            ref_order = np.argsort(merged.ir, kind="stable")
            assert np.array_equal(order, ref_order)
            sorted_ir = merged.ir[ref_order]
            assert np.array_equal(unique, np.unique(sorted_ir))
            assert np.array_equal(
                merged.col_expanded(),
                np.repeat(merged.jc, np.diff(merged.cp)),
            )
            assert np.array_equal(
                merged.dst_sorted_cols(), merged.col_expanded()[order]
            )
            if starts.size:
                assert np.array_equal(sorted_ir[starts], unique)

    def test_untouched_partitions_alias_base_blocks(self, weighted_graph):
        base_view = weighted_graph.out_partitions(8)
        # A delta confined to the first partition's row range (out view
        # rows are destinations).
        lo, hi = base_view.blocks[0].row_range
        dg = DeltaGraph(weighted_graph).apply_delta(
            inserts=([hi - 1], [lo], [3.0])
        )
        merged = dg.out_partitions(8)
        assert merged.blocks[0] is not base_view.blocks[0]
        for mine, theirs in zip(merged.blocks[1:], base_view.blocks[1:]):
            assert mine is theirs

    def test_mmap_base_blocks_stay_shared(self, weighted_graph, tmp_path):
        path = tmp_path / "base.gmsnap"
        save_snapshot(weighted_graph, path, n_partitions=8)
        loaded = load_snapshot(path)
        view = loaded.out_partitions(8)
        lo, hi = view.blocks[0].row_range
        dg = DeltaGraph(loaded).apply_delta(inserts=([hi - 1], [lo], [3.0]))
        merged = dg.out_partitions(8)
        # Untouched partitions keep the snapshot's mapped arrays (no
        # resident copy); only the touched partition is rebuilt.
        assert np.shares_memory(merged.blocks[1].ir, view.blocks[1].ir)
        assert not np.shares_memory(merged.blocks[0].ir, view.blocks[0].ir)


# ----------------------------------------------------------------------
# Engine runs over the overlay
# ----------------------------------------------------------------------
ALL_BACKENDS = ["serial", "threaded"]


class TestEngineOverOverlay:
    @pytest.fixture(scope="class")
    def mutated(self):
        base = with_random_weights(rmat_graph(8, 8, seed=3), seed=11)
        rng = np.random.default_rng(2)
        n = base.n_vertices
        dg = DeltaGraph(base).apply_delta(
            inserts=(rng.integers(0, n, 50), rng.integers(0, n, 50),
                     rng.uniform(1, 9, 50)),
            deletes=(base.edges.rows[::31], base.edges.cols[::31]),
        )
        return dg, rebuild(dg)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_bfs_and_pagerank_bitwise_vs_rebuild(self, mutated, backend):
        dg, ref = mutated
        options = EngineOptions(backend=backend, n_workers=2)
        assert np.array_equal(
            run_bfs(dg, 0, options=options).distances,
            run_bfs(ref, 0, options=options).distances,
        )
        mine = run_pagerank(dg, max_iterations=10, options=options)
        theirs = run_pagerank(ref, max_iterations=10, options=options)
        assert np.array_equal(mine.ranks, theirs.ranks)

    def test_sssp_components_lp_vs_rebuild(self, mutated):
        dg, ref = mutated
        assert np.array_equal(
            run_sssp(dg, 0).distances, run_sssp(ref, 0).distances
        )
        assert np.array_equal(
            run_connected_components(dg).labels,
            run_connected_components(ref).labels,
        )
        seeds = {0: 0, 7: 1}
        assert np.array_equal(
            run_label_propagation(dg, seeds).labels,
            run_label_propagation(ref, seeds).labels,
        )


# ----------------------------------------------------------------------
# Incremental recompute
# ----------------------------------------------------------------------
class TestIncrementalRecompute:
    @pytest.fixture(scope="class")
    def sym_base(self):
        return symmetrize(rmat_graph(8, 8, seed=9))

    def test_incremental_bfs_bitwise(self, sym_base):
        rng = np.random.default_rng(4)
        n = sym_base.n_vertices
        root = int(np.argmax(np.bincount(sym_base.edges.rows, minlength=n)))
        dg0 = DeltaGraph(sym_base)
        previous = run_bfs(dg0, root).distances
        src = rng.integers(0, n, 30)
        dst = rng.integers(0, n, 30)
        dg1 = dg0.apply_delta(
            inserts=(np.concatenate([src, dst]), np.concatenate([dst, src]))
        )
        inc = incremental_bfs(dg1, root, previous, dg1.last_batch)
        full = run_bfs(rebuild(dg1), root)
        assert inc.incremental
        assert np.array_equal(inc.result.distances, full.distances)
        assert (
            inc.result.stats.total_edges_processed
            <= full.stats.total_edges_processed
        )

    def test_incremental_bfs_falls_back_on_delete(self, sym_base):
        dg0 = DeltaGraph(sym_base)
        previous = run_bfs(dg0, 0).distances
        dg1 = dg0.apply_delta(
            deletes=(sym_base.edges.rows[:4], sym_base.edges.cols[:4])
        )
        inc = incremental_bfs(dg1, 0, previous, dg1.last_batch)
        assert inc.strategy == "full"
        assert np.array_equal(
            inc.result.distances, run_bfs(rebuild(dg1), 0).distances
        )

    def test_incremental_sssp_bitwise_and_fallback(self):
        base = with_random_weights(symmetrize(rmat_graph(8, 8, seed=5)), seed=2)
        rng = np.random.default_rng(6)
        n = base.n_vertices
        source = int(np.argmax(np.bincount(base.edges.rows, minlength=n)))
        dg0 = DeltaGraph(base)
        previous = run_sssp(dg0, source).distances
        # Monotone: new edges + a decreased weight.
        decrease = (
            [int(base.edges.rows[0])],
            [int(base.edges.cols[0])],
            [float(base.edges.vals[0]) / 2.0],
        )
        dg1 = dg0.apply_delta(
            inserts=(
                np.concatenate([rng.integers(0, n, 20), decrease[0]]),
                np.concatenate([rng.integers(0, n, 20), decrease[1]]),
                np.concatenate([rng.uniform(1, 50, 20), decrease[2]]),
            )
        )
        inc = incremental_sssp(dg1, source, previous, dg1.last_batch)
        assert inc.incremental
        assert np.array_equal(
            inc.result.distances, run_sssp(rebuild(dg1), source).distances
        )
        # Non-monotone: weight increase falls back but stays correct.
        increase = dg0.apply_delta(
            inserts=([int(base.edges.rows[1])], [int(base.edges.cols[1])],
                     [float(base.edges.vals[1]) * 3.0])
        )
        inc2 = incremental_sssp(increase, source, previous, increase.last_batch)
        assert inc2.strategy == "full"
        assert np.array_equal(
            inc2.result.distances,
            run_sssp(rebuild(increase), source).distances,
        )

    def test_incremental_components_bitwise(self, sym_base):
        rng = np.random.default_rng(7)
        n = sym_base.n_vertices
        dg0 = DeltaGraph(sym_base)
        previous = run_connected_components(dg0).labels
        src = rng.integers(0, n, 15)
        dst = rng.integers(0, n, 15)
        dg1 = dg0.apply_delta(
            inserts=(np.concatenate([src, dst]), np.concatenate([dst, src]))
        )
        inc = incremental_components(dg1, previous, dg1.last_batch)
        assert inc.incremental
        assert np.array_equal(
            inc.result.labels, run_connected_components(rebuild(dg1)).labels
        )

    @pytest.mark.parametrize("with_deletes", [False, True])
    def test_incremental_pagerank_within_tolerance(self, with_deletes):
        base = rmat_graph(8, 8, seed=12)
        rng = np.random.default_rng(8)
        n = base.n_vertices
        dg0 = DeltaGraph(base)
        previous = run_pagerank(dg0, max_iterations=300).ranks
        deletes = (
            (base.edges.rows[5:25], base.edges.cols[5:25])
            if with_deletes
            else None
        )
        dg1 = dg0.apply_delta(
            inserts=(rng.integers(0, n, 30), rng.integers(0, n, 30)),
            deletes=deletes,
        )
        inc = incremental_pagerank(
            dg1, previous, dg1.last_batch, tolerance=1e-12
        )
        assert inc.incremental
        reference = run_pagerank(rebuild(dg1), max_iterations=300).ranks
        assert np.abs(inc.result.ranks - reference).max() < 1e-7

    def test_incremental_pagerank_no_batch_falls_back(self):
        base = rmat_graph(7, 8, seed=13)
        dg = DeltaGraph(base)
        previous = run_pagerank(dg, max_iterations=50).ranks
        inc = incremental_pagerank(dg, previous, None, tolerance=1e-10)
        assert inc.strategy == "full"

    def test_incremental_first_in_edge_rebases_rank(self):
        # A vertex gaining its first in-edge must land on r + (1-r)·Δin,
        # not on its stale initial rank (receivers-only apply quirk).
        g = Graph.from_edges(4, np.array([0, 1]), np.array([1, 2]))
        dg0 = DeltaGraph(g)
        previous = run_pagerank(dg0, max_iterations=100).ranks
        dg1 = dg0.apply_delta(inserts=([2], [3]))  # 3 had no in-edges
        inc = incremental_pagerank(
            dg1, previous, dg1.last_batch, tolerance=1e-14
        )
        reference = run_pagerank(rebuild(dg1), max_iterations=100).ranks
        assert np.abs(inc.result.ranks - reference).max() < 1e-9


# ----------------------------------------------------------------------
# Delta log + compaction
# ----------------------------------------------------------------------
class TestDeltaLog:
    def test_append_replay_roundtrip(self, weighted_graph, tmp_path):
        log = DeltaLog(tmp_path / "g.gmdelta")
        rng = np.random.default_rng(3)
        n = weighted_graph.n_vertices
        dg = DeltaGraph(weighted_graph)
        for _ in range(3):
            ins = (rng.integers(0, n, 12), rng.integers(0, n, 12),
                   rng.uniform(1, 9, 12))
            dels = (weighted_graph.edges.rows[:4], weighted_graph.edges.cols[:4])
            dg = dg.apply_delta(inserts=ins, deletes=dels)
            log.append(inserts=ins, deletes=dels, epoch=dg.epoch)
        replayed = log.apply_to(weighted_graph)
        assert replayed.epoch == 3
        assert edge_dict(replayed) == edge_dict(dg)

    def test_torn_trailing_record(self, weighted_graph, tmp_path):
        log = DeltaLog(tmp_path / "g.gmdelta")
        log.append(inserts=([0], [1], [2.0]), epoch=1)
        log.append(inserts=([1], [2], [3.0]), epoch=2)
        raw = log.path.read_bytes()
        log.path.write_bytes(raw[:-3])
        with pytest.raises(IOFormatError):
            log.replay(strict=True)
        assert len(log.replay(strict=False)) == 1

    def test_corrupt_crc_detected(self, tmp_path):
        log = DeltaLog(tmp_path / "g.gmdelta")
        log.append(inserts=([0], [1]), epoch=1)
        raw = bytearray(log.path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        log.path.write_bytes(bytes(raw))
        with pytest.raises(IOFormatError):
            log.replay(strict=True)

    def test_compaction_into_fresh_snapshot(self, weighted_graph, tmp_path):
        log = DeltaLog(tmp_path / "g.gmdelta")
        dg = DeltaGraph(weighted_graph).apply_delta(
            inserts=([0, 1], [2, 3], [5.0, 6.0])
        )
        log.append(inserts=([0, 1], [2, 3], [5.0, 6.0]), epoch=1)
        fresh = compact_delta_graph(dg, tmp_path / "fresh.gmsnap", log=log)
        assert fresh.snapshot_path is not None
        assert edge_dict(fresh) == edge_dict(dg)
        assert len(log) == 0
        # The compacted snapshot serves engine runs identically.
        assert np.array_equal(
            run_pagerank(fresh, max_iterations=5).ranks,
            run_pagerank(dg, max_iterations=5).ranks,
        )


# ----------------------------------------------------------------------
# Engine state interplay
# ----------------------------------------------------------------------
class TestEngineStateInterplay:
    def test_run_on_overlay_with_plain_options(self, weighted_graph):
        # Default options: the overlay equals a rebuild bit for bit,
        # the `+` fold of PageRank included.
        rng = np.random.default_rng(9)
        n = weighted_graph.n_vertices
        dg = DeltaGraph(weighted_graph).apply_delta(
            inserts=(rng.integers(0, n, 20), rng.integers(0, n, 20),
                     rng.uniform(1, 9, 20))
        )
        fresh = rebuild(dg)
        assert np.array_equal(run_bfs(dg, 0).distances, run_bfs(fresh, 0).distances)
        assert np.array_equal(
            run_pagerank(dg, max_iterations=5).ranks,
            run_pagerank(fresh, max_iterations=5).ranks,
        )

    def test_scalar_unfused_path_matches(self, weighted_graph):
        rng = np.random.default_rng(10)
        n = weighted_graph.n_vertices
        dg = DeltaGraph(weighted_graph).apply_delta(
            inserts=(rng.integers(0, n, 20), rng.integers(0, n, 20),
                     rng.uniform(1, 9, 20))
        )
        from repro.algorithms.bfs import BFSProgram, init_bfs

        options = EngineOptions(fused=False, use_bitvector=False)
        init_bfs(dg, 0)
        run_graph_program(dg, BFSProgram(), options)
        scalar = dg.vertex_properties.data.copy()
        assert np.array_equal(scalar, run_bfs(rebuild(dg), 0).distances)
