"""Compiled-kernel tier (repro.exec.jit): parity and the fallback matrix.

The tier's defining claims, each tested here directly:

1. **Pairwise-sum replication** — :func:`repro.exec.jit._pairwise_sum`
   reproduces NumPy's ``npy_pairwise_sum`` bit for bit, so additive
   grouped folds match ``np.add.reduceat`` exactly (fuzzed across the
   recursion's block-size boundaries).
2. **Interpreted mode** — with ``FORCE_INTERPRETED`` the very same
   kernel functions run as plain Python, which lets a NumPy-only CI
   exercise the jit dispatch, merge and stats paths end to end.
3. **The fallback matrix** — numba missing (whole-executor swap with a
   logged warning), non-JIT-able program (whole-executor swap with a
   logged info), and non-eligible blocks (per-block NumPy dispatch) —
   every cell bitwise-identical to the serial reference, every cell
   visible in ``kernel_counts`` / ``RunStats.backend``.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

import repro.exec.jit as jitmod
from repro.algorithms.bfs import run_bfs
from repro.algorithms.pagerank import run_pagerank
from repro.core.graph_program import EdgeDirection, SemiringProgram
from repro.core.kernels import (
    JIT_KERNEL_FOR,
    JIT_KERNEL_NAMES,
    KERNEL_JIT_DENSE,
    KERNEL_JIT_SPARSE,
    KERNEL_NAMES,
)
from repro.core.engine import run_graph_program
from repro.core.options import KNOWN_BACKENDS, EngineOptions
from repro.core.semiring import MAX_TIMES, PLUS_TIMES
from repro.errors import ProgramError
from repro.exec import (
    JitExecutor,
    JitThreadedExecutor,
    SerialExecutor,
    ThreadedExecutor,
    create_executor,
)
from repro.exec.jit import (
    NUMBA_AVAILABLE,
    PW_BLOCKSIZE,
    _pairwise_sum,
    jit_tier_available,
)
from repro.graph.generators import figure1_graph
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import symmetrize
from repro.vector.sparse_vector import FLOAT64

ALL_KERNEL_NAMES = set(KERNEL_NAMES) | set(JIT_KERNEL_NAMES)

#: Lengths straddling every branch of npy_pairwise_sum: the < 8
#: sequential tail, the unrolled 8..128 block, and the recursive split
#: (which rounds the halves to multiples of 8).
PAIRWISE_LENGTHS = sorted(
    set(range(1, 18))
    | {31, 32, 33, 63, 64, 65, 127, 128, 129, 130, 255, 256, 257,
       511, 512, 640, 1000, 1 << 11}
)


def _hostile_floats(rng, n):
    """Magnitude-spread values where fold order visibly changes the bits."""
    return rng.standard_normal(n) * np.exp2(rng.integers(-30, 30, size=n))


class TestPairwiseSum:
    """_pairwise_sum vs the np.add.reduceat group fold, bit for bit."""

    @pytest.mark.parametrize("n", PAIRWISE_LENGTHS)
    def test_group_fold_matches_reduceat(self, n):
        rng = np.random.default_rng(n)
        a = _hostile_floats(rng, n)
        expected = np.add.reduceat(a, np.array([0]))[0]
        if n == 1:
            got = a[0]
        else:
            # reduceat folds a group as first + pairwise(rest).
            got = a[0] + _pairwise_sum(a, 1, n - 1)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_offset_independence(self):
        rng = np.random.default_rng(7)
        a = _hostile_floats(rng, 300)
        base = _pairwise_sum(a, 0, 300)
        padded = np.concatenate([_hostile_floats(rng, 37), a])
        assert _pairwise_sum(padded, 37, 300) == base

    def test_zero_length_is_zero(self):
        assert _pairwise_sum(np.zeros(4), 2, 0) == 0.0

    def test_multi_group_reduceat_fuzz(self):
        """Random group structures, exactly as the grouped kernels see
        them: offsets into one big dst-sorted value array."""
        rng = np.random.default_rng(123)
        for trial in range(20):
            n = int(rng.integers(1, 4000))
            vals = _hostile_floats(rng, n)
            n_groups = int(rng.integers(1, min(n, 64) + 1))
            starts = np.unique(
                np.concatenate(
                    [[0], rng.integers(0, n, size=n_groups - 1)]
                )
            ).astype(np.int64)
            expected = np.add.reduceat(vals, starts)
            bounds = np.append(starts, n)
            for g in range(starts.shape[0]):
                lo, hi = int(bounds[g]), int(bounds[g + 1])
                length = hi - lo
                if length == 1:
                    got = vals[lo]
                else:
                    got = vals[lo] + _pairwise_sum(vals, lo + 1, length - 1)
                assert np.float64(got).tobytes() == (
                    np.float64(expected[g]).tobytes()
                ), f"trial {trial} group {g} (len {length})"

    def test_blocksize_matches_numpy(self):
        # The constant is load-bearing: NumPy's unrolled block is 128.
        assert PW_BLOCKSIZE == 128


class TestRegistry:
    """Backend names, executor construction, options validation."""

    def test_backends_registered(self):
        assert "jit" in KNOWN_BACKENDS
        assert "jit-threaded" in KNOWN_BACKENDS

    def test_create_executor(self):
        assert isinstance(
            create_executor(EngineOptions(backend="jit")), JitExecutor
        )
        assert isinstance(
            create_executor(EngineOptions(backend="jit-threaded")),
            JitThreadedExecutor,
        )

    def test_options_accept_jit_backends(self):
        assert EngineOptions(backend="jit").backend == "jit"
        assert EngineOptions(backend="jit-threaded").backend == "jit-threaded"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ProgramError, match="backend"):
            EngineOptions(backend="jitted")

    def test_fallback_executors(self):
        assert isinstance(JitExecutor(3).fallback(), SerialExecutor)
        threaded = JitThreadedExecutor(3).fallback()
        assert isinstance(threaded, ThreadedExecutor)
        assert threaded.n_workers == 3

    def test_tier_available_reflects_modes(self, monkeypatch):
        monkeypatch.setattr(jitmod, "FORCE_INTERPRETED", True)
        assert jit_tier_available()
        monkeypatch.setattr(jitmod, "FORCE_INTERPRETED", False)
        assert jit_tier_available() == NUMBA_AVAILABLE


@pytest.fixture
def interpreted(monkeypatch):
    """Force the kernel functions to run as plain Python (tier 'available')."""
    monkeypatch.setattr(jitmod, "FORCE_INTERPRETED", True)


@pytest.fixture(scope="module")
def rmat():
    return rmat_graph(scale=7, edge_factor=8, seed=3)


@pytest.fixture(scope="module")
def rmat_sym(rmat):
    return symmetrize(rmat)


class TestInterpretedParity:
    """The jit code paths, pure Python, bitwise against the NumPy tier."""

    @pytest.mark.parametrize("backend", ["jit", "jit-threaded"])
    def test_pagerank_bitwise(self, interpreted, rmat, backend):
        ref = run_pagerank(rmat, max_iterations=8)
        got = run_pagerank(
            rmat,
            max_iterations=8,
            options=EngineOptions(backend=backend, n_workers=2),
        )
        assert np.array_equal(ref.ranks, got.ranks)
        assert got.stats.backend == backend
        totals = got.stats.kernel_totals()
        assert any(k in JIT_KERNEL_NAMES for k in totals), totals

    @pytest.mark.parametrize("backend", ["jit", "jit-threaded"])
    def test_bfs_whole_selector_range_compiled(
        self, interpreted, rmat_sym, backend
    ):
        """BFS frontiers span the whole selector range.  Across lanes
        there is no scalar kernel (the tiny root frontier runs
        sparse-gather), so every block of every superstep goes compiled
        — ``kernel_counts`` shows both jit shapes and nothing else."""
        deg = np.zeros(rmat_sym.n_vertices, dtype=np.int64)
        np.add.at(deg, rmat_sym.edges.rows, 1)
        root = int(np.flatnonzero(deg > 0)[deg[deg > 0].argmin()])
        ref = run_bfs(rmat_sym, root)
        got = run_bfs(
            rmat_sym,
            root,
            options=EngineOptions(backend=backend, n_workers=2),
        )
        assert np.array_equal(ref.distances, got.distances)
        assert set(got.stats.kernel_totals()) == set(JIT_KERNEL_NAMES)
        assert got.stats.kernel_totals() == {
            JIT_KERNEL_FOR[k]: v for k, v in ref.stats.kernel_totals().items()
        }

    def test_non_float64_edge_values_dispatch_per_block(self, interpreted):
        """Blocks whose edge values the compiled kernels are not typed
        for run the NumPy lane kernel inside the same sweep, and
        ``kernel_counts`` attributes them to the NumPy tier."""
        from repro.graph.graph import Graph

        edges = rmat_graph(scale=6, edge_factor=8, seed=5).edges
        graph = Graph.from_edges(
            64, edges.rows, edges.cols,
            np.ones(edges.rows.shape[0], dtype=np.float32), dedup=False,
        )
        ref = run_pagerank(graph, max_iterations=4)
        got = run_pagerank(
            graph, max_iterations=4, options=EngineOptions(backend="jit")
        )
        assert np.array_equal(ref.ranks, got.ranks)
        assert got.stats.backend == "jit"
        assert set(got.stats.kernel_totals()) <= set(KERNEL_NAMES)

    def test_kernel_names_are_renamed_not_invented(self, interpreted, rmat):
        got = run_pagerank(
            rmat, max_iterations=4, options=EngineOptions(backend="jit")
        )
        assert set(got.stats.kernel_totals()) <= ALL_KERNEL_NAMES
        assert {KERNEL_JIT_SPARSE, KERNEL_JIT_DENSE} & set(
            got.stats.kernel_totals()
        )


def _run_indegree(graph, semiring, options):
    program = SemiringProgram(semiring, EdgeDirection.OUT_EDGES)
    graph.init_properties(FLOAT64, 1.0)
    graph.set_all_active()
    stats = run_graph_program(graph, program, options.with_(max_iterations=1))
    return graph.vertex_properties.data.copy(), stats


class TestFallbackMatrix:
    """Every cell of the fallback matrix: identical results, honest logs."""

    def test_non_jitable_program_swaps_executor(self, interpreted, caplog):
        """MAX_TIMES has no absorbing identity, so the tier has no plan
        for it: the engine swaps in the fallback executor, says so, and
        the results match the serial backend exactly."""
        ref, _ = _run_indegree(figure1_graph(), MAX_TIMES, EngineOptions())
        with caplog.at_level(logging.INFO, logger="repro.exec.jit"):
            got, stats = _run_indegree(
                figure1_graph(), MAX_TIMES, EngineOptions(backend="jit")
            )
        assert np.array_equal(ref, got)
        assert stats.backend == "serial"
        totals = stats.kernel_totals()
        assert totals and not any(k in JIT_KERNEL_NAMES for k in totals)
        assert any(
            "no compiled (process, reduce) pair" in r.message
            for r in caplog.records
        )
        assert not JitExecutor().supports(SemiringProgram(MAX_TIMES))

    def test_jitable_program_compiles_on_same_graph(self, interpreted):
        """Control for the test above: swap in PLUS_TIMES and the same
        run dispatches compiled kernels (the refusal is per-program)."""
        ref, _ = _run_indegree(figure1_graph(), PLUS_TIMES, EngineOptions())
        got, stats = _run_indegree(
            figure1_graph(), PLUS_TIMES, EngineOptions(backend="jit")
        )
        assert np.array_equal(ref, got)
        assert stats.backend == "jit"
        assert set(stats.kernel_totals()) <= set(JIT_KERNEL_NAMES)

    @pytest.mark.skipif(
        NUMBA_AVAILABLE, reason="needs the numba-missing environment"
    )
    @pytest.mark.parametrize(
        "backend,expected",
        [("jit", "serial"), ("jit-threaded", "threaded")],
    )
    def test_numba_missing_swaps_executor(
        self, monkeypatch, caplog, rmat, backend, expected
    ):
        """Without numba (and without interpreted mode) the engine swaps
        in the NumPy executor, logs a warning, and records the executor
        that actually ran — no silent substitution."""
        monkeypatch.setattr(jitmod, "FORCE_INTERPRETED", False)
        ref = run_pagerank(rmat, max_iterations=6)
        with caplog.at_level(logging.WARNING, logger="repro.exec.jit"):
            got = run_pagerank(
                rmat,
                max_iterations=6,
                options=EngineOptions(backend=backend, n_workers=2),
            )
        assert np.array_equal(ref.ranks, got.ranks)
        assert got.stats.backend == expected
        assert any("falling back" in r.message for r in caplog.records)
        assert not any(
            k in JIT_KERNEL_NAMES for k in got.stats.kernel_totals()
        )

    def test_supports_is_the_swap_hook(self, monkeypatch):
        monkeypatch.setattr(jitmod, "FORCE_INTERPRETED", True)
        assert JitExecutor().supports(SemiringProgram(PLUS_TIMES))
        if not NUMBA_AVAILABLE:
            monkeypatch.setattr(jitmod, "FORCE_INTERPRETED", False)
            assert not JitExecutor().supports(SemiringProgram(PLUS_TIMES))
