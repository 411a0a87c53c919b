"""The ``min`` accumulate: BFS and SSSP fold into their distances in C.

With the C kernels loaded, a BFS or SSSP superstep never builds ``y``:
the lane sweep folds each destination group, keeps the smaller of the
fold and the old distance, and marks the next frontier in one compiled
pass (``GraphProgram.accumulate``, ``ckernels.lane_accumulate``).  The
NumPy merge into ``y`` followed by ``apply`` stays as the fallback and
the oracle: every run here must equal it bit for bit, down to the next
frontier, every ``IterationStats`` field and the event counters.
"""

from __future__ import annotations

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import bfs_multi_source, run_bfs, run_sssp, sssp_landmarks
from repro.algorithms.bfs import BFSProgram
from repro.algorithms.sssp import SSSPProgram
from repro.core import ckernels, engine
from repro.core.cancellation import CancellationToken
from repro.core.options import EngineOptions
from repro.errors import ProgramError
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import symmetrize, with_random_weights
from repro.perf.counters import EventCounters
from repro.vector.multi_frontier import MultiFrontier


@pytest.fixture(scope="module")
def c_loaded():
    status = ckernels.status()
    if not status["loaded"]:
        pytest.skip(f"C kernels not loaded: {status['reason']}")


def _run(graph, program_class, roots, options, budgets, accumulate):
    """``_run_supersteps`` over fresh state; returns what it leaves behind.

    ``accumulate=False`` hides the C entry, so the same run merges into
    ``y`` and applies in NumPy (the C fold still runs).
    """
    n, k = graph.n_vertices, len(roots)
    props = np.full((k, n), np.inf)
    active = np.zeros((k, n), dtype=bool)
    for lane, root in enumerate(roots):
        props[lane, root] = 0.0
        active[lane, root] = True
    tokens = [
        None if budget is None else CancellationToken(superstep_budget=budget)
        for budget in budgets
    ]
    counters = EventCounters()
    with mock.patch.object(
        ckernels, "lane_accumulate", wraps=ckernels.lane_accumulate
    ) as spy, mock.patch.object(
        ckernels, "accumulates",
        side_effect=ckernels.accumulates if accumulate else lambda *a: False,
    ):
        run = engine._run_supersteps(
            graph, [program_class() for _ in roots], props, active,
            # Non-negative weights: every distance is final after n
            # supersteps, so a run that goes on is wrong, not slow.
            options.with_(safety_cap=2 * n + 8),
            counters=counters, lane_tokens=tokens,
        )
    return props, active, run, counters, spy.call_args_list


def _stats(record) -> dict:
    """An ``IterationStats`` record without its clock readings."""
    doc = record.to_dict()
    del doc["seconds"]
    doc["partition_work"] = [
        {key: value for key, value in work.items() if key != "seconds"}
        for work in doc["partition_work"]
    ]
    return doc


def _assert_same_runs(got, want):
    props, active, run, counters, _ = got
    want_props, want_active, want_run, want_counters, _ = want
    assert np.array_equal(props, want_props)
    assert np.array_equal(active, want_active)
    assert [_stats(it) for it in run.iterations] == [
        _stats(it) for it in want_run.iterations
    ]
    for lane, want_lane in zip(run.lane_stats, want_run.lane_stats):
        assert [_stats(it) for it in lane.iterations] == [
            _stats(it) for it in want_lane.iterations
        ]
        assert (lane.converged, lane.cancelled, lane.cancel_reason) == (
            want_lane.converged, want_lane.cancelled, want_lane.cancel_reason
        )
    assert counters.as_dict() == want_counters.as_dict()


@st.composite
def accumulate_cases(draw):
    """BFS or SSSP on R-MAT scale 3-6, K = 1..17 lanes, 1-9 blocks.

    Roots may repeat or be isolated (lanes that converge at once); a
    lane may carry a superstep budget (cancelled mid-run); the crossover
    ranges from always-gather to always-pull, so supersteps run
    partial-coverage dense pulls and sparse gathers.
    """
    scale = draw(st.integers(3, 6))
    graph = rmat_graph(
        scale, draw(st.integers(2, 8)), seed=draw(st.integers(0, 50))
    )
    program_class = draw(st.sampled_from([BFSProgram, SSSPProgram]))
    graph = (
        symmetrize(graph)
        if program_class is BFSProgram
        else with_random_weights(graph, seed=draw(st.integers(0, 50)))
    )
    k = draw(st.integers(1, 17))
    roots = draw(st.lists(
        st.integers(0, graph.n_vertices - 1), min_size=k, max_size=k
    ))
    budgets = draw(st.lists(
        st.one_of(st.none(), st.integers(1, 4)), min_size=k, max_size=k
    ))
    options = EngineOptions(
        backend=draw(st.sampled_from(["serial", "threaded"])),
        n_workers=2,
        dense_pull_crossover=draw(st.sampled_from([0.5, 1.5, 6.0, 40.0])),
        record_partition_stats=True,
        blocks=draw(st.one_of(st.none(), st.integers(1, 9))),
    )
    return graph, program_class, roots, options, budgets


@given(case=accumulate_cases())
@settings(max_examples=60, deadline=None)
def test_accumulate_equals_merge_and_apply(c_loaded, case):
    graph, program_class, roots, options, budgets = case
    got = _run(graph, program_class, roots, options, budgets, True)
    want = _run(graph, program_class, roots, options, budgets, False)
    _assert_same_runs(got, want)
    # The C entry ran whenever an edge was swept, and never on the oracle.
    assert bool(got[-1]) == (got[2].total_edges_processed > 0)
    assert not want[-1]


@pytest.mark.parametrize("program_class", [BFSProgram, SSSPProgram])
def test_both_kernel_shapes_and_partial_pulls_accumulate(c_loaded, program_class):
    """One graph, K = 1 and 16, every crossover regime: the kernel mix
    includes sparse gathers and dense pulls over part of the columns
    (the calls that pass ``seen``)."""
    graph = symmetrize(rmat_graph(7, 8, seed=11))
    if program_class is SSSPProgram:
        graph = with_random_weights(graph, seed=3)
    degree = np.bincount(graph.edges.rows, minlength=graph.n_vertices)
    roots = [int(v) for v in np.argsort(-degree)[:16]]
    kernels, partial_pulls = set(), 0
    for crossover in (1.5, 6.0, 40.0):
        options = EngineOptions(dense_pull_crossover=crossover)
        for lanes in (roots[:1], roots):
            budgets = [None] * len(lanes)
            got = _run(graph, program_class, lanes, options, budgets, True)
            want = _run(graph, program_class, lanes, options, budgets, False)
            _assert_same_runs(got, want)
            assert got[-1]
            kernels |= set(got[2].kernel_totals())
            partial_pulls += sum(call.args[-1] is not None for call in got[-1])
    assert kernels == {"sparse-gather", "dense-pull"}
    assert partial_pulls > 0


@pytest.mark.parametrize("program_class", [BFSProgram, SSSPProgram])
def test_threads_writing_disjoint_rows_lose_nothing(c_loaded, program_class):
    """More workers than cores write their blocks' rows of one property
    block and one active mask at once: every count, distance and
    frontier bit equals the serial run's."""
    graph = with_random_weights(symmetrize(rmat_graph(9, 8, seed=7)), seed=2)
    degree = np.bincount(graph.edges.rows, minlength=graph.n_vertices)
    roots = [int(v) for v in np.argsort(-degree)[:16]]
    budgets = [None] * len(roots)
    blocks = {"blocks": 8}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _run(
            graph, program_class, roots,
            EngineOptions(backend="threaded", n_workers=8, **blocks),
            budgets, True,
        )
    finally:
        sys.setswitchinterval(interval)
    want = _run(graph, program_class, roots, EngineOptions(**blocks), budgets, True)
    _assert_same_runs(got, want)
    assert got[2].backend == "threaded" and len(got[-1]) > 8


def test_runs_with_c_never_merge_or_apply(c_loaded):
    """With the library loaded the suites test the accumulate, not the
    fallback: no BFS or SSSP superstep reaches ``y``'s merge or apply."""
    graph = with_random_weights(symmetrize(rmat_graph(7, 8, seed=5)), seed=1)
    degree = np.bincount(graph.edges.rows, minlength=graph.n_vertices)
    roots = [int(v) for v in np.argsort(-degree)[:16]]
    fail = AssertionError("the merge + apply fallback ran")
    with mock.patch.object(MultiFrontier, "scatter_block", side_effect=fail), \
            mock.patch.object(MultiFrontier, "scatter_rows", side_effect=fail):
        for program_class in (BFSProgram, SSSPProgram):
            with mock.patch.object(
                program_class, "apply_batch", side_effect=fail
            ), mock.patch.object(program_class, "apply_lanes", side_effect=fail):
                assert program_class.accumulate == "min"
                if program_class is BFSProgram:
                    assert run_bfs(graph, roots[1]).reached > 1
                    bfs_multi_source(graph, roots)
                else:
                    assert run_sssp(graph, roots[1]).reached > 1
                    sssp_landmarks(graph, roots)


def test_redefining_a_hook_drops_accumulate():
    class Rounded(SSSPProgram):
        def apply_batch(self, reduced, props):
            return np.floor(np.minimum(reduced, props))

    class Declared(SSSPProgram):
        accumulate = "min"

        def properties_equal_batch(self, old, new):
            return old == new

    class Restated(BFSProgram):
        reduce_identity = np.inf  # not a hook: the declaration stays

    assert Rounded.accumulate is None
    assert Rounded.lane_kernel is not None  # the fold itself is unchanged
    assert Declared.accumulate == "min"
    assert Restated.accumulate == "min"


def test_only_min_accumulates():
    class Summing(BFSProgram):
        accumulate = "plus"

    with pytest.raises(ProgramError, match="accumulate"):
        Summing().validate()


def test_a_program_without_the_min_contract_merges(c_loaded):
    """A declaration without received-by-value (a real message may fold
    to the identity) runs the NumPy merge and apply."""

    class Saturating(BFSProgram):
        batch_received_by_value = False

    graph = symmetrize(rmat_graph(6, 4, seed=2))
    options = EngineOptions()
    got = _run(graph, Saturating, [1, 5, 9], options, [None] * 3, True)
    want = _run(graph, BFSProgram, [1, 5, 9], options, [None] * 3, False)
    _assert_same_runs(got, want)
    assert not got[-1]


def test_accumulate_entries_resolve(c_loaded):
    assert ckernels.accumulates("min", BFSProgram.lane_kernel)
    assert ckernels.accumulates("min", SSSPProgram.lane_kernel)
    assert not ckernels.accumulates(None, SSSPProgram.lane_kernel)
    assert not ckernels.accumulates("min", None)
