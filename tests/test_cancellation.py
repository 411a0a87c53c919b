"""Runaway-query containment at the engine layer.

Covers the :class:`~repro.core.cancellation.CancellationToken` contract,
the three-level iteration-bound precedence rule on
:class:`~repro.core.options.EngineOptions` (explicit ``max_iterations``
> token budget/deadline > ``safety_cap``), and cooperative cancellation
in both superstep loops — where the load-bearing property is that a lane
cancelled mid-batch leaves every *surviving* lane bitwise identical to
its sequential run, and a lane cancelled by superstep budget B is
bitwise identical to an intentional ``max_iterations=B`` run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.pagerank import (
    PersonalizedPageRankProgram,
    inverse_out_degrees,
    run_personalized_pagerank,
)
from repro.core.cancellation import CancellationToken
from repro.core.engine import run_graph_program, run_graph_programs_batched
from repro.core.graph_program import EdgeDirection, SemiringProgram
from repro.core.options import EngineOptions
from repro.core.semiring import MIN_FIRST
from repro.errors import ConvergenceError, ProgramError
from repro.graph.generators import cycle_graph
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import with_random_weights
from repro.vector.sparse_vector import FLOAT64


class _FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# CancellationToken
# ----------------------------------------------------------------------
class TestCancellationToken:
    def test_timeout_becomes_deadline(self):
        clock = _FakeClock()
        token = CancellationToken(timeout=2.0, clock=clock)
        assert token.check(0) is None
        assert token.remaining() == pytest.approx(2.0)
        clock.now += 2.5
        reason = token.check(1)
        assert reason is not None and "deadline exceeded" in reason
        assert token.cancelled

    def test_deadline_sticks_once_fired(self):
        clock = _FakeClock()
        token = CancellationToken(timeout=1.0, clock=clock)
        clock.now += 5.0
        first = token.check(0)
        clock.now += 5.0
        assert token.check(1) == first  # reason is latched, not recomputed

    def test_superstep_budget(self):
        token = CancellationToken(superstep_budget=3)
        assert token.check(0) is None
        assert token.check(2) is None
        reason = token.check(3)
        assert reason is not None and "superstep budget" in reason

    def test_budget_needs_iteration(self):
        # A check without an iteration (serving-side admission) never
        # trips the budget, only the clock.
        token = CancellationToken(superstep_budget=1)
        assert token.check() is None
        assert not token.cancelled

    def test_explicit_cancel_wins_and_is_first_wins(self):
        token = CancellationToken(timeout=1000.0)
        token.cancel("operator abort")
        token.cancel("second call")
        assert token.check(0) == "operator abort"

    def test_remaining_without_deadline(self):
        assert CancellationToken(superstep_budget=5).remaining() is None

    def test_validation(self):
        with pytest.raises(ProgramError):
            CancellationToken(timeout=1.0, deadline_at=5.0)
        with pytest.raises(ProgramError):
            CancellationToken(timeout=0.0)
        with pytest.raises(ProgramError):
            CancellationToken(timeout=-1.0)
        with pytest.raises(ProgramError):
            CancellationToken(superstep_budget=0)


# ----------------------------------------------------------------------
# EngineOptions precedence
# ----------------------------------------------------------------------
class TestIterationBoundPrecedence:
    def test_explicit_max_iterations_owns_the_bound(self):
        options = EngineOptions(max_iterations=7, safety_cap=3)
        assert options.iteration_bound() == (7, "max_iterations")

    def test_quiescence_run_falls_to_safety_cap(self):
        options = EngineOptions(max_iterations=-1, safety_cap=50)
        assert options.iteration_bound() == (50, "safety_cap")

    def test_validation(self):
        with pytest.raises(ProgramError):
            EngineOptions(safety_cap=0)
        with pytest.raises(ProgramError):
            EngineOptions(token="not a token")


# ----------------------------------------------------------------------
# Sequential loop
# ----------------------------------------------------------------------
class _MinProgram(SemiringProgram):
    def apply(self, reduced, vertex_prop):
        return min(reduced, vertex_prop)

    def apply_batch(self, reduced, props):
        return np.minimum(reduced, props)


def _min_label_graph(n=20):
    graph = cycle_graph(n)
    graph.init_properties(FLOAT64)
    graph.vertex_properties.data[:] = np.arange(n, dtype=np.float64)
    graph.set_all_active()
    return graph


class TestSequentialCancellation:
    def test_budget_cancels_and_matches_max_iterations(self):
        """Budget B == an intentional max_iterations=B run, bitwise —
        except the budget run is *marked* cancelled."""
        reference = _min_label_graph()
        ref_stats = run_graph_program(
            reference, _MinProgram(MIN_FIRST, EdgeDirection.OUT_EDGES),
            EngineOptions(max_iterations=4),
        )
        governed = _min_label_graph()
        stats = run_graph_program(
            governed, _MinProgram(MIN_FIRST, EdgeDirection.OUT_EDGES),
            EngineOptions(
                max_iterations=-1,
                token=CancellationToken(superstep_budget=4),
            ),
        )
        assert stats.cancelled and "superstep budget" in stats.cancel_reason
        assert not stats.converged
        assert stats.n_supersteps == ref_stats.n_supersteps == 4
        assert np.array_equal(
            governed.vertex_properties.data, reference.vertex_properties.data
        )
        # ... and the next frontier is still on the graph.
        assert governed.active.any()
        assert np.array_equal(governed.active, reference.active)
        assert stats.to_dict()["cancelled"] is True

    def test_deadline_cancels_within_one_superstep(self):
        clock = _FakeClock()
        token = CancellationToken(timeout=10.0, clock=clock)

        class _TickingProgram(_MinProgram):
            def apply(self, reduced, vertex_prop):
                clock.now += 4.0  # each superstep "takes" 4 s
                return min(reduced, vertex_prop)

            def apply_batch(self, reduced, props):
                clock.now += 4.0
                return np.minimum(reduced, props)

        graph = _min_label_graph()
        stats = run_graph_program(
            graph, _TickingProgram(MIN_FIRST, EdgeDirection.OUT_EDGES),
            EngineOptions(max_iterations=-1, token=token),
        )
        assert stats.cancelled and "deadline exceeded" in stats.cancel_reason
        # Deadline fires during superstep 3 (clock hits 12 s > 10 s);
        # the loop notices at the NEXT boundary: <= 1 superstep late.
        assert stats.n_supersteps == 3

    def test_pre_cancelled_token_runs_zero_supersteps(self):
        graph = _min_label_graph()
        token = CancellationToken()
        token.cancel("cancelled before submit")
        stats = run_graph_program(
            graph, _MinProgram(MIN_FIRST, EdgeDirection.OUT_EDGES),
            EngineOptions(max_iterations=-1, token=token),
        )
        assert stats.cancelled and stats.n_supersteps == 0

    def test_uncancelled_token_changes_nothing(self):
        reference = _min_label_graph()
        ref_stats = run_graph_program(
            reference, _MinProgram(MIN_FIRST, EdgeDirection.OUT_EDGES),
            EngineOptions(max_iterations=-1),
        )
        governed = _min_label_graph()
        stats = run_graph_program(
            governed, _MinProgram(MIN_FIRST, EdgeDirection.OUT_EDGES),
            EngineOptions(
                max_iterations=-1, token=CancellationToken(timeout=3600.0)
            ),
        )
        assert ref_stats.converged and stats.converged
        assert not stats.cancelled
        assert stats.n_supersteps == ref_stats.n_supersteps
        assert np.array_equal(
            governed.vertex_properties.data, reference.vertex_properties.data
        )

    def test_safety_cap_raises_naming_itself(self):
        graph = _min_label_graph()
        with pytest.raises(ConvergenceError, match="safety_cap bound fired"):
            run_graph_program(
                graph, _MinProgram(MIN_FIRST, EdgeDirection.OUT_EDGES),
                EngineOptions(max_iterations=-1, safety_cap=2),
            )

    def test_budget_equal_to_convergence_is_not_cancelled(self):
        """A budget the run never reaches leaves the run unmarked."""
        graph = _min_label_graph(6)
        stats = run_graph_program(
            graph, _MinProgram(MIN_FIRST, EdgeDirection.OUT_EDGES),
            EngineOptions(
                max_iterations=-1,
                token=CancellationToken(superstep_budget=1000),
            ),
        )
        assert stats.converged and not stats.cancelled


# ----------------------------------------------------------------------
# Batched loop: per-lane cancellation, survivors bitwise intact
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def rmat():
    return with_random_weights(
        rmat_graph(scale=8, edge_factor=8, seed=11), seed=12
    )


ROOTS = (0, 3, 17, 42)


def _ppr_batch_state(graph, sources):
    n, k = graph.n_vertices, len(sources)
    programs = [PersonalizedPageRankProgram() for _ in sources]
    properties = np.zeros((k, n, 3))
    properties[:, :, 1] = inverse_out_degrees(graph)[None, :]
    active = np.ones((k, n), dtype=bool)
    for lane, source in enumerate(sources):
        properties[lane, source, 0] = 1.0
        properties[lane, source, 2] = 1.0
    return programs, properties, active


class TestBatchedCancellation:
    def test_cancelled_lane_leaves_survivors_bitwise(self, rmat):
        """The adversarial core: one lane's budget fires mid-batch; the
        other lanes' results must equal their sequential runs bit for
        bit, and the cancelled lane must equal a sequential run stopped
        at exactly its budget."""
        budget = 3
        programs, properties, active = _ppr_batch_state(rmat, ROOTS)
        lane_tokens = [None] * len(ROOTS)
        lane_tokens[1] = CancellationToken(superstep_budget=budget)
        run = run_graph_programs_batched(
            rmat, programs, properties, active,
            EngineOptions(max_iterations=10),
            lane_tokens=lane_tokens,
        )
        assert run.cancelled and run.lanes_cancelled == 1
        assert run.lane_stats[1].cancelled
        assert run.lane_stats[1].n_supersteps == budget
        assert run.to_dict()["lanes_cancelled"] == 1
        for lane, source in enumerate(ROOTS):
            iterations = budget if lane == 1 else 10
            ref = run_personalized_pagerank(
                rmat, source, max_iterations=iterations
            )
            assert np.array_equal(ref.ranks, run.properties[lane, :, 0]), (
                f"lane {lane} diverged after lane 1 was cancelled"
            )

    def test_batch_token_cancels_every_live_lane(self, rmat):
        programs, properties, active = _ppr_batch_state(rmat, ROOTS)
        run = run_graph_programs_batched(
            rmat, programs, properties, active,
            EngineOptions(
                max_iterations=10,
                token=CancellationToken(superstep_budget=2),
            ),
        )
        assert run.lanes_cancelled == len(ROOTS)
        assert all(s.n_supersteps == 2 for s in run.lane_stats)
        for lane, source in enumerate(ROOTS):
            ref = run_personalized_pagerank(rmat, source, max_iterations=2)
            assert np.array_equal(ref.ranks, run.properties[lane, :, 0])

    def test_lane_token_count_must_match(self, rmat):
        programs, properties, active = _ppr_batch_state(rmat, ROOTS)
        with pytest.raises(ProgramError, match="lane_tokens"):
            run_graph_programs_batched(
                rmat, programs, properties, active,
                EngineOptions(max_iterations=2),
                lane_tokens=[CancellationToken(superstep_budget=1)],
            )

    def test_batched_safety_cap_names_itself(self, rmat):
        programs, properties, active = _ppr_batch_state(rmat, ROOTS[:2])
        with pytest.raises(ConvergenceError, match="safety_cap bound fired"):
            run_graph_programs_batched(
                rmat, programs, properties, active,
                EngineOptions(max_iterations=-1, safety_cap=2),
            )
