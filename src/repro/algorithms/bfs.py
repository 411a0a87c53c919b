"""Breadth-First Search as a GraphMat vertex program (paper section 3-II).

The Graph500 kernel: starting from a root on an undirected, unweighted
graph, assign every vertex the minimum number of edges from the root
(equation 2)::

    Distance(v) = min(Distance(v), t + 1)

Unreached vertices hold ``inf``.  The paper symmetrizes directed inputs
before BFS (section 5.1); callers are expected to pass a symmetric graph —
:func:`repro.graph.preprocess.symmetrize` does it — though the program
itself works on any directed graph (computing directed hop distance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import RunStats, run_graph_program
from repro.core.graph_program import EdgeDirection, GraphProgram
from repro.core.kernels import MIN_PLUS_C_KERNEL, LaneKernel
from repro.core.options import DEFAULT_OPTIONS, EngineOptions
from repro.graph.graph import Graph
from repro.vector.sparse_vector import FLOAT64

UNREACHED = np.inf


class BFSProgram(GraphProgram):
    """GraphMat vertex program for BFS level computation.

    The message is the sender's current distance; processing adds the unit
    hop; ``reduce`` and ``apply`` take minima.  Only vertices whose
    distance drops (inf -> t+1) change property and stay active, so the
    frontier advances one level per superstep and the program quiesces
    when the reachable set is exhausted.
    """

    direction = EdgeDirection.OUT_EDGES
    message_spec = FLOAT64
    result_spec = FLOAT64
    property_spec = FLOAT64
    reduce_ufunc = np.minimum
    reduce_identity = np.inf
    # A real message is a finite distance; +1 keeps it finite, so a
    # reduction equal to inf can only mean "no lane message" — the
    # batched kernels may derive received masks by value.
    batch_received_by_value = True

    # -- scalar hooks ----------------------------------------------------
    def send_message(self, vertex_prop):
        return vertex_prop

    def process_message(self, message, edge_value, dst_prop):
        return message + 1.0

    def reduce(self, a, b):
        return min(a, b)

    def apply(self, reduced, vertex_prop):
        return min(reduced, vertex_prop)

    # -- batch hooks -------------------------------------------------------
    def send_message_batch(self, props, vertices):
        return props

    def process_message_batch(self, messages, edge_values, dst_props):
        return messages + 1.0

    lane_kernel = LaneKernel(MIN_PLUS_C_KERNEL, 1.0)

    def apply_batch(self, reduced, props):
        return np.minimum(reduced, props)

    # -- K-lane hooks (batched engine) -------------------------------------
    def send_message_lanes(self, props_lanes, active_lanes):
        return props_lanes

    def apply_lanes(self, reduced_lanes, props_lanes):
        return np.minimum(reduced_lanes, props_lanes)


@dataclass
class BFSResult:
    """Hop distances (``inf`` = unreached) plus the engine run record."""

    distances: np.ndarray
    stats: RunStats

    @property
    def reached(self) -> int:
        return int(np.isfinite(self.distances).sum())

    @property
    def max_level(self) -> int:
        finite = self.distances[np.isfinite(self.distances)]
        return int(finite.max()) if finite.size else 0


def init_bfs(graph: Graph, root: int) -> None:
    """Distance inf everywhere except the root (0); only the root active."""
    graph.init_properties(FLOAT64, UNREACHED)
    graph.set_all_inactive()
    graph.set_vertex_property(root, 0.0)
    graph.set_active(root)


def run_bfs(
    graph: Graph,
    root: int,
    *,
    options: EngineOptions = DEFAULT_OPTIONS,
    counters=None,
) -> BFSResult:
    """Run BFS from ``root`` through the GraphMat engine until quiescence."""
    program = BFSProgram()
    init_bfs(graph, root)
    stats = run_graph_program(
        graph, program, options.with_(max_iterations=-1), counters=counters
    )
    return BFSResult(
        distances=graph.vertex_properties.data.copy(), stats=stats
    )
