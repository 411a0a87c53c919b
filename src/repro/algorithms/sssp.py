"""Single-source shortest paths as a GraphMat vertex program (section 3-V).

The paper's variation on Bellman-Ford (equation 8)::

    Distance(v) = min_{u | (u,v) in E} (Distance(u) + w(u, v))

where only vertices whose distance changed in the previous superstep send
messages ("we only update the distance of those vertices that are adjacent
to those that changed their distance").  This is a literal port of the
paper's appendix source code: message = vertex distance, process = message
+ edge weight, reduce = min, apply = min with the old distance.

Edge weights must be non-negative for termination; the engine's safety cap
turns a negative-cycle runaway into :class:`repro.errors.ConvergenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import RunStats, run_graph_program
from repro.core.graph_program import EdgeDirection, GraphProgram
from repro.core.kernels import MIN_PLUS_KERNEL, LaneKernel
from repro.core.options import DEFAULT_OPTIONS, EngineOptions
from repro.graph.graph import Graph
from repro.vector.sparse_vector import FLOAT64

UNREACHED = np.inf


class SSSPProgram(GraphProgram):
    """GraphMat vertex program for SSSP (the paper's appendix program)."""

    direction = EdgeDirection.OUT_EDGES
    message_spec = FLOAT64
    result_spec = FLOAT64
    property_spec = FLOAT64
    reduce_ufunc = np.minimum
    reduce_identity = np.inf
    # Finite distances plus finite non-negative weights stay finite, so
    # an inf reduction can only mean "no lane message" (see BFS).
    batch_received_by_value = True

    # -- scalar hooks ----------------------------------------------------
    def send_message(self, vertex_prop):
        return vertex_prop

    def process_message(self, message, edge_value, dst_prop):
        return message + edge_value

    def reduce(self, a, b):
        return min(a, b)

    def apply(self, reduced, vertex_prop):
        return min(reduced, vertex_prop)

    # -- batch hooks -------------------------------------------------------
    def send_message_batch(self, props, vertices):
        return props

    def process_message_batch(self, messages, edge_values, dst_props):
        return messages + edge_values

    lane_kernel = LaneKernel(MIN_PLUS_KERNEL)
    accumulate = "min"

    def apply_batch(self, reduced, props):
        return np.minimum(reduced, props)

    # -- K-lane hooks (batched engine) -------------------------------------
    def send_message_lanes(self, props_lanes, active_lanes):
        return props_lanes

    def apply_lanes(self, reduced_lanes, props_lanes):
        return np.minimum(reduced_lanes, props_lanes)


@dataclass
class SSSPResult:
    """Shortest distances (``inf`` = unreachable) plus the run record."""

    distances: np.ndarray
    stats: RunStats

    @property
    def reached(self) -> int:
        return int(np.isfinite(self.distances).sum())


def init_sssp(graph: Graph, source: int) -> None:
    """Distance inf everywhere except the source (0); only source active."""
    graph.init_properties(FLOAT64, UNREACHED)
    graph.set_all_inactive()
    graph.set_vertex_property(source, 0.0)
    graph.set_active(source)


def run_sssp(
    graph: Graph,
    source: int,
    *,
    options: EngineOptions = DEFAULT_OPTIONS,
    counters=None,
) -> SSSPResult:
    """Run SSSP from ``source`` through the GraphMat engine to quiescence."""
    program = SSSPProgram()
    init_sssp(graph, source)
    stats = run_graph_program(
        graph, program, options.with_(max_iterations=-1), counters=counters
    )
    return SSSPResult(
        distances=graph.vertex_properties.data.copy(), stats=stats
    )
