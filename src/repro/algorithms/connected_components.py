"""Weakly connected components via label propagation (frontend extension).

Not one of the paper's five benchmarks, but exactly the kind of algorithm
the GraphMat frontend is meant to absorb "with the same effort as other
vertex programming frameworks" (contribution 3): every vertex starts with
its own id as label, broadcasts it both ways along its edges, and keeps
the minimum label seen.  The program quiesces when labels are stable;
vertices then share a label iff they are weakly connected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import RunStats, run_graph_program
from repro.core.graph_program import EdgeDirection, GraphProgram
from repro.core.kernels import MIN_FIRST_KERNEL, LaneKernel
from repro.core.options import DEFAULT_OPTIONS, EngineOptions
from repro.graph.graph import Graph
from repro.vector.sparse_vector import FLOAT64


class MinLabelProgram(GraphProgram):
    """Propagate the minimum label across all edges until stable."""

    direction = EdgeDirection.ALL_EDGES
    message_spec = FLOAT64
    result_spec = FLOAT64
    property_spec = FLOAT64
    reduce_ufunc = np.minimum
    reduce_identity = np.inf

    # -- scalar hooks ----------------------------------------------------
    def send_message(self, vertex_prop):
        return vertex_prop

    def process_message(self, message, edge_value, dst_prop):
        return message

    def reduce(self, a, b):
        return min(a, b)

    def apply(self, reduced, vertex_prop):
        return min(reduced, vertex_prop)

    # -- batch hooks -------------------------------------------------------
    def send_message_batch(self, props, vertices):
        return props

    def process_message_batch(self, messages, edge_values, dst_props):
        return messages

    lane_kernel = LaneKernel(MIN_FIRST_KERNEL)

    def apply_batch(self, reduced, props):
        return np.minimum(reduced, props)


@dataclass
class ComponentsResult:
    """Per-vertex component label (min vertex id in the component)."""

    labels: np.ndarray
    stats: RunStats

    @property
    def n_components(self) -> int:
        return int(np.unique(self.labels).shape[0])


def run_connected_components(
    graph: Graph,
    *,
    options: EngineOptions = DEFAULT_OPTIONS,
) -> ComponentsResult:
    """Label weakly connected components through the GraphMat engine."""
    program = MinLabelProgram()
    graph.init_properties(FLOAT64)
    graph.vertex_properties.data[:] = np.arange(
        graph.n_vertices, dtype=np.float64
    )
    graph.set_all_active()
    stats = run_graph_program(
        graph, program, options.with_(max_iterations=-1)
    )
    return ComponentsResult(
        labels=graph.vertex_properties.data.astype(np.int64), stats=stats
    )
