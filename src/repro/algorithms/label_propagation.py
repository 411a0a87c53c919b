"""Nearest-seed label propagation (frontend-generality extension).

Multi-source BFS that assigns every vertex the label of its nearest seed
(ties broken by smaller seed label) — the Voronoi partition of the graph,
a standard building block for semi-supervised node classification and
partitioning.  Not one of the paper's five benchmarks; it is here as
another witness for the paper's claim that diverse algorithms fit the
four-function frontend with "the same effort" (contribution 3).

The reduction is a *lexicographic* minimum over (distance, label) pairs,
which the fused engine handles by packing both into one float:
``encoded = distance * n_vertices + label``.  Packing keeps ``np.minimum``
a valid reducer, so the program still vectorizes; distances stay exact as
long as ``distance * n_vertices + label`` is below 2^53 (checked at
setup).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import RunStats, run_graph_program
from repro.core.graph_program import EdgeDirection, GraphProgram
from repro.core.kernels import MIN_PLUS_C_KERNEL, LaneKernel
from repro.core.options import DEFAULT_OPTIONS, EngineOptions
from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.vector.sparse_vector import FLOAT64


class NearestSeedProgram(GraphProgram):
    """Propagate packed (distance, label) pairs, keeping the lex-min."""

    direction = EdgeDirection.OUT_EDGES
    message_spec = FLOAT64
    result_spec = FLOAT64
    property_spec = FLOAT64
    reduce_ufunc = np.minimum
    reduce_identity = np.inf

    def __init__(self, n_vertices: int) -> None:
        self.stride = float(n_vertices)

    # -- scalar hooks ----------------------------------------------------
    def send_message(self, vertex_prop):
        return vertex_prop

    def process_message(self, message, edge_value, dst_prop):
        # One more hop: distance += 1 means encoded += stride.
        return message + self.stride

    def reduce(self, a, b):
        return min(a, b)

    def apply(self, reduced, vertex_prop):
        return min(reduced, vertex_prop)

    # -- batch hooks -------------------------------------------------------
    def send_message_batch(self, props, vertices):
        return props

    def process_message_batch(self, messages, edge_values, dst_props):
        return messages + self.stride

    @property
    def lane_kernel(self):
        return LaneKernel(MIN_PLUS_C_KERNEL, self.stride)

    def apply_batch(self, reduced, props):
        return np.minimum(reduced, props)


@dataclass
class LabelPropagationResult:
    """Per-vertex assigned label and hop distance to its seed."""

    labels: np.ndarray  # -1 for unreached vertices
    distances: np.ndarray  # inf for unreached vertices
    stats: RunStats

    @property
    def reached(self) -> int:
        return int((self.labels >= 0).sum())


def run_label_propagation(
    graph: Graph,
    seeds: dict[int, int],
    *,
    options: EngineOptions = DEFAULT_OPTIONS,
) -> LabelPropagationResult:
    """Assign every vertex the label of its nearest seed.

    ``seeds`` maps seed vertex id -> integer label in ``[0, n_vertices)``.
    Unreachable vertices get label -1 / distance inf.  Run on a
    symmetrized graph for undirected semantics.
    """
    n = graph.n_vertices
    if not seeds:
        raise GraphError("need at least one seed")
    for v, label in seeds.items():
        if not 0 <= int(v) < n:
            raise GraphError(f"seed vertex {v} out of range")
        if not 0 <= int(label) < n:
            raise GraphError(
                f"label {label} out of range [0, {n}) (labels are packed "
                f"into distance * n + label)"
            )
    if float(n) * n >= 2.0**53:
        raise GraphError("graph too large for exact float packing")

    program = NearestSeedProgram(n)
    graph.init_properties(FLOAT64, np.inf)
    graph.set_all_inactive()
    for v, label in seeds.items():
        graph.set_vertex_property(int(v), float(label))  # distance 0
        graph.set_active(int(v))
    stats = run_graph_program(
        graph, program, options.with_(max_iterations=-1)
    )
    encoded = graph.vertex_properties.data
    reached = np.isfinite(encoded)
    labels = np.full(n, -1, dtype=np.int64)
    distances = np.full(n, np.inf)
    labels[reached] = (encoded[reached] % n).astype(np.int64)
    distances[reached] = np.floor(encoded[reached] / n)
    return LabelPropagationResult(
        labels=labels, distances=distances, stats=stats
    )
