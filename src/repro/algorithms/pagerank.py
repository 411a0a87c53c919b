"""PageRank as a GraphMat vertex program (paper section 3-I).

The paper's update rule (equation 1)::

    PR_{t+1}(v) = r + (1 - r) * sum_{(u,v) in E} PR_t(u) / degree(u)

with initial ranks 1.0 and ``r`` the random-surf probability.  Note this is
the *unnormalized* convention (ranks do not sum to 1); a rank-1.0 vertex on
a cycle is a fixed point.  Vertices with no in-edges never receive messages
and keep their current rank, exactly as in the C++ original where ``apply``
only runs for vertices with incoming messages.

The vertex property is ``[rank, inv_out_degree]``: ``send_message`` needs
the out-degree but only sees the property, so the degree rides along (the
paper's implementations do the same; dividing once at setup is also the
standard hand optimization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import RunStats, run_graph_program
from repro.core.graph_program import EdgeDirection, GraphProgram
from repro.core.options import DEFAULT_OPTIONS, EngineOptions
from repro.graph.graph import Graph
from repro.vector.sparse_vector import FLOAT64, ValueSpec

_RANK, _INV_DEG = 0, 1


def inverse_out_degrees(graph: Graph) -> np.ndarray:
    """``1 / out_degree`` per vertex, 0.0 for sinks.

    The send-side normalization every PageRank variant stores in its
    vertex property (sequential, personalized, and the batched lanes all
    share this definition — and must, for bitwise parity).
    """
    out_deg = graph.out_degrees().astype(np.float64)
    inv = np.zeros_like(out_deg)
    nonzero = out_deg > 0
    inv[nonzero] = 1.0 / out_deg[nonzero]
    return inv


class PageRankProgram(GraphProgram):
    """GraphMat vertex program for PageRank.

    ``tolerance > 0`` relaxes the activity rule: a vertex whose rank moved
    by at most ``tolerance`` is treated as unchanged and goes inactive,
    giving early termination.  ``tolerance == 0`` reproduces the paper's
    fixed-iteration benchmarking mode (every message receiver stays
    active).
    """

    direction = EdgeDirection.OUT_EDGES
    message_spec = FLOAT64
    result_spec = FLOAT64
    property_spec = ValueSpec(np.dtype(np.float64), (2,))
    reduce_ufunc = np.add
    # The process hook forwards the (pre-scaled) contribution unchanged,
    # so a 0.0 message adds exactly nothing to any sum: identity
    # absorption certified, which makes the program lane-capable.
    reduce_identity = 0.0

    def __init__(self, r: float = 0.15, tolerance: float = 0.0) -> None:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"r must be in [0, 1], got {r}")
        if tolerance < 0.0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance}")
        self.r = float(r)
        self.tolerance = float(tolerance)
        # Every vertex keeps broadcasting each superstep (the paper's
        # benchmark setting): with the pure change-based activity rule a
        # stabilized vertex would stop sending and *remove* its rank mass
        # from neighbors' sums, so plain PageRank never settles.
        # Convergence is detected by the driver instead (run_pagerank's
        # tolerance), not by deactivation.
        self.reactivate_all = True

    # -- scalar hooks ----------------------------------------------------
    def send_message(self, vertex_prop):
        return vertex_prop[_RANK] * vertex_prop[_INV_DEG]

    def process_message(self, message, edge_value, dst_prop):
        return message

    def reduce(self, a, b):
        return a + b

    def apply(self, reduced, vertex_prop):
        new_prop = vertex_prop.copy()
        new_prop[_RANK] = self.r + (1.0 - self.r) * reduced
        return new_prop

    def properties_equal(self, old_prop, new_prop) -> bool:
        return bool(abs(old_prop[_RANK] - new_prop[_RANK]) <= self.tolerance)

    # -- batch hooks (fused path) -----------------------------------------
    def send_message_batch(self, props, vertices):
        return props[:, _RANK] * props[:, _INV_DEG]

    def process_message_batch(self, messages, edge_values, dst_props):
        return messages

    def apply_batch(self, reduced, props):
        new_props = props.copy()
        new_props[:, _RANK] = self.r + (1.0 - self.r) * reduced
        return new_props

    def properties_equal_batch(self, old, new):
        return np.abs(old[:, _RANK] - new[:, _RANK]) <= self.tolerance

    # -- K-lane hooks ------------------------------------------------------
    def send_message_lanes(self, props_lanes, active_lanes):
        return props_lanes[:, :, _RANK] * props_lanes[:, :, _INV_DEG]

    def apply_lanes_inplace(self, reduced_lanes, props_lanes, received) -> bool:
        # The inv-degree column is invariant; only the rank column
        # updates, in place at the received slots (silent vertices keep
        # their rank).
        update = self.r + (1.0 - self.r) * reduced_lanes
        np.copyto(props_lanes[:, :, _RANK], update, where=received)
        return True


_PPR_RANK, _PPR_INV_DEG, _PPR_TELEPORT = 0, 1, 2


class PersonalizedPageRankProgram(GraphProgram):
    """PageRank with the teleport mass concentrated on one source.

    The personalized variant of equation 1: random surfers restart at a
    *personalization vertex* instead of uniformly, giving source-centric
    relevance scores (the "recommendations for user s" workload a system
    serving many concurrent users runs once per user — which is why the
    batched engine exists).  The property is
    ``[rank, inv_out_degree, teleport]``: the teleport column is the
    per-vertex restart mass (1.0 at the source), and

        PR_{t+1}(v) = r * teleport(v) + (1 - r) * sum_{(u,v)} PR_t(u) / deg(u)

    As in :class:`PageRankProgram`, ``apply`` only runs for vertices
    that received messages, every vertex keeps broadcasting each
    superstep (``reactivate_all``), and ranks follow the unnormalized
    convention.
    """

    direction = EdgeDirection.OUT_EDGES
    message_spec = FLOAT64
    result_spec = FLOAT64
    property_spec = ValueSpec(np.dtype(np.float64), (3,))
    reduce_ufunc = np.add
    # Certifies identity absorption for the batched SpMM path: the
    # process hook forwards messages unchanged, so a 0.0 (silent-lane)
    # message contributes exactly nothing to any sum.
    reduce_identity = 0.0
    reactivate_all = True

    def __init__(self, r: float = 0.15) -> None:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"r must be in [0, 1], got {r}")
        self.r = float(r)

    # -- scalar hooks ----------------------------------------------------
    def send_message(self, vertex_prop):
        return vertex_prop[_PPR_RANK] * vertex_prop[_PPR_INV_DEG]

    def process_message(self, message, edge_value, dst_prop):
        return message

    def reduce(self, a, b):
        return a + b

    def apply(self, reduced, vertex_prop):
        new_prop = vertex_prop.copy()
        new_prop[_PPR_RANK] = (
            self.r * vertex_prop[_PPR_TELEPORT] + (1.0 - self.r) * reduced
        )
        return new_prop

    # -- batch hooks (fused path) -----------------------------------------
    def send_message_batch(self, props, vertices):
        return props[:, _PPR_RANK] * props[:, _PPR_INV_DEG]

    def process_message_batch(self, messages, edge_values, dst_props):
        return messages

    def apply_batch(self, reduced, props):
        new_props = props.copy()
        new_props[:, _PPR_RANK] = (
            self.r * props[:, _PPR_TELEPORT] + (1.0 - self.r) * reduced
        )
        return new_props

    # -- K-lane hooks (batched engine) -------------------------------------
    def send_message_lanes(self, props_lanes, active_lanes):
        return props_lanes[:, :, _PPR_RANK] * props_lanes[:, :, _PPR_INV_DEG]

    def apply_lanes(self, reduced_lanes, props_lanes):
        new_props = props_lanes.copy()
        new_props[:, :, _PPR_RANK] = (
            self.r * props_lanes[:, :, _PPR_TELEPORT]
            + (1.0 - self.r) * reduced_lanes
        )
        return new_props

    def apply_lanes_inplace(self, reduced_lanes, props_lanes, received) -> bool:
        # Inv-degree and teleport columns are invariant; only the rank
        # column updates, so the dense fast path rewrites it in place at
        # the received slots (silent vertices keep their rank).
        update = (
            self.r * props_lanes[:, :, _PPR_TELEPORT]
            + (1.0 - self.r) * reduced_lanes
        )
        np.copyto(props_lanes[:, :, _PPR_RANK], update, where=received)
        return True


def init_personalized_pagerank(
    graph: Graph, program: PersonalizedPageRankProgram, source: int
) -> None:
    """Rank and teleport mass concentrated on ``source``; all active."""
    graph.init_properties(program.property_spec)
    data = graph.vertex_properties.data
    data[:, _PPR_RANK] = 0.0
    data[:, _PPR_INV_DEG] = inverse_out_degrees(graph)
    data[:, _PPR_TELEPORT] = 0.0
    data[source, _PPR_RANK] = 1.0
    data[source, _PPR_TELEPORT] = 1.0
    graph.set_all_active()


def run_personalized_pagerank(
    graph: Graph,
    source: int,
    *,
    r: float = 0.15,
    max_iterations: int = 30,
    options: EngineOptions = DEFAULT_OPTIONS,
    counters=None,
) -> "PageRankResult":
    """Personalized PageRank from one source through the engine.

    Runs exactly ``max_iterations`` supersteps (the fixed-iteration
    benchmark convention); this is the sequential reference that
    ``repro.algorithms.batched.pagerank_personalized_batch`` amortizes
    one edge sweep over K sources of.
    """
    program = PersonalizedPageRankProgram(r=r)
    init_personalized_pagerank(graph, program, source)
    stats = run_graph_program(
        graph,
        program,
        options.with_(max_iterations=max_iterations),
        counters=counters,
    )
    return PageRankResult(
        ranks=graph.vertex_properties.data[:, _PPR_RANK].copy(), stats=stats
    )


@dataclass
class PageRankResult:
    """Final ranks plus the engine run record."""

    ranks: np.ndarray
    stats: RunStats

    @property
    def iterations(self) -> int:
        return self.stats.n_supersteps


def init_pagerank(graph: Graph, program: PageRankProgram) -> None:
    """Set up graph state: rank 1.0 everywhere, all vertices active."""
    graph.init_properties(program.property_spec)
    graph.vertex_properties.data[:, _RANK] = 1.0
    graph.vertex_properties.data[:, _INV_DEG] = inverse_out_degrees(graph)
    graph.set_all_active()


def run_pagerank(
    graph: Graph,
    *,
    r: float = 0.15,
    max_iterations: int = 30,
    tolerance: float = 0.0,
    options: EngineOptions = DEFAULT_OPTIONS,
    counters=None,
) -> PageRankResult:
    """Run PageRank on ``graph`` through the GraphMat engine.

    With ``tolerance == 0`` exactly ``max_iterations`` supersteps run (the
    paper reports time per iteration).  With a positive tolerance the
    driver checks the max rank delta after each superstep and stops once
    it drops to ``tolerance``, still bounded by ``max_iterations``.
    """
    program = PageRankProgram(r=r, tolerance=tolerance)
    init_pagerank(graph, program)
    if tolerance == 0.0:
        stats = run_graph_program(
            graph,
            program,
            options.with_(max_iterations=max_iterations),
            counters=counters,
        )
        return PageRankResult(
            ranks=graph.vertex_properties.data[:, _RANK].copy(), stats=stats
        )
    combined = RunStats()
    step_options = options.with_(max_iterations=1)
    for _ in range(max_iterations):
        previous = graph.vertex_properties.data[:, _RANK].copy()
        stats = run_graph_program(
            graph, program, step_options, counters=counters
        )
        combined.iterations.extend(stats.iterations)
        combined.total_seconds += stats.total_seconds
        combined.used_fused_path = stats.used_fused_path
        delta = np.abs(
            graph.vertex_properties.data[:, _RANK] - previous
        ).max()
        if delta <= tolerance:
            combined.converged = True
            break
    return PageRankResult(
        ranks=graph.vertex_properties.data[:, _RANK].copy(), stats=combined
    )
