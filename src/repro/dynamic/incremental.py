"""Incremental re-execution of vertex programs after a delta batch.

The vertex-program abstraction makes incremental recompute a *state
initialization* problem, not a new engine: the same BSP loop and SpMV
kernels run unmodified — only the starting properties and the starting
active set change.

**Monotone programs** (min-semiring fixpoints: BFS, SSSP, connected
components) restart from the previous solution with only the
delta-affected frontier active.  For a monotone batch (insertions — and
for SSSP, weight replacements that do not increase — only) the previous
solution is a valid over-approximation of the new fixpoint, relaxation
from the affected frontier converges to the exact answer, and because
min over the same candidate value set is order-insensitive the result is
**bitwise identical** to a full recompute.  A non-monotone batch (any
effective deletion, or an SSSP weight increase) invalidates the
over-approximation; the drivers then fall back to a full recompute
automatically — still over the delta overlay, so the graph is never
rebuilt — and record ``strategy="full"``.

**PageRank** is not a monotone fixpoint, but it is *linear*: rank
corrections superpose.  :class:`DeltaPageRankProgram` propagates rank
*residuals* from the previous fixpoint — each active vertex sends its
pending rank change scaled by its inverse out-degree; receivers
accumulate, damp by ``(1 - r)``, and stay active while their correction
exceeds ``tolerance``.  The initial residuals are computed directly from
the batch (inserted/deleted edges plus the out-degree renormalization of
touched sources).  The result converges to the new fixpoint with error
bounded by the tolerance — an ε contract, not a bitwise one (see
``docs/DYNAMIC.md`` for why bitwise-identical warm-started PageRank is
mathematically off the table, and which bitwise guarantee the overlay
*does* give PageRank: full runs over the merged view equal a rebuild).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.bfs import BFSProgram, BFSResult, run_bfs
from repro.algorithms.connected_components import (
    ComponentsResult,
    MinLabelProgram,
    run_connected_components,
)
from repro.algorithms.pagerank import PageRankResult, inverse_out_degrees
from repro.algorithms.sssp import SSSPProgram, SSSPResult, run_sssp
from repro.core.engine import RunStats, run_graph_program
from repro.core.graph_program import EdgeDirection, GraphProgram
from repro.core.kernels import PLUS_FIRST_KERNEL, LaneKernel
from repro.core.options import DEFAULT_OPTIONS, EngineOptions
from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.vector.sparse_vector import FLOAT64, ValueSpec

from repro.dynamic.delta_graph import EdgeBatch


@dataclass
class IncrementalRun:
    """One incremental (or fallen-back) re-execution.

    ``result`` is the algorithm's usual result object (``BFSResult``,
    ``SSSPResult``, ``ComponentsResult``, ``PageRankResult``);
    ``strategy`` records whether the incremental path actually ran
    (``"incremental"``) or the driver fell back (``"full"``), and
    ``reason`` says why.
    """

    result: object
    strategy: str
    reason: str

    @property
    def incremental(self) -> bool:
        return self.strategy == "incremental"


def _check_previous(previous: np.ndarray, n: int, what: str) -> np.ndarray:
    previous = np.asarray(previous)
    if previous.shape != (n,):
        raise GraphError(
            f"{what} must have shape ({n},), got {tuple(previous.shape)}"
        )
    return previous


# ----------------------------------------------------------------------
# Monotone min-fixpoint programs: BFS / SSSP / components
# ----------------------------------------------------------------------
def incremental_bfs(
    graph: Graph,
    root: int,
    previous: np.ndarray,
    batch: EdgeBatch | None,
    *,
    options: EngineOptions = DEFAULT_OPTIONS,
) -> IncrementalRun:
    """BFS distances after ``batch``, restarted from ``previous``.

    ``previous`` is the distance vector of the pre-batch run with the
    same ``root``.  Insert-only batches (weight replacements included —
    BFS ignores weights) are monotone: only the inserted edges' source
    endpoints re-enter the frontier, and the result is bitwise identical
    to a full recompute.  Batches with effective deletions fall back.
    """
    previous = _check_previous(previous, graph.n_vertices, "previous distances")
    if batch is None:
        return _full_bfs(graph, root, options, "no batch record")
    if batch.has_deletes:
        return _full_bfs(
            graph, root, options,
            f"{batch.n_deleted} deletion(s): distances may increase",
        )
    if previous[root] != 0.0:
        return _full_bfs(graph, root, options, "previous root mismatch")
    frontier = np.unique(batch.ins_src[batch.new_mask])
    frontier = frontier[np.isfinite(previous[frontier])]
    stats = _restart_min_program(
        graph, BFSProgram(), previous, frontier, options
    )
    return IncrementalRun(
        result=BFSResult(
            distances=graph.vertex_properties.data.copy(), stats=stats
        ),
        strategy="incremental",
        reason=f"monotone insert-only batch, frontier {frontier.size}",
    )


def incremental_sssp(
    graph: Graph,
    source: int,
    previous: np.ndarray,
    batch: EdgeBatch | None,
    *,
    options: EngineOptions = DEFAULT_OPTIONS,
) -> IncrementalRun:
    """SSSP distances after ``batch``, restarted from ``previous``.

    Monotone iff the batch has no effective deletions and no weight
    replacement increased a weight; then the frontier is the batch's
    reachable source endpoints and the result is bitwise identical to a
    full recompute.  Otherwise falls back.
    """
    previous = _check_previous(previous, graph.n_vertices, "previous distances")
    if batch is None:
        return _full_sssp(graph, source, options, "no batch record")
    if batch.has_deletes:
        return _full_sssp(
            graph, source, options,
            f"{batch.n_deleted} deletion(s): distances may increase",
        )
    if not batch.weights_nonincreasing():
        return _full_sssp(
            graph, source, options, "a weight replacement increased a weight"
        )
    if previous[source] != 0.0:
        return _full_sssp(graph, source, options, "previous source mismatch")
    # New edges open new paths; decreased weights improve existing ones.
    replaced = ~batch.new_mask
    decreased = replaced & (batch.ins_vals < batch.old_vals)
    frontier = np.unique(batch.ins_src[batch.new_mask | decreased])
    frontier = frontier[np.isfinite(previous[frontier])]
    stats = _restart_min_program(
        graph, SSSPProgram(), previous, frontier, options
    )
    return IncrementalRun(
        result=SSSPResult(
            distances=graph.vertex_properties.data.copy(), stats=stats
        ),
        strategy="incremental",
        reason=f"monotone batch, frontier {frontier.size}",
    )


def incremental_components(
    graph: Graph,
    previous_labels: np.ndarray,
    batch: EdgeBatch | None,
    *,
    options: EngineOptions = DEFAULT_OPTIONS,
) -> IncrementalRun:
    """Weak-component labels after ``batch``, restarted from the previous
    labelling.  Insertions only merge components (min-label is monotone);
    both endpoints of each new edge re-enter the frontier.  Deletions can
    split components → full fallback.
    """
    previous = _check_previous(
        previous_labels, graph.n_vertices, "previous labels"
    ).astype(np.float64)
    if batch is None:
        return _full_components(graph, options, "no batch record")
    if batch.has_deletes:
        return _full_components(
            graph, options,
            f"{batch.n_deleted} deletion(s): components may split",
        )
    new = batch.new_mask
    frontier = np.unique(
        np.concatenate([batch.ins_src[new], batch.ins_dst[new]])
    )
    stats = _restart_min_program(
        graph, MinLabelProgram(), previous, frontier, options
    )
    return IncrementalRun(
        result=ComponentsResult(
            labels=graph.vertex_properties.data.astype(np.int64), stats=stats
        ),
        strategy="incremental",
        reason=f"monotone insert-only batch, frontier {frontier.size}",
    )


def _restart_min_program(
    graph: Graph,
    program: GraphProgram,
    previous: np.ndarray,
    frontier: np.ndarray,
    options: EngineOptions,
) -> RunStats:
    """Seed ``previous`` as the property vector, activate ``frontier``,
    run to quiescence."""
    graph.init_properties(FLOAT64)
    graph.vertex_properties.data[:] = previous
    graph.set_all_inactive()
    graph.active[frontier] = True
    return run_graph_program(
        graph, program, options.with_(max_iterations=-1)
    )


def _full_bfs(graph, root, options, reason) -> IncrementalRun:
    return IncrementalRun(run_bfs(graph, root, options=options), "full", reason)


def _full_sssp(graph, source, options, reason) -> IncrementalRun:
    return IncrementalRun(
        run_sssp(graph, source, options=options), "full", reason
    )


def _full_components(graph, options, reason) -> IncrementalRun:
    return IncrementalRun(
        run_connected_components(graph, options=options), "full", reason
    )


# ----------------------------------------------------------------------
# PageRank: residual propagation from the previous fixpoint
# ----------------------------------------------------------------------
_DPR_RANK, _DPR_DELTA, _DPR_INV_DEG = 0, 1, 2


class DeltaPageRankProgram(GraphProgram):
    """Propagate pending rank corrections (see module docstring).

    Property ``[rank, delta, inv_out_degree]``: an active vertex sends
    ``delta * inv_out_degree``; a receiver's new pending correction is
    ``(1 - r) * sum(incoming)``, added to its rank; vertices whose new
    correction is within ``tolerance`` drop out of the frontier.  The
    linearity of the PageRank update makes the corrections superpose
    onto the warm-started ranks.
    """

    direction = EdgeDirection.OUT_EDGES
    message_spec = FLOAT64
    result_spec = FLOAT64
    property_spec = ValueSpec(np.dtype(np.float64), (3,))
    reduce_ufunc = np.add
    # A silent vertex's zero message contributes exactly nothing to any
    # sum (finite IEEE addition), certifying the lane kernel's fill.
    reduce_identity = 0.0
    lane_kernel = LaneKernel(PLUS_FIRST_KERNEL)

    def __init__(self, r: float = 0.15, tolerance: float = 1e-10) -> None:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"r must be in [0, 1], got {r}")
        if tolerance <= 0.0:
            raise ValueError(f"tolerance must be > 0, got {tolerance}")
        self.r = float(r)
        self.tolerance = float(tolerance)

    # -- scalar hooks ----------------------------------------------------
    def send_message(self, vertex_prop):
        return vertex_prop[_DPR_DELTA] * vertex_prop[_DPR_INV_DEG]

    def process_message(self, message, edge_value, dst_prop):
        return message

    def reduce(self, a, b):
        return a + b

    def apply(self, reduced, vertex_prop):
        new_prop = vertex_prop.copy()
        correction = (1.0 - self.r) * reduced
        new_prop[_DPR_RANK] = vertex_prop[_DPR_RANK] + correction
        new_prop[_DPR_DELTA] = correction
        return new_prop

    def properties_equal(self, old_prop, new_prop) -> bool:
        # The activity rule: stay in the frontier while the pending
        # correction is significant.
        return bool(abs(new_prop[_DPR_DELTA]) <= self.tolerance)

    # -- batch hooks -------------------------------------------------------
    def send_message_batch(self, props, vertices):
        return props[:, _DPR_DELTA] * props[:, _DPR_INV_DEG]

    def process_message_batch(self, messages, edge_values, dst_props):
        return messages

    def apply_batch(self, reduced, props):
        new_props = props.copy()
        correction = (1.0 - self.r) * reduced
        new_props[:, _DPR_RANK] = props[:, _DPR_RANK] + correction
        new_props[:, _DPR_DELTA] = correction
        return new_props

    def properties_equal_batch(self, old, new):
        return np.abs(new[:, _DPR_DELTA]) <= self.tolerance


def _initial_residuals(
    graph: Graph, previous: np.ndarray, batch: EdgeBatch, options: EngineOptions
) -> np.ndarray:
    """Per-vertex change of incoming rank mass caused by ``batch``.

    ``Δin(v) = Σ_new-edges x(u)·inv'(u) − Σ_old-edges x(u)·inv(u)``
    decomposed as: (a) every current edge of a degree-touched source
    contributes ``x(u)·(inv'(u) − inv(u))``; (b) inserted edges add
    ``x(u)·inv(u)`` on top (their sweep term used ``inv'``); (c) deleted
    edges subtract ``x(u)·inv(u)``.  (a) walks the *merged* out view's
    columns for the touched sources only — O(out-edges of touched
    sources), no full sweep.
    """
    n = graph.n_vertices
    residual = np.zeros(n, dtype=np.float64)
    new = batch.new_mask
    # Old out-degrees, reconstructed from the batch.
    out_deg_new = graph.out_degrees().astype(np.float64)
    out_deg_old = out_deg_new.copy()
    np.subtract.at(out_deg_old, batch.ins_src[new], 1)
    np.add.at(out_deg_old, batch.del_src, 1)
    inv_new = np.zeros(n)
    np.divide(1.0, out_deg_new, out=inv_new, where=out_deg_new > 0)
    inv_old = np.zeros(n)
    np.divide(1.0, out_deg_old, out=inv_old, where=out_deg_old > 0)

    touched = np.unique(np.concatenate([batch.ins_src[new], batch.del_src]))
    touched = touched[inv_new[touched] != inv_old[touched]]
    if touched.size:
        scale = previous[touched] * (inv_new[touched] - inv_old[touched])
        view = graph.out_partitions(options.block_count(n))
        for block in view.blocks:
            pos = np.searchsorted(block.jc, touched)
            ok = pos < block.jc.shape[0]
            ok[ok] = block.jc[pos[ok]] == touched[ok]
            for i in np.flatnonzero(ok):
                lo, hi = int(block.cp[pos[i]]), int(block.cp[pos[i] + 1])
                residual[block.ir[lo:hi]] += scale[i]
    if new.any():
        np.add.at(
            residual,
            batch.ins_dst[new],
            previous[batch.ins_src[new]] * inv_old[batch.ins_src[new]],
        )
    if batch.del_src.size:
        np.subtract.at(
            residual,
            batch.del_dst,
            previous[batch.del_src] * inv_old[batch.del_src],
        )
    return residual


def _seed_corrections(
    graph: Graph,
    previous: np.ndarray,
    batch: EdgeBatch,
    r: float,
    options: EngineOptions,
) -> np.ndarray:
    """Initial per-vertex rank corrections for the residual scheme.

    Mostly ``(1 - r) * Δin``, with two boundary fixes matching the
    engine's receivers-only ``apply`` semantics (a vertex with no
    in-edges keeps its *initial* rank, 1.0, forever): a vertex gaining
    its first in-edge re-bases from its stale value to ``r + (1-r)·Δin``,
    and a vertex losing its last in-edge returns to the 1.0 a cold run
    would leave it at.
    """
    residual = _initial_residuals(graph, previous, batch, options)
    seed = (1.0 - r) * residual
    in_new = graph.in_degrees()
    in_old = in_new.copy()
    np.subtract.at(in_old, batch.ins_dst[batch.new_mask], 1)
    np.add.at(in_old, batch.del_dst, 1)
    gained = (in_old == 0) & (in_new > 0)
    if gained.any():
        seed[gained] = (r - previous[gained]) + (1.0 - r) * residual[gained]
    lost = (in_new == 0) & (in_old > 0)
    if lost.any():
        seed[lost] = 1.0 - previous[lost]
    return seed


def incremental_pagerank(
    graph: Graph,
    previous: np.ndarray,
    batch: EdgeBatch | None,
    *,
    r: float = 0.15,
    tolerance: float = 1e-10,
    max_iterations: int = 500,
    options: EngineOptions = DEFAULT_OPTIONS,
) -> IncrementalRun:
    """PageRank after ``batch``, warm-started from the previous ranks.

    ``previous`` is the (unnormalized-convention) rank vector of the
    pre-batch fixpoint.  Residuals seeded from the batch propagate until
    every pending correction is within ``tolerance``; the returned ranks
    approximate the new fixpoint with tolerance-bounded error (never
    bitwise — see the module docstring).  Handles insertions *and*
    deletions (rank corrections are signed).  Without a batch record the
    driver falls back to the standard tolerance-driven
    :func:`~repro.algorithms.pagerank.run_pagerank`.
    """
    previous = _check_previous(previous, graph.n_vertices, "previous ranks")
    if batch is None:
        from repro.algorithms.pagerank import run_pagerank

        return IncrementalRun(
            result=run_pagerank(
                graph,
                r=r,
                tolerance=tolerance,
                max_iterations=max_iterations,
                options=options,
            ),
            strategy="full",
            reason="no batch record",
        )
    program = DeltaPageRankProgram(r=r, tolerance=tolerance)
    seed = _seed_corrections(graph, previous, batch, r, options)
    graph.init_properties(program.property_spec)
    data = graph.vertex_properties.data
    data[:, _DPR_INV_DEG] = inverse_out_degrees(graph)
    data[:, _DPR_RANK] = previous + seed
    data[:, _DPR_DELTA] = seed
    graph.set_all_inactive()
    frontier = np.flatnonzero(np.abs(seed) > tolerance)
    graph.active[frontier] = True
    strategy = "incremental"
    reason = (
        f"residual warm start, frontier {frontier.size}, "
        f"tolerance {tolerance:g}"
    )
    stats = run_graph_program(
        graph, program, options.with_(max_iterations=max_iterations)
    )
    return IncrementalRun(
        result=PageRankResult(
            ranks=graph.vertex_properties.data[:, _DPR_RANK].copy(),
            stats=stats,
        ),
        strategy=strategy,
        reason=reason,
    )
