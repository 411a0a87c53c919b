"""Batched multi-query algorithms: K queries, one edge sweep per superstep.

A system serving many concurrent users runs the *same* vertex program
over and over with different query parameters — K BFS roots, K
personalization vertices, K landmark SSSP sources.  Run sequentially,
that costs K full edge sweeps per superstep level; these drivers instead
lay the K queries out as lanes of a
:class:`~repro.vector.multi_frontier.MultiFrontier` and let the batched
SpMM engine (:func:`repro.core.engine.run_graph_programs_batched`) pay
for the edge data movement once, reusing it K times.

Every lane's result is bitwise identical to the corresponding sequential
single-query run, on every execution backend (enforced by
``tests/test_batched.py``); the ``batch_analytics`` workload of the
end-to-end benchmark measures the amortization win.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.algorithms.bfs import UNREACHED, BFSProgram
from repro.algorithms.pagerank import (
    _PPR_INV_DEG,
    _PPR_RANK,
    _PPR_TELEPORT,
    PersonalizedPageRankProgram,
    inverse_out_degrees,
)
from repro.algorithms.sssp import SSSPProgram
from repro.core.engine import BatchRun, run_graph_programs_batched
from repro.core.options import DEFAULT_OPTIONS, EngineOptions
from repro.errors import GraphError
from repro.graph.graph import Graph


def _check_sources(graph: Graph, sources: Sequence[int]) -> list[int]:
    sources = [int(s) for s in sources]
    if not sources:
        raise GraphError("batched run needs at least one source vertex")
    for s in sources:
        if not 0 <= s < graph.n_vertices:
            raise GraphError(
                f"source {s} out of range [0, {graph.n_vertices})"
            )
    return sources


@dataclass
class MultiSourceResult:
    """Per-lane vertex values plus the batched run record.

    ``values`` is lane-major, shape ``(K, n_vertices)``: ``values[k]``
    is the result of query ``k`` (hop distances for BFS, path lengths
    for SSSP, ranks for personalized PageRank) — exactly the array the
    corresponding sequential run would return.
    """

    sources: list[int]
    values: np.ndarray
    run: BatchRun

    def lane(self, k: int) -> np.ndarray:
        """Query ``k``'s result vector, shape ``(n_vertices,)``."""
        return self.values[k]

    def table(self) -> np.ndarray:
        """Vertex-major ``(n_vertices, K)`` view of the results.

        The classic landmark-table layout: row ``v`` holds vertex
        ``v``'s value under every query.
        """
        return self.values.T


def bfs_multi_source(
    graph: Graph,
    roots: Sequence[int],
    *,
    options: EngineOptions = DEFAULT_OPTIONS,
    counters=None,
) -> MultiSourceResult:
    """BFS from K roots in one batched engine run.

    Lane ``k`` computes hop distances from ``roots[k]`` (``inf`` =
    unreached), exactly as :func:`repro.algorithms.bfs.run_bfs` would;
    the engine runs until every lane's frontier is exhausted.  As with
    sequential BFS, pass a symmetrized graph for undirected semantics.
    """
    roots = _check_sources(graph, roots)
    n, k = graph.n_vertices, len(roots)
    programs = [BFSProgram() for _ in roots]
    properties = np.full((k, n), UNREACHED, dtype=np.float64)
    active = np.zeros((k, n), dtype=bool)
    for lane, root in enumerate(roots):
        properties[lane, root] = 0.0
        active[lane, root] = True
    run = run_graph_programs_batched(
        graph, programs, properties, active,
        options.with_(max_iterations=-1), counters=counters,
    )
    return MultiSourceResult(sources=roots, values=run.properties, run=run)


def sssp_landmarks(
    graph: Graph,
    landmarks: Sequence[int],
    *,
    options: EngineOptions = DEFAULT_OPTIONS,
    counters=None,
) -> MultiSourceResult:
    """Shortest-path distances from K landmark vertices in one run.

    The classic landmark (a.k.a. sketch) preprocessing step: the
    returned ``(n_vertices, K)`` table gives every vertex its distance
    to each landmark, from which landmark-based distance estimates
    ``d(u, v) <= min_k d(u, L_k) + d(L_k, v)`` are assembled.  Lane
    ``k`` is bitwise identical to ``run_sssp(graph, landmarks[k])``.
    """
    landmarks = _check_sources(graph, landmarks)
    n, k = graph.n_vertices, len(landmarks)
    programs = [SSSPProgram() for _ in landmarks]
    properties = np.full((k, n), UNREACHED, dtype=np.float64)
    active = np.zeros((k, n), dtype=bool)
    for lane, source in enumerate(landmarks):
        properties[lane, source] = 0.0
        active[lane, source] = True
    run = run_graph_programs_batched(
        graph, programs, properties, active,
        options.with_(max_iterations=-1), counters=counters,
    )
    return MultiSourceResult(sources=landmarks, values=run.properties, run=run)


def pagerank_personalized_batch(
    graph: Graph,
    sources: Sequence[int],
    *,
    r: float = 0.15,
    max_iterations: int = 30,
    options: EngineOptions = DEFAULT_OPTIONS,
    counters=None,
) -> MultiSourceResult:
    """Personalized PageRank for K personalization vertices in one run.

    Lane ``k`` runs :class:`PersonalizedPageRankProgram` with the
    teleport mass on ``sources[k]`` for exactly ``max_iterations``
    supersteps — bitwise identical to
    ``run_personalized_pagerank(graph, sources[k], ...)``, but all K
    rank vectors ride one edge sweep per superstep (every lane's
    frontier is the full vertex set, so the sweeps overlap completely —
    the best case for batching).
    """
    sources = _check_sources(graph, sources)
    n, k = graph.n_vertices, len(sources)
    programs = [PersonalizedPageRankProgram(r=r) for _ in sources]
    properties = np.zeros((k, n, 3), dtype=np.float64)
    properties[:, :, _PPR_INV_DEG] = inverse_out_degrees(graph)[None, :]
    active = np.ones((k, n), dtype=bool)
    for lane, source in enumerate(sources):
        properties[lane, source, _PPR_RANK] = 1.0
        properties[lane, source, _PPR_TELEPORT] = 1.0
    run = run_graph_programs_batched(
        graph, programs, properties, active,
        options.with_(max_iterations=max_iterations), counters=counters,
    )
    return MultiSourceResult(
        sources=sources, values=run.properties[:, :, _PPR_RANK], run=run
    )
