"""Request -> vertex-program adapters for the query service.

The serving layer (:mod:`repro.serve`) receives independent requests —
"BFS from root 17", "personalized PageRank for user 9 with r=0.2" — and
coalesces them into one :func:`repro.core.engine.run_graph_programs_batched`
call per dispatch window.  The scheduler itself knows nothing about
vertex programs; each :class:`QueryAdapter` supplies the translation for
one query kind:

- parameter validation and **canonicalization** (``canonicalize``): the
  canonical dict is both the result-cache key material and the record of
  what actually ran,
- the **batch key** (``batch_key``): only requests whose batch keys
  match may share an engine run.  Per-lane parameters (roots, sources)
  stay out of it; parameters that change the shared sweep semantics
  (damping factor, iteration budget) go in, which is how "mixed program
  types are never co-batched" is enforced structurally,
- lane construction (``make_programs`` / ``init_lanes``) and per-lane
  result extraction (``extract``).

Adapters are registered in :data:`QUERY_ADAPTERS`; the service resolves
kinds through :func:`get_adapter`.
"""

from __future__ import annotations

from collections.abc import Sequence

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
from repro.core.engine import BatchRun
from repro.core.options import EngineOptions
from repro.errors import BadQueryError
from repro.graph.graph import Graph


def _require_vertex(graph: Graph, params: dict, key: str) -> int:
    if key not in params:
        raise BadQueryError(f"missing required parameter {key!r}")
    try:
        vertex = int(params[key])
    except (TypeError, ValueError):
        raise BadQueryError(
            f"parameter {key!r} must be a vertex id, got {params[key]!r}"
        ) from None
    if not 0 <= vertex < graph.n_vertices:
        raise BadQueryError(
            f"parameter {key!r} = {vertex} out of range "
            f"[0, {graph.n_vertices})"
        )
    return vertex


def _reject_unknown(params: dict, allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise BadQueryError(
            f"unknown parameter(s) {unknown}; allowed: {sorted(allowed)}"
        )


class QueryAdapter:
    """Translation between one query kind and the batched engine."""

    #: Query kind name (the service's routing key, e.g. ``"bfs"``).
    kind: str = ""
    #: Result ordering for "top N" views: ``"min"`` for distances
    #: (closest first, unreached excluded), ``"max"`` for scores.
    order: str = "max"

    def canonicalize(self, graph: Graph, params: dict) -> dict:
        """Validated, fully-defaulted copy of ``params``.

        Raises :class:`~repro.errors.BadQueryError` on malformed input.
        The canonical dict is deterministic (same request -> same dict),
        which makes it safe cache-key material.
        """
        raise NotImplementedError

    def batch_key(self, canonical: dict) -> tuple:
        """Shared-sweep parameters; equal keys may share an engine run."""
        return ()

    def engine_options(self, canonical: dict, options: EngineOptions) -> EngineOptions:
        """Per-batch engine options (iteration budget etc.)."""
        return options.with_(max_iterations=-1)

    def make_programs(self, canonicals: Sequence[dict]) -> list:
        """One program instance per lane."""
        raise NotImplementedError

    def init_lanes(
        self, graph: Graph, canonicals: Sequence[dict]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Initial ``(lane_properties, lane_active)`` arrays, lane-major."""
        raise NotImplementedError

    def extract(self, run: BatchRun, lane: int) -> np.ndarray:
        """Lane ``lane``'s user-facing result vector, shape ``(n,)``."""
        raise NotImplementedError


class _SourcedTraversalAdapter(QueryAdapter):
    """Shared shape of BFS/SSSP: one source vertex, distances out."""

    order = "min"
    _source_key = "root"

    def canonicalize(self, graph: Graph, params: dict) -> dict:
        _reject_unknown(params, (self._source_key,))
        return {self._source_key: _require_vertex(graph, params, self._source_key)}

    def init_lanes(self, graph, canonicals):
        k, n = len(canonicals), graph.n_vertices
        properties = np.full((k, n), UNREACHED, dtype=np.float64)
        active = np.zeros((k, n), dtype=bool)
        for lane, canonical in enumerate(canonicals):
            source = canonical[self._source_key]
            properties[lane, source] = 0.0
            active[lane, source] = True
        return properties, active

    def extract(self, run: BatchRun, lane: int) -> np.ndarray:
        return run.properties[lane]


class BFSAdapter(_SourcedTraversalAdapter):
    """``{"root": v}`` -> hop distances from ``v`` (inf = unreached)."""

    kind = "bfs"
    _source_key = "root"

    def make_programs(self, canonicals):
        return [BFSProgram() for _ in canonicals]


class SSSPAdapter(_SourcedTraversalAdapter):
    """``{"source": v}`` -> shortest-path distances from ``v``."""

    kind = "sssp"
    _source_key = "source"

    def make_programs(self, canonicals):
        return [SSSPProgram() for _ in canonicals]


class PPRAdapter(QueryAdapter):
    """``{"source": v, "r": 0.15, "iterations": 30}`` -> personalized ranks.

    ``r`` and ``iterations`` change the shared sweep (every lane of a
    batch runs the same damping and superstep count), so they are part
    of the batch key: two requests with different ``r`` never co-batch.
    """

    kind = "ppr"
    order = "max"
    DEFAULT_R = 0.15
    DEFAULT_ITERATIONS = 30
    MAX_ITERATIONS = 1000

    def canonicalize(self, graph, params):
        _reject_unknown(params, ("source", "r", "iterations"))
        source = _require_vertex(graph, params, "source")
        try:
            r = float(params.get("r", self.DEFAULT_R))
            iterations = int(params.get("iterations", self.DEFAULT_ITERATIONS))
        except (TypeError, ValueError):
            raise BadQueryError(
                "parameters 'r' and 'iterations' must be numeric"
            ) from None
        if not 0.0 <= r <= 1.0:
            raise BadQueryError(f"r must be in [0, 1], got {r}")
        if not 1 <= iterations <= self.MAX_ITERATIONS:
            raise BadQueryError(
                f"iterations must be in [1, {self.MAX_ITERATIONS}], "
                f"got {iterations}"
            )
        return {"source": source, "r": r, "iterations": iterations}

    def batch_key(self, canonical):
        return (canonical["r"], canonical["iterations"])

    def engine_options(self, canonical, options):
        return options.with_(max_iterations=canonical["iterations"])

    def make_programs(self, canonicals):
        return [
            PersonalizedPageRankProgram(r=c["r"]) for c in canonicals
        ]

    def init_lanes(self, graph, canonicals):
        k, n = len(canonicals), graph.n_vertices
        properties = np.zeros((k, n, 3), dtype=np.float64)
        properties[:, :, _PPR_INV_DEG] = inverse_out_degrees(graph)[None, :]
        active = np.ones((k, n), dtype=bool)
        for lane, canonical in enumerate(canonicals):
            source = canonical["source"]
            properties[lane, source, _PPR_RANK] = 1.0
            properties[lane, source, _PPR_TELEPORT] = 1.0
        return properties, active

    def extract(self, run, lane):
        return run.properties[lane, :, _PPR_RANK]


#: Kind -> adapter instance (adapters are stateless; one shared instance).
QUERY_ADAPTERS: dict[str, QueryAdapter] = {
    adapter.kind: adapter
    for adapter in (BFSAdapter(), SSSPAdapter(), PPRAdapter())
}


def get_adapter(kind: str) -> QueryAdapter:
    """The adapter for ``kind``; raises BadQueryError for unknown kinds."""
    adapter = QUERY_ADAPTERS.get(kind)
    if adapter is None:
        raise BadQueryError(
            f"unknown query kind {kind!r}; "
            f"available: {sorted(QUERY_ADAPTERS)}"
        )
    return adapter
