"""The Graph container: adjacency storage plus per-vertex engine state.

Mirrors the paper's ``Graph<VertexProperty>``: a fixed vertex set, directed
weighted edges, a dense ``vertex_property`` array, and a boolean ``active``
array ("the set of active vertices is maintained using a boolean array for
performance reasons", section 4.3).

Edge storage is a COO edge matrix ``A`` with ``A[u, v] = w`` for each edge
``u -> v``.  The engine consumes *partitioned DCSC* views:

- the **out view** stores ``A^T`` column-compressed (columns = message
  sources, rows = destinations), used when a program scatters along
  out-edges — this is the ``G^T`` of Algorithm 1;
- the **in view** stores ``A`` column-compressed, used for in-edge scatter.

Views are built lazily and cached per block count so repeated
runs (benchmarks, multi-phase algorithms) pay construction once.  CSR
adjacency views are cached too for the baseline frameworks and native code;
degrees are counted straight from the COO, so they need no CSR.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.matrix.coo import COOMatrix
from repro.matrix.csr import CSRMatrix
from repro.matrix.partition import PartitionedMatrix
from repro.vector.dense import PropertyArray
from repro.vector.sparse_vector import FLOAT64, ValueSpec


class Graph:
    """Directed weighted graph with engine-facing state.

    Build with :meth:`from_edges` or :func:`repro.graph.builder.build_graph`.
    """

    def __init__(self, edge_matrix: COOMatrix) -> None:
        if edge_matrix.shape[0] != edge_matrix.shape[1]:
            raise GraphError(
                f"graph edge matrix must be square, got {edge_matrix.shape}"
            )
        self._edges = edge_matrix
        self.n_vertices = edge_matrix.shape[0]
        self.active = np.zeros(self.n_vertices, dtype=bool)
        self.vertex_properties = PropertyArray(self.n_vertices, FLOAT64)
        self._out_cache: dict[int, PartitionedMatrix] = {}
        self._in_cache: dict[int, PartitionedMatrix] = {}
        self._out_csr: CSRMatrix | None = None
        self._in_csr: CSRMatrix | None = None
        self._out_deg: np.ndarray | None = None
        self._in_deg: np.ndarray | None = None
        #: Set by ``repro.store.load_snapshot`` on mmap-backed graphs.
        self.snapshot_path: str | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray | None = None,
        *,
        dedup: bool = True,
    ) -> "Graph":
        """Build a graph from parallel source/destination (and weight) arrays."""
        coo = COOMatrix((n_vertices, n_vertices), src, dst, weights)
        if dedup:
            coo = coo.deduplicated("last")
        return cls(coo)

    # ------------------------------------------------------------------
    # Topology accessors
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return self._edges.nnz

    @property
    def edges(self) -> COOMatrix:
        """The COO edge matrix (rows = sources, cols = destinations)."""
        return self._edges

    def out_csr(self) -> CSRMatrix:
        """Adjacency view: row ``u`` lists out-neighbors of ``u``."""
        if self._out_csr is None:
            self._out_csr = CSRMatrix.from_coo(self._edges)
        return self._out_csr

    def in_csr(self) -> CSRMatrix:
        """Adjacency view: row ``v`` lists in-neighbors of ``v``."""
        if self._in_csr is None:
            self._in_csr = CSRMatrix.from_coo(self._edges.transpose())
        return self._in_csr

    def out_degrees(self) -> np.ndarray:
        """Out-degree per vertex, counted from the COO (no CSR built)."""
        if self._out_deg is None:
            self._out_deg = np.bincount(
                self._edges.rows, minlength=self.n_vertices
            ).astype(np.int64)
        return self._out_deg.copy()

    def in_degrees(self) -> np.ndarray:
        """In-degree per vertex, counted from the COO (no CSR built)."""
        if self._in_deg is None:
            self._in_deg = np.bincount(
                self._edges.cols, minlength=self.n_vertices
            ).astype(np.int64)
        return self._in_deg.copy()

    def out_partitions(self, n_partitions: int = 1) -> PartitionedMatrix:
        """Partitioned DCSC of ``A^T`` (for OUT_EDGES scatter).

        Columns are message sources; rows (= partition dimension) are
        destinations.
        """
        key = int(n_partitions)
        if key not in self._out_cache:
            self._out_cache[key] = PartitionedMatrix.from_coo(
                self._edges.transpose(), key
            )
        return self._out_cache[key]

    def in_partitions(self, n_partitions: int = 1) -> PartitionedMatrix:
        """Partitioned DCSC of ``A`` (for IN_EDGES scatter)."""
        key = int(n_partitions)
        if key not in self._in_cache:
            self._in_cache[key] = PartitionedMatrix.from_coo(self._edges, key)
        return self._in_cache[key]

    # ------------------------------------------------------------------
    # Partitioned-view cache plumbing (used by ``repro.store``)
    # ------------------------------------------------------------------
    def _views(self, direction: str) -> dict:
        if direction == "out":
            return self._out_cache
        if direction == "in":
            return self._in_cache
        raise GraphError(f"unknown view direction {direction!r}")

    def peek_partitions(
        self, direction: str, n_partitions: int
    ) -> PartitionedMatrix | None:
        """The cached view of a block count, or None (never builds)."""
        return self._views(direction).get(int(n_partitions))

    def adopt_partitions(
        self,
        direction: str,
        n_partitions: int,
        partitions: PartitionedMatrix,
    ) -> PartitionedMatrix:
        """Install an externally built view (e.g. a snapshot's mmap blocks)
        under the same cache key :meth:`out_partitions` would use, so
        engine runs find it instead of re-partitioning the edge list."""
        if partitions.shape != (self.n_vertices, self.n_vertices):
            raise GraphError(
                f"partitioned view shape {partitions.shape} does not match "
                f"graph with {self.n_vertices} vertices"
            )
        self._views(direction)[int(n_partitions)] = partitions
        return partitions

    # ------------------------------------------------------------------
    # Vertex state (the paper's G.vertex_property / G.active)
    # ------------------------------------------------------------------
    def init_properties(self, spec: ValueSpec, fill=None) -> None:
        """(Re)allocate the property array with ``spec``; optionally fill."""
        self.vertex_properties = PropertyArray(self.n_vertices, spec)
        if fill is not None:
            self.vertex_properties.fill(fill)

    def set_all_vertex_property(self, value) -> None:
        """The paper's ``setAllVertexproperty``."""
        self.vertex_properties.fill(value)

    def set_vertex_property(self, v: int, value) -> None:
        self._check_vertex(v)
        self.vertex_properties.set(v, value)

    def get_vertex_property(self, v: int):
        self._check_vertex(v)
        return self.vertex_properties.get(v)

    def set_active(self, v: int) -> None:
        self._check_vertex(v)
        self.active[v] = True

    def set_inactive(self, v: int) -> None:
        self._check_vertex(v)
        self.active[v] = False

    def set_all_active(self) -> None:
        self.active[:] = True

    def set_all_inactive(self) -> None:
        self.active[:] = False

    @property
    def active_count(self) -> int:
        return int(self.active.sum())

    def _check_vertex(self, v: int) -> None:
        if not 0 <= int(v) < self.n_vertices:
            raise GraphError(
                f"vertex {v} out of range [0, {self.n_vertices})"
            )

    # ------------------------------------------------------------------
    def overlay(self) -> "Graph":
        """A mutable delta overlay of this graph (``repro.dynamic``).

        Returns a :class:`~repro.dynamic.delta_graph.DeltaGraph` at
        epoch 0 — same edge set, views aliased zero-copy — whose
        ``apply_delta`` produces successive immutable epochs.  The
        preferred mutation entry point: this Graph itself stays
        immutable (in-place edge mutation plus
        :meth:`invalidate_caches` forfeits snapshot backing and any
        sharing with in-flight readers).
        """
        from repro.dynamic.delta_graph import DeltaGraph

        return DeltaGraph(self)

    def invalidate_caches(self) -> None:
        """Drop cached matrix views (call after mutating edges in place)."""
        self._out_cache.clear()
        self._in_cache.clear()
        self._out_csr = None
        self._in_csr = None
        self._out_deg = None
        self._in_deg = None

    def __repr__(self) -> str:
        return (
            f"Graph(n_vertices={self.n_vertices}, n_edges={self.n_edges}, "
            f"active={self.active_count})"
        )
