"""``DeltaGraph``: a persistent delta overlay over an immutable base graph.

The serving layer hosts immutable (often mmap-backed) graphs; real
workloads mutate.  A :class:`DeltaGraph` reconciles the two: it *is* a
:class:`~repro.graph.graph.Graph` (the engine, the algorithms and the
service run it unmodified), but its edge set is ``base ± cumulative
delta`` and mutations never touch the base.

Design
------

**Persistent epochs.**  :meth:`DeltaGraph.apply_delta` returns a *new*
``DeltaGraph`` (epoch + 1) and leaves the receiver untouched.  In-flight
engine runs therefore observe one consistent epoch for their whole
lifetime — the serving layer pins each admitted query to the graph
object it was admitted against and swaps the registry entry atomically.

**Copy-on-write views.**  The engine consumes partitioned DCSC views.
An overlay view reuses the base view's blocks for partitions the
cumulative delta does not touch (zero copies — for snapshot-backed bases
these stay mmap views, and process-pool workers still attach them by
path) and re-merges only the touched partitions via the sorted-key merge
of :mod:`repro.matrix.delta`, O(block + delta) per touched block with no
re-sort.

**Bitwise parity with a rebuild.**  A merged block is bitwise identical
to the block a from-scratch ``Graph`` over the final edge set would
build (canonical column-major order over unique coordinates, identical
values).  Row ranges depend on the block count alone, so the *entire
view* — and therefore every engine result computed over it, including
order-sensitive floating-point reductions like PageRank's sums — is
bitwise identical to a full rebuild.

**Batch semantics.**  Within one ``apply_delta`` call deletions apply
first, then insertions; duplicate insertions keep the last occurrence
(the repeated-edge-insertion convention of ``COOMatrix.deduplicated``).
Inserting an existing edge replaces its weight.  Deleting an absent edge
is a no-op.  The vertex set is fixed at the base's; weights are cast to
the base's value dtype (same-kind casts only — mutate a float-weighted
base with float weights).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.matrix.coo import COOMatrix
from repro.matrix.delta import (
    BlockDelta,
    check_key_space,
    dedup_last_by_key,
    merge_block,
    merge_sorted_unique,
    sorted_membership,
)
from repro.matrix.partition import PartitionedMatrix
from repro.vector.dense import PropertyArray
from repro.vector.sparse_vector import FLOAT64

_EMPTY_KEYS = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class EdgeBatch:
    """The *effective* content of one applied mutation batch.

    Produced by :meth:`DeltaGraph.apply_delta` (available as
    ``new_graph.last_batch``); the incremental drivers
    (:mod:`repro.dynamic.incremental`) decide monotonicity from it.
    All arrays are aligned and sorted by ``(src, dst)``; keys are unique;
    insert and delete key sets are disjoint.
    """

    #: Upserts actually applied (deduplicated keep-last).
    ins_src: np.ndarray
    ins_dst: np.ndarray
    ins_vals: np.ndarray
    #: True where the upsert created a new edge (False = weight replace).
    new_mask: np.ndarray
    #: Previous weight where ``~new_mask`` (zero-filled at new edges).
    old_vals: np.ndarray
    #: Deletions that removed an existing edge.
    del_src: np.ndarray
    del_dst: np.ndarray
    #: Requested deletions that named absent edges (dropped).
    noop_deletes: int = 0

    @property
    def n_inserted(self) -> int:
        """Edges that did not exist before this batch."""
        return int(self.new_mask.sum())

    @property
    def n_replaced(self) -> int:
        return int(self.ins_src.shape[0] - self.n_inserted)

    @property
    def n_deleted(self) -> int:
        return int(self.del_src.shape[0])

    @property
    def has_deletes(self) -> bool:
        return self.del_src.shape[0] > 0

    @property
    def insert_only(self) -> bool:
        """No effective deletions (weight replacements allowed)."""
        return not self.has_deletes

    def weights_nonincreasing(self) -> bool:
        """Every weight replacement kept or decreased the weight
        (the extra condition SSSP monotonicity needs on top of
        :attr:`insert_only`)."""
        replaced = ~self.new_mask
        if not replaced.any():
            return True
        return bool(np.all(self.ins_vals[replaced] <= self.old_vals[replaced]))

    def to_dict(self) -> dict:
        """JSON-ready summary (mutation responses, logs)."""
        return {
            "inserted": self.n_inserted,
            "replaced": self.n_replaced,
            "deleted": self.n_deleted,
            "noop_deletes": int(self.noop_deletes),
        }


class _BaseIndex:
    """Sorted-key index over the base graph's edges, shared by a chain.

    Built once per base graph (O(E log E)); every epoch of every overlay
    chain on that base shares it by reference.
    """

    def __init__(self, base: Graph) -> None:
        coo = base.edges
        check_key_space((base.n_vertices, base.n_vertices))
        keys = coo.rows * np.int64(base.n_vertices) + coo.cols
        order = np.argsort(keys, kind="stable")
        self.keys = np.ascontiguousarray(keys[order])
        self.vals = np.ascontiguousarray(coo.vals[order])
        if self.keys.size and np.any(self.keys[1:] == self.keys[:-1]):
            raise GraphError(
                "DeltaGraph requires a deduplicated base graph "
                "(build it with Graph.from_edges, which dedups by default)"
            )


class DeltaGraph(Graph):
    """A :class:`Graph` whose edge set is ``base ± cumulative delta``.

    Construct with ``DeltaGraph(base)`` (epoch 0 — identical edge set to
    ``base``, views aliased zero-copy) and evolve with
    :meth:`apply_delta`, which returns the next epoch.  See the module
    docstring for semantics.
    """

    def __init__(self, base: Graph, *, _state: dict | None = None) -> None:
        if isinstance(base, DeltaGraph):
            raise GraphError(
                "wrap the plain base Graph; apply_delta already chains epochs"
            )
        n = base.n_vertices
        check_key_space((n, n))
        self.base = base
        self.n_vertices = n
        self.active = np.zeros(n, dtype=bool)
        self.vertex_properties = PropertyArray(n, FLOAT64)
        self._out_cache = {}
        self._in_cache = {}
        self._out_csr = None
        self._in_csr = None
        self.snapshot_path = None
        self._merged: COOMatrix | None = None
        #: Cumulative delta entries sorted by the IN view's key order
        #: (``dst * n + src``), built lazily per instance.
        self._in_order: np.ndarray | None = None
        if _state is None:
            index = _BaseIndex(base)
            self._base_index = index
            self.epoch = 0
            self.last_batch: EdgeBatch | None = None
            self._keys = index.keys
            self._key_vals = index.vals
            self._ins_keys = _EMPTY_KEYS
            self._ins_vals = index.vals[:0]
            self._del_keys = _EMPTY_KEYS
            self._out_deg = base.out_degrees()
            self._in_deg = base.in_degrees()
        else:
            self.__dict__.update(_state)

    # ------------------------------------------------------------------
    # Topology accessors (overridden: the base COO is not our edge set)
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return int(self._keys.shape[0])

    @property
    def _edges(self) -> COOMatrix:
        return self._materialize()

    @property
    def edges(self) -> COOMatrix:
        """The merged edge set as COO, materialized lazily (row-major
        sorted — same set as a from-scratch rebuild, order canonical)."""
        return self._materialize()

    def _materialize(self) -> COOMatrix:
        if self._merged is None:
            n = self.n_vertices
            self._merged = COOMatrix(
                (n, n),
                self._keys // n,
                self._keys % n,
                self._key_vals,
                validate=False,
            )
        return self._merged

    @property
    def delta_edges(self) -> int:
        """Cumulative overlay size (upserts + tombstones) vs the base."""
        return int(self._ins_keys.shape[0] + self._del_keys.shape[0])

    @property
    def delta_fraction(self) -> float:
        """Overlay size relative to the base edge count (compaction
        trigger signal; see ``repro.store.delta_log``)."""
        return self.delta_edges / max(1, self.base.n_edges)

    def to_graph(self) -> Graph:
        """Materialize a plain immutable :class:`Graph` of the merged edge
        set (compaction; differential tests)."""
        n = self.n_vertices
        return Graph(
            COOMatrix(
                (n, n),
                self._keys // n,
                self._keys % n,
                self._key_vals.copy(),
                validate=False,
            )
        )

    def invalidate_caches(self) -> None:
        super().invalidate_caches()
        self._merged = None
        self._in_order = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        inserts: tuple | None = None,
        deletes: tuple | None = None,
    ) -> "DeltaGraph":
        """A new overlay (epoch + 1) with the batch applied.

        ``inserts`` is ``(src, dst)`` or ``(src, dst, weights)`` array
        likes (missing weights default to 1 in the base value dtype);
        ``deletes`` is ``(src, dst)``.  Deletions apply before
        insertions; see the module docstring for the full semantics.
        The applied batch is recorded on the result as ``last_batch``.
        """
        n = self.n_vertices
        dtype = self._key_vals.dtype
        ins_src, ins_dst, ins_vals = _parse_inserts(inserts, n, dtype)
        del_src, del_dst = _parse_deletes(deletes, n)

        ins_keys = ins_src * np.int64(n) + ins_dst
        ins_keys, ins_vals = dedup_last_by_key(ins_keys, ins_vals)
        del_keys = np.unique(del_src * np.int64(n) + del_dst)
        requested_deletes = int(del_keys.shape[0])
        # Delete-then-insert of one key nets out to the insert.
        if del_keys.size and ins_keys.size:
            del_keys = del_keys[~sorted_membership(ins_keys, del_keys)]

        # Effective classification against the current edge set.
        del_hits = sorted_membership(self._keys, del_keys)
        eff_del_keys = del_keys[del_hits]
        replaced = sorted_membership(self._keys, ins_keys)
        old_vals = np.zeros(ins_keys.shape[0], dtype=dtype)
        if replaced.any():
            pos = np.searchsorted(self._keys, ins_keys[replaced])
            old_vals[replaced] = self._key_vals[pos]

        # New merged edge set (sorted keys + aligned values).
        merged_keys, keep, positions, _ = merge_sorted_unique(
            self._keys, ins_keys, eff_del_keys
        )
        merged_vals = np.insert(self._key_vals[keep], positions, ins_vals)

        # Degrees: only topology changes move them.
        new_src = ins_keys[~replaced] // n
        new_dst = ins_keys[~replaced] % n
        eff_del_src = eff_del_keys // n
        eff_del_dst = eff_del_keys % n
        out_deg = self.out_degrees()
        in_deg = self.in_degrees()
        np.add.at(out_deg, new_src, 1)
        np.add.at(in_deg, new_dst, 1)
        np.subtract.at(out_deg, eff_del_src, 1)
        np.subtract.at(in_deg, eff_del_dst, 1)

        # Cumulative delta vs the base.
        base_keys = self._base_index.keys
        prior_keep = ~sorted_membership(eff_del_keys, self._ins_keys)
        pk = self._ins_keys[prior_keep]
        pv = self._ins_vals[prior_keep]
        cum_keys, keep_p, pos_p, _ = merge_sorted_unique(
            pk, ins_keys, _EMPTY_KEYS
        )
        cum_vals = np.insert(pv[keep_p], pos_p, ins_vals)
        del_from_base = eff_del_keys[sorted_membership(base_keys, eff_del_keys)]
        cum_del = np.union1d(self._del_keys, del_from_base)
        if cum_del.size and ins_keys.size:
            cum_del = cum_del[~sorted_membership(ins_keys, cum_del)]

        batch = EdgeBatch(
            ins_src=ins_keys // n,
            ins_dst=ins_keys % n,
            ins_vals=ins_vals,
            new_mask=~replaced,
            old_vals=old_vals,
            del_src=eff_del_src,
            del_dst=eff_del_dst,
            noop_deletes=requested_deletes - int(eff_del_keys.shape[0]),
        )
        state = {
            "base": self.base,
            "_base_index": self._base_index,
            "epoch": self.epoch + 1,
            "last_batch": batch,
            "_keys": merged_keys,
            "_key_vals": merged_vals,
            "_ins_keys": cum_keys,
            "_ins_vals": cum_vals,
            "_del_keys": cum_del,
            "_out_deg": out_deg,
            "_in_deg": in_deg,
        }
        return DeltaGraph(self.base, _state=state)

    # ------------------------------------------------------------------
    # Copy-on-write partitioned views
    # ------------------------------------------------------------------
    def out_partitions(self, n_partitions: int = 1) -> PartitionedMatrix:
        key = int(n_partitions)
        if key not in self._out_cache:
            self._out_cache[key] = self._merged_view("out", key)
        return self._out_cache[key]

    def in_partitions(self, n_partitions: int = 1) -> PartitionedMatrix:
        key = int(n_partitions)
        if key not in self._in_cache:
            self._in_cache[key] = self._merged_view("in", key)
        return self._in_cache[key]

    def _delta_view_coords(
        self, direction: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cumulative delta as view coordinates, sorted in block key order.

        The OUT view stores ``A^T`` (col = src, row = dst): its key
        ``src * n + dst`` is exactly the cumulative arrays' sort order.
        The IN view (col = dst, row = src) needs one small re-sort of
        the delta (cached).
        """
        n = np.int64(self.n_vertices)
        ins_src = self._ins_keys // n
        ins_dst = self._ins_keys % n
        del_src = self._del_keys // n
        del_dst = self._del_keys % n
        if direction == "out":
            return ins_dst, ins_src, self._ins_vals, del_dst, del_src
        if self._in_order is None:
            self._in_order = np.argsort(ins_dst * n + ins_src, kind="stable")
        order = self._in_order
        del_order = np.argsort(del_dst * n + del_src, kind="stable")
        return (
            ins_src[order],
            ins_dst[order],
            self._ins_vals[order],
            del_src[del_order],
            del_dst[del_order],
        )

    def _merged_view(self, direction: str, n_partitions: int) -> PartitionedMatrix:
        base_view = (
            self.base.out_partitions(n_partitions)
            if direction == "out"
            else self.base.in_partitions(n_partitions)
        )
        if self._ins_keys.size == 0 and self._del_keys.size == 0:
            return base_view
        ins_rows, ins_cols, ins_vals, del_rows, del_cols = (
            self._delta_view_coords(direction)
        )
        blocks = []
        for block in base_view.blocks:
            lo, hi = block.row_range
            ins_in = (ins_rows >= lo) & (ins_rows < hi)
            del_in = (del_rows >= lo) & (del_rows < hi)
            if not (ins_in.any() or del_in.any()):
                blocks.append(block)
                continue
            blocks.append(
                merge_block(
                    block,
                    BlockDelta(
                        ins_rows=ins_rows[ins_in],
                        ins_cols=ins_cols[ins_in],
                        ins_vals=ins_vals[ins_in],
                        del_rows=del_rows[del_in],
                        del_cols=del_cols[del_in],
                    ),
                )
            )
        return PartitionedMatrix(base_view.shape, blocks)

    def __repr__(self) -> str:
        return (
            f"DeltaGraph(n_vertices={self.n_vertices}, "
            f"n_edges={self.n_edges}, epoch={self.epoch}, "
            f"delta_edges={self.delta_edges})"
        )


# ----------------------------------------------------------------------
# Input parsing
# ----------------------------------------------------------------------
def _parse_vertex_array(arr, n: int, what: str) -> np.ndarray:
    out = np.atleast_1d(np.asarray(arr, dtype=np.int64))
    if out.ndim != 1:
        raise GraphError(f"{what} must be a 1-D array of vertex ids")
    if out.size and (out.min() < 0 or out.max() >= n):
        raise GraphError(
            f"{what} contains vertex ids outside [0, {n}) "
            f"(the overlay's vertex set is fixed at the base's)"
        )
    return out


def _parse_inserts(
    inserts, n: int, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if inserts is None:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=dtype)
    if len(inserts) == 2:
        src, dst = inserts
        weights = None
    elif len(inserts) == 3:
        src, dst, weights = inserts
    else:
        raise GraphError(
            "inserts must be (src, dst) or (src, dst, weights) arrays"
        )
    src = _parse_vertex_array(src, n, "insert sources")
    dst = _parse_vertex_array(dst, n, "insert destinations")
    if src.shape != dst.shape:
        raise GraphError(
            f"insert src/dst length mismatch: {src.shape[0]} vs {dst.shape[0]}"
        )
    if weights is None:
        vals = np.ones(src.shape[0], dtype=dtype)
    else:
        weights = np.atleast_1d(np.asarray(weights))
        if weights.shape != src.shape:
            raise GraphError(
                f"insert weights length {weights.shape[0]} != edges "
                f"{src.shape[0]}"
            )
        if np.can_cast(weights.dtype, dtype, casting="same_kind"):
            vals = weights.astype(dtype, copy=False)
        else:
            # JSON clients send every number as float; accept a
            # narrowing cast when it is value-exact (2.0 into an int64
            # unweighted base), reject anything lossy (2.5).
            vals = weights.astype(dtype)
            if not np.array_equal(vals, weights):
                raise GraphError(
                    f"insert weights dtype {weights.dtype} does not cast "
                    f"losslessly to the base value dtype {dtype}; rebuild "
                    f"the base with the wider dtype"
                )
    return src, dst, vals


def _parse_deletes(deletes, n: int) -> tuple[np.ndarray, np.ndarray]:
    if deletes is None:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    if len(deletes) != 2:
        raise GraphError("deletes must be (src, dst) arrays")
    src = _parse_vertex_array(deletes[0], n, "delete sources")
    dst = _parse_vertex_array(deletes[1], n, "delete destinations")
    if src.shape != dst.shape:
        raise GraphError(
            f"delete src/dst length mismatch: {src.shape[0]} vs {dst.shape[0]}"
        )
    return src, dst
