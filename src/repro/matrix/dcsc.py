"""Doubly Compressed Sparse Column matrix (Buluç & Gilbert).

DCSC is the storage format GraphMat uses for its 1-D row partitions
(section 4.4.1).  Where CSC keeps a pointer slot for *every* column, DCSC
keeps arrays only for the columns that actually contain non-zeros:

- ``jc``  — sorted indices of the non-empty columns,
- ``cp``  — column pointers into ``ir``/``num`` (length ``len(jc) + 1``),
- ``ir``  — row indices of the non-zeros, grouped by column,
- ``num`` — the non-zero values, aligned with ``ir``.

This matters for partitioned graphs: a row partition of a power-law graph
leaves most columns empty, and hypersparse blocks stored as CSC would waste
O(n) pointer space per partition (the motivation of [9]).  The optional
``aux`` index over ``jc`` described in the paper is intentionally not built,
matching the paper ("which we have not used").

Row indices stored in ``ir`` are *global* vertex ids; a partition block
additionally records its ``row_range`` so engines can validate writes.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import FormatError, ShapeError
from repro.matrix.coo import COOMatrix


def expand_spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices covering ``[starts[i], starts[i] + lengths[i])`` for all i.

    The concatenated per-span ``arange``\\ s, without a Python loop: the
    output position minus its span's offset, plus its span's start.
    Zero-length spans contribute nothing.  ``flat[expand_spans(...)]``
    concatenates slices of a CSR/DCSC value array.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.zeros(lengths.shape[0], dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, lengths)
        + np.repeat(starts, lengths)
    )


class DCSCMatrix:
    """Doubly compressed sparse column matrix block."""

    def __init__(
        self,
        shape: tuple[int, int],
        jc: np.ndarray,
        cp: np.ndarray,
        ir: np.ndarray,
        num: np.ndarray,
        row_range: tuple[int, int] | None = None,
        *,
        validate: bool = True,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.jc = np.ascontiguousarray(jc, dtype=np.int64)
        self.cp = np.ascontiguousarray(cp, dtype=np.int64)
        self.ir = np.ascontiguousarray(ir, dtype=np.int64)
        self.num = np.ascontiguousarray(num)
        if row_range is None:
            row_range = (0, self.shape[0])
        self.row_range = (int(row_range[0]), int(row_range[1]))
        self._dst_groups: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._col_expanded: np.ndarray | None = None
        self._dst_sorted_cols: np.ndarray | None = None
        self._dst_sorted_vals: np.ndarray | None = None
        if validate:
            # Trusted sources (checksummed snapshot loads) skip this
            # O(nnz) scan so a freshly mmapped block stays O(1) to open.
            self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the DCSC invariants; raise FormatError on violation."""
        n_rows, n_cols = self.shape
        if self.jc.ndim != 1 or self.cp.ndim != 1:
            raise FormatError("jc and cp must be 1-D")
        if self.cp.shape[0] != self.jc.shape[0] + 1:
            raise FormatError(
                f"cp length {self.cp.shape[0]} != len(jc)+1 = {self.jc.shape[0] + 1}"
            )
        if self.jc.size:
            if np.any(np.diff(self.jc) <= 0):
                raise FormatError("jc must be strictly increasing")
            if self.jc.min() < 0 or self.jc.max() >= n_cols:
                raise FormatError(
                    f"jc out of range [0, {n_cols}): [{self.jc.min()}, {self.jc.max()}]"
                )
        if self.cp.size and self.cp[0] != 0:
            raise FormatError(f"cp must start at 0, got {self.cp[0]}")
        if np.any(np.diff(self.cp) <= 0):
            # A column listed in jc must own at least one non-zero.
            raise FormatError("cp must be strictly increasing (no empty jc columns)")
        nnz = int(self.cp[-1]) if self.cp.size else 0
        if self.ir.shape[0] != nnz or self.num.shape[0] != nnz:
            raise FormatError(
                f"ir/num length ({self.ir.shape[0]}/{self.num.shape[0]}) != cp[-1] = {nnz}"
            )
        lo, hi = self.row_range
        if not 0 <= lo <= hi <= n_rows:
            raise FormatError(f"row_range {self.row_range} invalid for {n_rows} rows")
        if nnz and (self.ir.min() < lo or self.ir.max() >= hi):
            raise FormatError(
                f"row indices outside row_range {self.row_range}: "
                f"[{self.ir.min()}, {self.ir.max()}]"
            )

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.cp[-1]) if self.cp.size else 0

    @property
    def nzc(self) -> int:
        """Number of non-empty columns."""
        return int(self.jc.shape[0])

    @classmethod
    def from_coo(
        cls,
        coo: COOMatrix,
        row_range: tuple[int, int] | None = None,
    ) -> "DCSCMatrix":
        """Compress a COO matrix (or a row slice of one) into DCSC.

        ``row_range`` restricts the block to rows in ``[lo, hi)``; entries
        outside the range are dropped, which is how a 1-D partitioner carves
        blocks out of the full edge list.
        """
        rows, cols, vals = coo.rows, coo.cols, coo.vals
        if row_range is not None:
            lo, hi = int(row_range[0]), int(row_range[1])
            keep = (rows >= lo) & (rows < hi)
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        perm = np.lexsort((rows, cols))
        rows, cols, vals = rows[perm], cols[perm], vals[perm]
        if cols.size:
            boundary = np.empty(cols.shape[0], dtype=bool)
            boundary[0] = True
            boundary[1:] = cols[1:] != cols[:-1]
            starts = np.flatnonzero(boundary)
            jc = cols[starts]
            cp = np.concatenate([starts, [cols.shape[0]]]).astype(np.int64)
        else:
            jc = np.zeros(0, dtype=np.int64)
            cp = np.zeros(1, dtype=np.int64)
        return cls(coo.shape, jc, cp, rows, vals, row_range=row_range)

    @classmethod
    def from_sorted_arrays(
        cls,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        row_range: tuple[int, int] | None = None,
    ) -> "DCSCMatrix":
        """Compress entries already in canonical column-major order.

        The delta-merge path (:mod:`repro.matrix.delta`) produces entries
        sorted by ``(col, row)`` with unique coordinates; this constructor
        skips :meth:`from_coo`'s O(nnz log nnz) lexsort and derives
        ``jc``/``cp`` with one boundary scan.  Output is bitwise identical
        to ``from_coo`` over the same edge set.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        if cols.size:
            boundary = np.empty(cols.shape[0], dtype=bool)
            boundary[0] = True
            boundary[1:] = cols[1:] != cols[:-1]
            starts = np.flatnonzero(boundary)
            jc = cols[starts]
            cp = np.concatenate([starts, [cols.shape[0]]]).astype(np.int64)
        else:
            jc = np.zeros(0, dtype=np.int64)
            cp = np.zeros(1, dtype=np.int64)
        return cls(shape, jc, cp, rows, vals, row_range=row_range)

    def to_coo(self) -> COOMatrix:
        cols = np.repeat(self.jc, np.diff(self.cp))
        return COOMatrix(self.shape, self.ir.copy(), cols, self.num.copy())

    def to_scipy(self):
        return self.to_coo().to_scipy().tocsc()

    # ------------------------------------------------------------------
    def column_position(self, j: int) -> int:
        """Position of column ``j`` in ``jc``, or -1 if the column is empty."""
        pos = int(np.searchsorted(self.jc, j))
        if pos < self.jc.shape[0] and self.jc[pos] == j:
            return pos
        return -1

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """``(row_indices, values)`` of column ``j`` (empty arrays if empty)."""
        pos = self.column_position(j)
        if pos < 0:
            return self.ir[:0], self.num[:0]
        lo, hi = int(self.cp[pos]), int(self.cp[pos + 1])
        return self.ir[lo:hi], self.num[lo:hi]

    def columns(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Iterate non-empty columns as ``(j, row_indices, values)``.

        This is the outer loop of Algorithm 1 ("for j in GT.column_indices").
        """
        for pos in range(self.jc.shape[0]):
            lo, hi = int(self.cp[pos]), int(self.cp[pos + 1])
            yield int(self.jc[pos]), self.ir[lo:hi], self.num[lo:hi]

    def column_degrees(self) -> np.ndarray:
        """Non-zero counts for the non-empty columns (aligned with ``jc``)."""
        return np.diff(self.cp)

    def col_expanded(self) -> np.ndarray:
        """Cached per-edge column index (aligned with ``ir``/``num``)."""
        if self._col_expanded is None:
            self._col_expanded = np.repeat(self.jc, np.diff(self.cp))
        return self._col_expanded

    def dst_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached grouping of all non-zeros by destination row.

        Returns ``(order, group_starts, unique_rows)`` where ``order``
        permutes edge-aligned arrays into row-major order and
        ``group_starts`` marks each row's first position.  The matrix is
        static, so full-frontier SpMVs (PageRank, CF, the first BFS-level
        of dense frontiers) reuse this instead of re-sorting per superstep.
        """
        if self._dst_groups is None:
            order = np.argsort(self.ir, kind="stable")
            sorted_ir = self.ir[order]
            if sorted_ir.shape[0]:
                boundary = np.empty(sorted_ir.shape[0], dtype=bool)
                boundary[0] = True
                boundary[1:] = sorted_ir[1:] != sorted_ir[:-1]
                starts = np.flatnonzero(boundary)
                unique_rows = sorted_ir[starts]
            else:
                starts = np.zeros(0, dtype=np.int64)
                unique_rows = np.zeros(0, dtype=np.int64)
            self._dst_groups = (order, starts, unique_rows)
        return self._dst_groups

    def dst_sorted_cols(self) -> np.ndarray:
        """Cached per-edge source column in destination-row order.

        ``col_expanded()[order]`` for the :meth:`dst_groups` permutation:
        gathering frontier values through this index yields messages
        *already grouped by destination*, collapsing the dense kernels'
        gather-then-sort into one gather.  The batched SpMM kernels lean
        on it — with K lanes the fused gather saves a ``(K, edges)``
        intermediate per block per superstep.
        """
        if self._dst_sorted_cols is None:
            order, _, _ = self.dst_groups()
            self._dst_sorted_cols = self.col_expanded()[order]
        return self._dst_sorted_cols

    def dst_sorted_vals(self) -> np.ndarray:
        """Cached edge values in destination-row order (``num[order]``)."""
        if self._dst_sorted_vals is None:
            order, _, _ = self.dst_groups()
            self._dst_sorted_vals = self.num[order]
        return self._dst_sorted_vals

    def warm_caches(self) -> None:
        """Materialize the lazy per-block caches up front.

        The engine calls this when a fused run prepares its matrix
        views, so no superstep pays cache construction (the caches are what the
        fused dense/full kernels reuse every superstep).  Snapshot loads
        may have installed mmap-backed caches already
        (:meth:`install_caches`), in which case this is a no-op.
        """
        self.col_expanded()
        self.dst_groups()

    def warm_batch_caches(self) -> None:
        """Materialize the caches the batched SpMM kernels read.

        Superset of :meth:`warm_caches`: the dense SpMM path gathers
        through the destination-sorted column/value arrays, so a lane
        run warms them with its views — no superstep pays cache
        construction.
        """
        self.warm_caches()
        self.dst_sorted_cols()
        self.dst_sorted_vals()

    def install_caches(
        self,
        col_expanded: np.ndarray,
        dst_groups: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """Adopt precomputed derived caches (snapshot loads, zero-copy)."""
        self._col_expanded = col_expanded
        self._dst_groups = dst_groups

    def restrict_columns(self, wanted_mask: np.ndarray) -> "DCSCMatrix":
        """Drop the non-empty columns where ``wanted_mask[j]`` is False.

        ``wanted_mask`` is a full-width boolean array over all columns; the
        result shares no storage with ``self``.
        """
        wanted_mask = np.asarray(wanted_mask, dtype=bool)
        if wanted_mask.shape[0] != self.shape[1]:
            raise ShapeError(
                f"mask length {wanted_mask.shape[0]} != n_cols {self.shape[1]}"
            )
        keep_positions = np.flatnonzero(wanted_mask[self.jc])
        if keep_positions.size == 0:
            return DCSCMatrix(
                self.shape,
                np.zeros(0, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                self.ir[:0].copy(),
                self.num[:0].copy(),
                row_range=self.row_range,
            )
        lengths = np.diff(self.cp)[keep_positions]
        spans = [
            np.arange(self.cp[p], self.cp[p + 1], dtype=np.int64)
            for p in keep_positions
        ]
        take = np.concatenate(spans)
        cp = np.zeros(keep_positions.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=cp[1:])
        return DCSCMatrix(
            self.shape,
            self.jc[keep_positions].copy(),
            cp,
            self.ir[take].copy(),
            self.num[take].copy(),
            row_range=self.row_range,
        )

    def __repr__(self) -> str:
        return (
            f"DCSCMatrix(shape={self.shape}, nnz={self.nnz}, nzc={self.nzc}, "
            f"row_range={self.row_range})"
        )
