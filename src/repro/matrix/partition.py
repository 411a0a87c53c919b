"""1-D row partitioning of sparse matrices into DCSC blocks.

GraphMat partitions the adjacency-matrix transpose "in a 1-D fashion (along
rows), and each partition is stored as an independent DCSC structure"
(section 4.4.1).  Rows are SpMV *outputs*, so partitions never write the
same output slot and can be processed by different threads without locks.

Rows are cut one way: into near-equal row ranges.  A skewed graph leaves
some blocks with far more edges than others; as in the paper (section 4.5
item 4), that is balanced by over-partitioning plus dynamic scheduling,
not by a second way of cutting rows.  A view is therefore determined by
its block count alone.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import ShapeError
from repro.matrix.coo import COOMatrix
from repro.matrix.dcsc import DCSCMatrix


def row_ranges_equal_rows(n_rows: int, n_partitions: int) -> list[tuple[int, int]]:
    """Split ``[0, n_rows)`` into ``n_partitions`` near-equal ranges."""
    if n_partitions <= 0:
        raise ShapeError(f"n_partitions must be positive, got {n_partitions}")
    bounds = np.linspace(0, n_rows, n_partitions + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(n_partitions)]


class PartitionedMatrix:
    """A matrix stored as 1-D row partitions, each an independent DCSC block."""

    def __init__(self, shape: tuple[int, int], blocks: list[DCSCMatrix]) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.blocks = list(blocks)
        #: Set by ``repro.store`` when the blocks are mmap views of a
        #: ``.gmsnap`` file (None for matrices partitioned in memory).
        self.snapshot_path: str | None = None
        self._validate_cover()

    def _validate_cover(self) -> None:
        """Blocks must tile ``[0, n_rows)`` contiguously without overlap."""
        expected_lo = 0
        for block in self.blocks:
            lo, hi = block.row_range
            if lo != expected_lo:
                raise ShapeError(
                    f"partition row ranges must tile contiguously; expected "
                    f"start {expected_lo}, got {lo}"
                )
            if block.shape != self.shape:
                raise ShapeError(
                    f"block shape {block.shape} != matrix shape {self.shape}"
                )
            expected_lo = hi
        if expected_lo != self.shape[0]:
            raise ShapeError(
                f"partitions cover rows [0, {expected_lo}), matrix has "
                f"{self.shape[0]} rows"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix, n_partitions: int) -> "PartitionedMatrix":
        """Partition ``coo`` into ``n_partitions`` DCSC row blocks."""
        n_rows = coo.shape[0]
        n_partitions = max(1, min(int(n_partitions), max(1, n_rows)))
        ranges = row_ranges_equal_rows(n_rows, n_partitions)
        # Sort entries once by row, then carve contiguous slices per range;
        # this keeps partitioning O(nnz log nnz) total instead of
        # O(nnz * n_partitions).
        order = np.argsort(coo.rows, kind="stable")
        rows = coo.rows[order]
        cols = coo.cols[order]
        vals = coo.vals[order]
        cut = np.searchsorted(rows, [hi for (_, hi) in ranges])
        blocks: list[DCSCMatrix] = []
        start = 0
        for k, row_range in enumerate(ranges):
            stop = int(cut[k])
            piece = COOMatrix(coo.shape, rows[start:stop], cols[start:stop], vals[start:stop])
            blocks.append(DCSCMatrix.from_coo(piece, row_range=row_range))
            start = stop
        return cls(coo.shape, blocks)

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return sum(block.nnz for block in self.blocks)

    @property
    def n_partitions(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[DCSCMatrix]:
        return iter(self.blocks)

    def block_nnz(self) -> np.ndarray:
        """Per-partition non-zero counts (the load-balance signal)."""
        return np.asarray([block.nnz for block in self.blocks], dtype=np.int64)

    def row_ranges(self) -> list[tuple[int, int]]:
        """The contiguous ``[lo, hi)`` row range of each partition."""
        return [block.row_range for block in self.blocks]

    def imbalance(self) -> float:
        """Max/mean nnz ratio across partitions (1.0 = perfectly balanced)."""
        counts = self.block_nnz()
        if counts.size == 0 or counts.sum() == 0:
            return 1.0
        return float(counts.max() / counts.mean())

    def to_coo(self) -> COOMatrix:
        rows = np.concatenate([b.ir for b in self.blocks]) if self.blocks else np.zeros(0, np.int64)
        cols_parts = [np.repeat(b.jc, np.diff(b.cp)) for b in self.blocks]
        cols = np.concatenate(cols_parts) if cols_parts else np.zeros(0, np.int64)
        vals_parts = [b.num for b in self.blocks]
        vals = np.concatenate(vals_parts) if vals_parts else np.zeros(0)
        return COOMatrix(self.shape, rows, cols, vals)

    def __repr__(self) -> str:
        return (
            f"PartitionedMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"partitions={self.n_partitions}, imbalance={self.imbalance():.2f})"
        )
