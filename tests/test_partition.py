"""1-D row partitioner tests (paper section 4.4.1 / 4.5 item 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.matrix.coo import COOMatrix
from tests.matrix_helpers import matrices_equal
from repro.matrix.partition import (
    PartitionedMatrix,
    row_ranges_equal_nnz,
    row_ranges_equal_rows,
)

from tests.test_matrix_formats import coo_matrices, small_coo


class TestRowRanges:
    def test_equal_rows_tiles(self):
        ranges = row_ranges_equal_rows(10, 3)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 10
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c

    def test_equal_rows_more_partitions_than_rows(self):
        ranges = row_ranges_equal_rows(2, 5)
        assert len(ranges) == 5
        assert ranges[-1][1] == 2

    def test_equal_rows_invalid(self):
        with pytest.raises(ShapeError):
            row_ranges_equal_rows(10, 0)

    def test_equal_nnz_balances_skew(self):
        # All nnz in the first row: the first partition should be tiny.
        row_counts = np.array([100, 1, 1, 1, 1, 1, 1, 1])
        ranges = row_ranges_equal_nnz(8, row_counts, 4)
        assert ranges[0][0] == 0 and ranges[-1][1] == 8
        loads = [row_counts[lo:hi].sum() for lo, hi in ranges]
        # The heavy row is isolated rather than grouped with everything.
        assert max(loads) <= 101

    def test_equal_nnz_length_mismatch(self):
        with pytest.raises(ShapeError):
            row_ranges_equal_nnz(3, np.array([1, 2]), 2)


class TestPartitionedMatrix:
    def test_from_coo_covers_all_entries(self):
        pm = PartitionedMatrix.from_coo(small_coo(), 3)
        assert pm.nnz == small_coo().nnz
        assert matrices_equal(pm.to_coo(), small_coo())

    def test_single_partition(self):
        pm = PartitionedMatrix.from_coo(small_coo(), 1)
        assert pm.n_partitions == 1
        assert pm.blocks[0].row_range == (0, 4)

    def test_partitions_clamped_to_rows(self):
        pm = PartitionedMatrix.from_coo(small_coo(), 100)
        assert pm.n_partitions <= 4

    def test_strategies(self):
        for strategy in ("rows", "nnz"):
            pm = PartitionedMatrix.from_coo(small_coo(), 2, strategy)
            assert pm.nnz == small_coo().nnz
        with pytest.raises(ValueError):
            PartitionedMatrix.from_coo(small_coo(), 2, "hash")

    def test_block_nnz_and_imbalance(self):
        pm = PartitionedMatrix.from_coo(small_coo(), 2)
        assert pm.block_nnz().sum() == pm.nnz
        assert pm.imbalance() >= 1.0

    def test_overlapping_blocks_rejected(self):
        coo = small_coo()
        from repro.matrix.dcsc import DCSCMatrix

        b1 = DCSCMatrix.from_coo(coo, row_range=(0, 3))
        b2 = DCSCMatrix.from_coo(coo, row_range=(2, 4))
        with pytest.raises(ShapeError):
            PartitionedMatrix((4, 4), [b1, b2])

    def test_incomplete_cover_rejected(self):
        coo = small_coo()
        from repro.matrix.dcsc import DCSCMatrix

        b1 = DCSCMatrix.from_coo(coo, row_range=(0, 3))
        with pytest.raises(ShapeError):
            PartitionedMatrix((4, 4), [b1])

    def test_nnz_strategy_beats_rows_on_skew(self):
        # Skewed matrix: all edges into the first row range.
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 8, size=400)  # rows 0-7 hot, 8-63 empty
        cols = rng.integers(0, 64, size=400)
        coo = COOMatrix((64, 64), rows, cols)
        by_rows = PartitionedMatrix.from_coo(coo, 8, "rows")
        by_nnz = PartitionedMatrix.from_coo(coo, 8, "nnz")
        assert by_nnz.imbalance() <= by_rows.imbalance()


@given(coo=coo_matrices(max_dim=20, max_nnz=80), n_parts=st.integers(1, 8))
@settings(max_examples=50, deadline=None)
def test_partitioning_conserves_matrix(coo, n_parts):
    deduped = coo.deduplicated("last")
    for strategy in ("rows", "nnz"):
        pm = PartitionedMatrix.from_coo(deduped, n_parts, strategy)
        assert pm.nnz == deduped.nnz
        assert matrices_equal(pm.to_coo(), deduped)
        # Row ranges tile [0, n_rows)
        assert pm.blocks[0].row_range[0] == 0
        assert pm.blocks[-1].row_range[1] == deduped.shape[0]
