"""DCSC format tests: invariants, conversions, caches (paper section 4.4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.matrix.coo import COOMatrix
from repro.matrix.dcsc import DCSCMatrix
from tests.matrix_helpers import dense_from, matrices_equal

from tests.test_matrix_formats import coo_matrices, small_coo


class TestConstruction:
    def test_from_coo_compresses_empty_columns(self):
        coo = COOMatrix(
            (6, 6), np.array([0, 1]), np.array([0, 5]), np.array([1.0, 2.0])
        )
        dcsc = DCSCMatrix.from_coo(coo)
        assert dcsc.nzc == 2
        assert dcsc.jc.tolist() == [0, 5]
        assert dcsc.nnz == 2

    def test_empty_matrix(self):
        dcsc = DCSCMatrix.from_coo(
            COOMatrix((4, 4), np.zeros(0, np.int64), np.zeros(0, np.int64))
        )
        assert dcsc.nzc == 0
        assert dcsc.nnz == 0
        assert list(dcsc.columns()) == []

    def test_row_range_restriction(self):
        coo = small_coo()
        block = DCSCMatrix.from_coo(coo, row_range=(0, 2))
        assert block.nnz == 3  # rows 0 and 1 hold 3 entries
        assert block.row_range == (0, 2)
        assert block.ir.max() < 2

    def test_roundtrip(self):
        dcsc = DCSCMatrix.from_coo(small_coo())
        assert matrices_equal(dcsc.to_coo(), small_coo())

    def test_to_scipy_matches_dense(self):
        dcsc = DCSCMatrix.from_coo(small_coo())
        assert np.allclose(dcsc.to_scipy().toarray(), dense_from(small_coo()))


class TestValidation:
    def test_unsorted_jc_rejected(self):
        with pytest.raises(FormatError):
            DCSCMatrix(
                (3, 3),
                jc=np.array([2, 1]),
                cp=np.array([0, 1, 2]),
                ir=np.array([0, 0]),
                num=np.array([1.0, 1.0]),
            )

    def test_empty_listed_column_rejected(self):
        with pytest.raises(FormatError):
            DCSCMatrix(
                (3, 3),
                jc=np.array([0, 1]),
                cp=np.array([0, 1, 1]),  # column 1 listed but empty
                ir=np.array([0]),
                num=np.array([1.0]),
            )

    def test_cp_jc_length_mismatch(self):
        with pytest.raises(FormatError):
            DCSCMatrix(
                (3, 3),
                jc=np.array([0]),
                cp=np.array([0, 1, 2]),
                ir=np.array([0, 1]),
                num=np.array([1.0, 1.0]),
            )

    def test_rows_outside_row_range_rejected(self):
        with pytest.raises(FormatError):
            DCSCMatrix(
                (4, 4),
                jc=np.array([0]),
                cp=np.array([0, 1]),
                ir=np.array([3]),
                num=np.array([1.0]),
                row_range=(0, 2),
            )


class TestAccess:
    def test_column_lookup(self):
        dcsc = DCSCMatrix.from_coo(small_coo())
        rows, vals = dcsc.column(2)
        assert rows.tolist() == [0, 1]
        assert vals.tolist() == [2.0, 3.0]

    def test_missing_column_is_empty(self):
        coo = COOMatrix((4, 4), np.array([0]), np.array([1]))
        dcsc = DCSCMatrix.from_coo(coo)
        rows, vals = dcsc.column(3)
        assert rows.size == 0 and vals.size == 0
        assert dcsc.column_position(3) == -1

    def test_columns_iteration_matches_nnz(self):
        dcsc = DCSCMatrix.from_coo(small_coo())
        seen = sum(rows.shape[0] for _, rows, _ in dcsc.columns())
        assert seen == dcsc.nnz

    def test_column_degrees(self):
        dcsc = DCSCMatrix.from_coo(small_coo())
        assert dcsc.column_degrees().sum() == dcsc.nnz

    def test_restrict_columns(self):
        dcsc = DCSCMatrix.from_coo(small_coo())
        mask = np.zeros(4, dtype=bool)
        mask[2] = True
        restricted = dcsc.restrict_columns(mask)
        assert restricted.jc.tolist() == [2]
        assert restricted.nnz == 2

    def test_restrict_columns_empty_result(self):
        dcsc = DCSCMatrix.from_coo(small_coo())
        restricted = dcsc.restrict_columns(np.zeros(4, dtype=bool))
        assert restricted.nnz == 0
        assert restricted.nzc == 0


class TestCaches:
    def test_col_expanded_aligns_with_ir(self):
        dcsc = DCSCMatrix.from_coo(small_coo())
        cols = dcsc.col_expanded()
        assert cols.shape[0] == dcsc.nnz
        # Entry k lives in column cols[k]: verify against scipy.
        dense = dense_from(small_coo())
        for k in range(dcsc.nnz):
            assert dense[dcsc.ir[k], cols[k]] == dcsc.num[k]

    def test_dst_groups_cover_all_edges(self):
        dcsc = DCSCMatrix.from_coo(small_coo())
        order, starts, uniq = dcsc.dst_groups()
        assert order.shape[0] == dcsc.nnz
        assert np.array_equal(np.sort(dcsc.ir), dcsc.ir[order])
        assert uniq.tolist() == sorted(set(dcsc.ir.tolist()))
        assert starts[0] == 0

    def test_dst_groups_cached(self):
        dcsc = DCSCMatrix.from_coo(small_coo())
        assert dcsc.dst_groups() is dcsc.dst_groups()


@given(coo=coo_matrices())
@settings(max_examples=60, deadline=None)
def test_dcsc_roundtrip_matches_scipy(coo):
    deduped = coo.deduplicated("last")
    dcsc = DCSCMatrix.from_coo(deduped)
    assert np.allclose(dcsc.to_scipy().toarray(), dense_from(deduped))
    # jc strictly increasing, cp strictly increasing
    assert np.all(np.diff(dcsc.jc) > 0)
    assert np.all(np.diff(dcsc.cp) > 0) or dcsc.nzc == 0


@given(coo=coo_matrices(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_dcsc_row_slices_partition_nnz(coo, data):
    """Row-range blocks partition the entries exactly."""
    deduped = coo.deduplicated("last")
    n_rows = deduped.shape[0]
    cut = data.draw(st.integers(0, n_rows))
    low = DCSCMatrix.from_coo(deduped, row_range=(0, cut))
    high = DCSCMatrix.from_coo(deduped, row_range=(cut, n_rows))
    assert low.nnz + high.nnz == deduped.nnz
