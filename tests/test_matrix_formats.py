"""COO / CSR structural tests and cross-format equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError, ShapeError
from repro.matrix.coo import COOMatrix
from repro.matrix.csr import CSRMatrix
from tests.matrix_helpers import col_nnz, dense_from, matrices_equal, row_nnz


def small_coo():
    return COOMatrix(
        (4, 4),
        np.array([0, 0, 1, 2, 3]),
        np.array([1, 2, 2, 3, 0]),
        np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
    )


class TestCOO:
    def test_nnz_and_shape(self):
        coo = small_coo()
        assert coo.nnz == 5
        assert coo.shape == (4, 4)

    def test_unweighted_defaults_to_ones(self):
        coo = COOMatrix((2, 2), np.array([0]), np.array([1]))
        assert coo.vals.tolist() == [1]

    def test_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            COOMatrix((2, 2), np.array([2]), np.array([0]))
        with pytest.raises(FormatError):
            COOMatrix((2, 2), np.array([0]), np.array([-1]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ShapeError):
            COOMatrix((2, 2), np.array([0]), np.array([0, 1]))
        with pytest.raises(ShapeError):
            COOMatrix((2, 2), np.array([0]), np.array([0]), np.array([1.0, 2.0]))

    def test_transpose_swaps(self):
        t = small_coo().transpose()
        assert t.shape == (4, 4)
        assert matrices_equal(t.transpose(), small_coo())

    def test_dedup_last(self):
        coo = COOMatrix(
            (2, 2), np.array([0, 0]), np.array([1, 1]), np.array([1.0, 9.0])
        )
        assert coo.deduplicated("last").vals.tolist() == [9.0]

    def test_dedup_sum_min_max(self):
        coo = COOMatrix(
            (2, 2), np.array([0, 0]), np.array([1, 1]), np.array([2.0, 5.0])
        )
        assert coo.deduplicated("sum").vals.tolist() == [7.0]
        assert coo.deduplicated("min").vals.tolist() == [2.0]
        assert coo.deduplicated("max").vals.tolist() == [5.0]

    def test_dedup_unknown_policy(self):
        with pytest.raises(ValueError):
            small_coo().deduplicated("median")

    def test_without_self_loops(self):
        coo = COOMatrix((3, 3), np.array([0, 1]), np.array([0, 2]))
        cleaned = coo.without_self_loops()
        assert cleaned.nnz == 1
        assert cleaned.rows.tolist() == [1]

    def test_symmetrized(self):
        coo = COOMatrix((3, 3), np.array([0]), np.array([1]), np.array([4.0]))
        sym = coo.symmetrized()
        dense = dense_from(sym)
        assert dense[0, 1] == 4.0 and dense[1, 0] == 4.0

    def test_symmetrize_requires_square(self):
        with pytest.raises(ShapeError):
            COOMatrix((2, 3), np.array([0]), np.array([1])).symmetrized()

    def test_upper_triangle(self):
        sym = small_coo().symmetrized()
        upper = sym.upper_triangle()
        assert np.all(upper.rows < upper.cols)

    def test_sorted_by(self):
        coo = small_coo().sorted_by("col-major")
        keys = coo.cols * 10 + coo.rows
        assert np.all(np.diff(keys) >= 0)
        with pytest.raises(ValueError):
            small_coo().sorted_by("diagonal")

    def test_select_shape_mismatch(self):
        with pytest.raises(ShapeError):
            small_coo().select(np.array([True]))

    def test_scipy_roundtrip(self):
        coo = small_coo()
        back = COOMatrix.from_scipy(coo.to_scipy())
        assert matrices_equal(coo, back)

    def test_equality(self):
        assert small_coo() == small_coo()
        other = COOMatrix((4, 4), np.array([0]), np.array([1]))
        assert small_coo() != other

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(small_coo())


class TestCSR:
    def test_from_coo_rows(self):
        csr = CSRMatrix.from_coo(small_coo())
        cols, vals = csr.row(0)
        assert cols.tolist() == [1, 2]
        assert vals.tolist() == [1.0, 2.0]
        assert csr.row_degree(0) == 2

    def test_degrees(self):
        csr = CSRMatrix.from_coo(small_coo())
        assert csr.degrees().tolist() == [2, 1, 1, 1]

    def test_row_out_of_range(self):
        csr = CSRMatrix.from_coo(small_coo())
        with pytest.raises(IndexError):
            csr.row(4)

    def test_roundtrip(self):
        csr = CSRMatrix.from_coo(small_coo())
        assert matrices_equal(csr.to_coo(), small_coo())

    def test_rows_sorted(self):
        csr = CSRMatrix.from_coo(small_coo())
        assert csr.rows_sorted()

    def test_validate_bad_indptr(self):
        with pytest.raises(FormatError):
            CSRMatrix(
                (2, 2),
                np.array([0, 2, 1]),
                np.array([0, 1]),
                np.array([1.0, 1.0]),
            )

    def test_validate_bad_lengths(self):
        with pytest.raises(FormatError):
            CSRMatrix(
                (2, 2), np.array([0, 1, 2]), np.array([0]), np.array([1.0])
            )

    def test_validate_bad_column(self):
        with pytest.raises(FormatError):
            CSRMatrix(
                (2, 2),
                np.array([0, 1, 2]),
                np.array([0, 5]),
                np.array([1.0, 1.0]),
            )


class TestOps:
    def test_row_col_nnz(self):
        coo = small_coo()
        assert row_nnz(coo).tolist() == [2, 1, 1, 1]
        assert col_nnz(coo).tolist() == [1, 1, 2, 1]

    def test_dense_from(self):
        dense = dense_from(small_coo())
        assert dense[0, 1] == 1.0 and dense[3, 0] == 5.0


@st.composite
def coo_matrices(draw, max_dim=12, max_nnz=40):
    n_rows = draw(st.integers(1, max_dim))
    n_cols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(
        st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=nnz, max_size=nnz
        )
    )
    return COOMatrix(
        (n_rows, n_cols),
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals),
    )


@given(coo=coo_matrices())
@settings(max_examples=60, deadline=None)
def test_csr_roundtrip_preserves_matrix(coo):
    deduped = coo.deduplicated("last")
    csr = CSRMatrix.from_coo(deduped)
    assert matrices_equal(csr.to_coo(), deduped)
    assert np.allclose(dense_from(csr), dense_from(deduped))


@given(coo=coo_matrices())
@settings(max_examples=40, deadline=None)
def test_dedup_sum_matches_scipy(coo):
    ours = dense_from(coo.deduplicated("sum"))
    theirs = coo.to_scipy().toarray()
    assert np.allclose(ours, theirs)


@given(coo=coo_matrices())
@settings(max_examples=40, deadline=None)
def test_transpose_involution(coo):
    assert matrices_equal(coo.transpose().transpose(), coo)
