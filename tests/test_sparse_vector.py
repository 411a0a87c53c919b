"""Tests for both sparse vector representations (paper section 4.4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.vector.sparse_vector import (
    FLOAT64,
    INT64,
    OBJECT,
    BitvectorVector,
    SortedTuplesVector,
    ValueSpec,
    make_sparse_vector,
)

REPRS = [BitvectorVector, SortedTuplesVector]


class TestValueSpec:
    def test_scalar_spec(self):
        assert FLOAT64.is_scalar
        assert FLOAT64.allocate(3).shape == (3,)

    def test_vector_spec(self):
        spec = ValueSpec(np.float64, (4,))
        assert not spec.is_scalar
        assert spec.allocate(2).shape == (2, 4)

    def test_object_spec(self):
        arr = OBJECT.allocate(3)
        assert arr.dtype == object

    def test_bad_shape_raises(self):
        with pytest.raises(ShapeError):
            ValueSpec(np.float64, (0,))


@pytest.mark.parametrize("cls", REPRS)
class TestCommonBehaviour:
    def test_empty(self, cls):
        v = cls(10)
        assert v.nnz == 0
        assert len(v) == 10
        assert v.indices().size == 0

    def test_set_get(self, cls):
        v = cls(10)
        v.set(3, 1.5)
        assert v.get(3) == 1.5
        assert 3 in v
        assert 4 not in v
        assert v.nnz == 1

    def test_get_invalid_raises_keyerror(self, cls):
        v = cls(10)
        with pytest.raises(KeyError):
            v.get(5)

    def test_out_of_range_raises(self, cls):
        v = cls(10)
        with pytest.raises(IndexError):
            v.set(10, 1.0)
        with pytest.raises(IndexError):
            v.get(-1)

    def test_overwrite(self, cls):
        v = cls(5)
        v.set(2, 1.0)
        v.set(2, 9.0)
        assert v.get(2) == 9.0
        assert v.nnz == 1

    def test_indices_sorted(self, cls):
        v = cls(20)
        for i in (7, 1, 13, 4):
            v.set(i, float(i))
        assert v.indices().tolist() == [1, 4, 7, 13]

    def test_gather_in_order(self, cls):
        v = cls(20)
        for i in (7, 1, 13):
            v.set(i, float(i) * 2)
        got = v.gather(np.array([13, 1]))
        assert got.tolist() == [26.0, 2.0]

    def test_scatter(self, cls):
        v = cls(10)
        v.scatter(np.array([2, 5]), np.array([1.0, 2.0]))
        assert v.get(5) == 2.0
        assert v.nnz == 2

    def test_scatter_empty(self, cls):
        v = cls(10)
        v.scatter(np.array([], dtype=np.int64), np.array([]))
        assert v.nnz == 0

    def test_clear(self, cls):
        v = cls(10)
        v.set(1, 1.0)
        v.clear()
        assert v.nnz == 0
        assert 1 not in v

    def test_items(self, cls):
        v = cls(10)
        v.set(4, 8.0)
        v.set(2, 5.0)
        assert list(v.items()) == [(2, 5.0), (4, 8.0)]

    def test_to_dense(self, cls):
        v = cls(4)
        v.set(1, 3.0)
        dense = v.to_dense(fill=np.inf)
        assert dense[1] == 3.0
        assert np.isinf(dense[0])

    def test_vector_valued_entries(self, cls):
        spec = ValueSpec(np.float64, (3,))
        v = cls(5, spec)
        v.set(2, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(v.get(2), [1.0, 2.0, 3.0])

    def test_negative_length_raises(self, cls):
        with pytest.raises(ShapeError):
            cls(-1)

    def test_repr(self, cls):
        assert "length=7" in repr(cls(7))


class TestObjectEntries:
    @pytest.mark.parametrize("cls", REPRS)
    def test_object_values(self, cls):
        v = cls(5, OBJECT)
        v.set(1, [10, 20])
        assert v.get(1) == [10, 20]


class TestBitvectorSpecific:
    def test_valid_mask_matches_indices(self):
        v = BitvectorVector(10)
        v.set(3, 1.0)
        mask = v.valid_mask()
        assert mask[3] and mask.sum() == 1

    def test_values_array_full_length(self):
        v = BitvectorVector(10)
        assert v.values.shape == (10,)


class TestSortedTuplesSpecific:
    def test_out_of_order_inserts_resort(self):
        v = SortedTuplesVector(10, INT64)
        v.set(9, 9)
        v.set(1, 1)
        v.set(5, 5)
        assert v.indices().tolist() == [1, 5, 9]

    def test_gather_missing_raises(self):
        v = SortedTuplesVector(10)
        v.set(1, 1.0)
        with pytest.raises(KeyError):
            v.gather(np.array([2]))


def test_factory_selects_representation():
    assert isinstance(make_sparse_vector(5, use_bitvector=True), BitvectorVector)
    assert isinstance(
        make_sparse_vector(5, use_bitvector=False), SortedTuplesVector
    )


@given(
    length=st.integers(1, 200),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_representations_equivalent(length, data):
    """Both representations implement identical observable behaviour."""
    ops = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, length - 1),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=50,
        )
    )
    a = BitvectorVector(length)
    b = SortedTuplesVector(length)
    for i, val in ops:
        a.set(i, val)
        b.set(i, val)
    assert a.nnz == b.nnz
    assert np.array_equal(a.indices(), b.indices())
    idx = a.indices()
    assert np.allclose(a.gather(idx), b.gather(idx))
