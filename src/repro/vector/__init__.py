"""Sparse/dense vector substrate (GraphMat section 4.4.2)."""

from repro.vector.dense import PropertyArray
from repro.vector.multi_frontier import MultiFrontier
from repro.vector.sparse_vector import (
    FLOAT64,
    INT64,
    OBJECT,
    BitvectorVector,
    SortedTuplesVector,
    SparseVector,
    ValueSpec,
    make_sparse_vector,
)

__all__ = [
    "PropertyArray",
    "SparseVector",
    "BitvectorVector",
    "MultiFrontier",
    "SortedTuplesVector",
    "ValueSpec",
    "make_sparse_vector",
    "FLOAT64",
    "INT64",
    "OBJECT",
]
