"""Sparse matrix substrate: COO, CSR, DCSC and the 1-D partitioner."""

from repro.matrix.coo import COOMatrix
from repro.matrix.csr import CSRMatrix
from repro.matrix.dcsc import DCSCMatrix, expand_spans
from repro.matrix.delta import (
    BlockDelta,
    dedup_last_by_key,
    encode_keys,
    merge_block,
    merge_sorted_unique,
    sorted_membership,
)
from repro.matrix.partition import PartitionedMatrix, row_ranges_equal_rows

__all__ = [
    "BlockDelta",
    "COOMatrix",
    "CSRMatrix",
    "DCSCMatrix",
    "PartitionedMatrix",
    "dedup_last_by_key",
    "encode_keys",
    "expand_spans",
    "merge_block",
    "merge_sorted_unique",
    "row_ranges_equal_rows",
    "sorted_membership",
]
