"""Structural helpers the matrix tests compare formats with."""

from __future__ import annotations

import numpy as np

from repro.matrix.coo import COOMatrix


def matrices_equal(a, b) -> bool:
    """Structural equality across any two matrix formats."""
    coo_a = a if isinstance(a, COOMatrix) else a.to_coo()
    coo_b = b if isinstance(b, COOMatrix) else b.to_coo()
    return coo_a == coo_b


def row_nnz(coo: COOMatrix) -> np.ndarray:
    """Per-row non-zero counts of a COO matrix."""
    counts = np.zeros(coo.shape[0], dtype=np.int64)
    np.add.at(counts, coo.rows, 1)
    return counts


def col_nnz(coo: COOMatrix) -> np.ndarray:
    """Per-column non-zero counts of a COO matrix."""
    counts = np.zeros(coo.shape[1], dtype=np.int64)
    np.add.at(counts, coo.cols, 1)
    return counts


def dense_from(matrix) -> np.ndarray:
    """Densify any matrix format into a float64 numpy array."""
    coo = matrix if isinstance(matrix, COOMatrix) else matrix.to_coo()
    out = np.zeros(coo.shape, dtype=np.float64)
    # Later duplicates overwrite earlier ones, matching dedup policy "last"
    # after a stable col-major sort.
    ordered = coo.deduplicated("last")
    out[ordered.rows, ordered.cols] = ordered.vals.astype(np.float64)
    return out
