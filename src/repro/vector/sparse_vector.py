"""Sparse vector representations from GraphMat section 4.4.2.

The paper considers two ways of storing the sparse message/result vectors
that flow through the generalized SpMV:

1. :class:`SortedTuplesVector` — "a variable sized array of sorted
   (index, value) tuples".
2. :class:`BitvectorVector` — "a bitvector for storing valid indices and a
   constant (number of vertices) sized array with values stored only at the
   valid indices".

The paper finds option 2 faster everywhere and uses it exclusively; we keep
both so the Figure 7 ablation (naive vs +bitvector) can be reproduced.

Values may be scalars, fixed-width numeric vectors (collaborative filtering
stores a latent-feature vector per vertex) or arbitrary Python objects
(triangle counting stores neighbor lists).  The shape/dtype of an entry is
described by :class:`ValueSpec`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeError


@dataclass(frozen=True)
class ValueSpec:
    """Describes the dtype and per-entry shape of vector values.

    ``shape == ()`` means scalar entries; ``shape == (k,)`` means each entry
    is a length-``k`` numeric vector; ``dtype == object`` means entries are
    arbitrary Python objects (stored in an object array).
    """

    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))
    shape: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if any(int(s) <= 0 for s in self.shape):
            raise ShapeError(f"entry shape must be positive, got {self.shape}")
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))

    @property
    def is_scalar(self) -> bool:
        return self.shape == ()

    def allocate(self, length: int) -> np.ndarray:
        """Allocate a value array holding ``length`` entries of this spec."""
        return np.zeros((length, *self.shape), dtype=self.dtype)


FLOAT64 = ValueSpec(np.dtype(np.float64))
INT64 = ValueSpec(np.dtype(np.int64))
OBJECT = ValueSpec(np.dtype(object))


class SparseVector:
    """Common interface for the two sparse vector representations.

    A sparse vector has a fixed ``length`` (number of vertices) and stores a
    value for each *valid* index.  Subclasses differ only in how validity is
    tracked and how lookups behave; the engine treats them uniformly.
    """

    length: int
    spec: ValueSpec

    # -- single-entry API (scalar engine path) --------------------------
    def get(self, i: int):
        """Value at index ``i``; raises ``KeyError`` if invalid."""
        raise NotImplementedError

    def set(self, i: int, value) -> None:
        """Set index ``i`` to ``value``, marking it valid."""
        raise NotImplementedError

    def __contains__(self, i: int) -> bool:
        raise NotImplementedError

    # -- bulk API (fused engine path) -----------------------------------
    @property
    def nnz(self) -> int:
        """Number of valid entries."""
        raise NotImplementedError

    def indices(self) -> np.ndarray:
        """Sorted int64 array of valid indices."""
        raise NotImplementedError

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """Values at the (valid) indices ``idx``, in the given order."""
        raise NotImplementedError

    def scatter(self, idx: np.ndarray, values: np.ndarray) -> None:
        """Set ``idx[k] -> values[k]`` for all k, marking indices valid."""
        raise NotImplementedError

    def clear(self) -> None:
        """Invalidate every entry."""
        raise NotImplementedError

    # -- shared conveniences ---------------------------------------------
    def items(self) -> Iterator[tuple[int, object]]:
        """Iterate ``(index, value)`` pairs in increasing index order."""
        idx = self.indices()
        vals = self.gather(idx)
        for k in range(idx.shape[0]):
            yield int(idx[k]), vals[k]

    def to_dense(self, fill) -> np.ndarray:
        """Densify, writing ``fill`` at invalid positions."""
        out = self.spec.allocate(self.length)
        out[...] = fill
        idx = self.indices()
        if idx.size:
            out[idx] = self.gather(idx)
        return out

    def _check_index(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"index {i} out of range [0, {self.length})")
        return int(i)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(length={self.length}, nnz={self.nnz}, "
            f"spec={self.spec!r})"
        )


class BitvectorVector(SparseVector):
    """Option 2: validity bitvector + constant-size value array.

    Membership tests are O(1) probes; the value array is allocated once per
    vector and reused across supersteps.  This is the representation the
    paper's optimized engine uses (section 4.4.2): the validity structure is
    compact, cache-resident and shareable across threads.

    Implementation note: validity is stored as a numpy ``bool`` array (one
    byte per entry) rather than packed bits — in numpy, boolean masks are
    the fast word-parallel analogue of the paper's packed bits, while
    per-word bit twiddling would put Python dispatch on the hot path.
    """

    def __init__(self, length: int, spec: ValueSpec = FLOAT64) -> None:
        if length < 0:
            raise ShapeError(f"vector length must be >= 0, got {length}")
        self.length = int(length)
        self.spec = spec
        self._valid = np.zeros(self.length, dtype=bool)
        self._values = spec.allocate(self.length)

    @property
    def values(self) -> np.ndarray:
        """The backing value array (full length; only valid slots are live)."""
        return self._values

    def get(self, i: int):
        i = self._check_index(i)
        if not self._valid[i]:
            raise KeyError(i)
        return self._values[i]

    def set(self, i: int, value) -> None:
        i = self._check_index(i)
        self._values[i] = value
        self._valid[i] = True

    def __contains__(self, i: int) -> bool:
        return 0 <= int(i) < self.length and bool(self._valid[int(i)])

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._valid))

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self._valid).astype(np.int64)

    def gather(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        return self._values[idx]

    def scatter(self, idx: np.ndarray, values: np.ndarray) -> None:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return
        self._values[idx] = values
        self._valid[idx] = True

    def clear(self) -> None:
        self._valid[:] = False

    def valid_mask(self) -> np.ndarray:
        """Boolean validity mask of shape ``(length,)`` (do not mutate)."""
        return self._valid


class SortedTuplesVector(SparseVector):
    """Option 1: growable array of sorted ``(index, value)`` tuples.

    Kept for the ablation study.  Membership is a binary search; inserting a
    new index invalidates sortedness and triggers a re-sort on the next
    ordered access.  This models the paper's rejected representation, whose
    lookup cost inside the SpMV inner loop (Algorithm 1 line 4) is what the
    bitvector optimization removes.
    """

    def __init__(self, length: int, spec: ValueSpec = FLOAT64) -> None:
        if length < 0:
            raise ShapeError(f"vector length must be >= 0, got {length}")
        self.length = int(length)
        self.spec = spec
        self._idx: list[int] = []
        self._vals: list[object] = []
        self._sorted = True

    def _ensure_sorted(self) -> None:
        if self._sorted:
            return
        order = np.argsort(np.asarray(self._idx, dtype=np.int64), kind="stable")
        # Later writes win: keep the *last* occurrence of each index.
        idx_sorted = [self._idx[k] for k in order]
        vals_sorted = [self._vals[k] for k in order]
        dedup_idx: list[int] = []
        dedup_vals: list[object] = []
        for pos in range(len(idx_sorted)):
            if dedup_idx and dedup_idx[-1] == idx_sorted[pos]:
                dedup_vals[-1] = vals_sorted[pos]
            else:
                dedup_idx.append(idx_sorted[pos])
                dedup_vals.append(vals_sorted[pos])
        self._idx = dedup_idx
        self._vals = dedup_vals
        self._sorted = True

    def _find(self, i: int) -> int:
        """Position of index ``i`` in the sorted arrays, or -1."""
        self._ensure_sorted()
        if not self._idx:
            return -1
        pos = int(np.searchsorted(np.asarray(self._idx, dtype=np.int64), i))
        if pos < len(self._idx) and self._idx[pos] == i:
            return pos
        return -1

    def get(self, i: int):
        i = self._check_index(i)
        pos = self._find(i)
        if pos < 0:
            raise KeyError(i)
        return self._vals[pos]

    def set(self, i: int, value) -> None:
        i = self._check_index(i)
        pos = self._find(i)
        if pos >= 0:
            self._vals[pos] = value
        else:
            self._idx.append(i)
            self._vals.append(value)
            if len(self._idx) >= 2 and self._idx[-2] > i:
                self._sorted = False

    def __contains__(self, i: int) -> bool:
        if not 0 <= int(i) < self.length:
            return False
        return self._find(int(i)) >= 0

    @property
    def nnz(self) -> int:
        self._ensure_sorted()
        return len(self._idx)

    def indices(self) -> np.ndarray:
        self._ensure_sorted()
        return np.asarray(self._idx, dtype=np.int64)

    def gather(self, idx: np.ndarray) -> np.ndarray:
        self._ensure_sorted()
        idx = np.asarray(idx, dtype=np.int64)
        out = self.spec.allocate(idx.shape[0])
        sorted_idx = np.asarray(self._idx, dtype=np.int64)
        pos = np.searchsorted(sorted_idx, idx)
        for k in range(idx.shape[0]):
            p = int(pos[k])
            if p >= len(self._idx) or self._idx[p] != int(idx[k]):
                raise KeyError(int(idx[k]))
            out[k] = self._vals[p]
        return out

    def scatter(self, idx: np.ndarray, values: np.ndarray) -> None:
        idx = np.asarray(idx, dtype=np.int64)
        for k in range(idx.shape[0]):
            self.set(int(idx[k]), values[k])

    def clear(self) -> None:
        self._idx = []
        self._vals = []
        self._sorted = True


def make_sparse_vector(
    length: int, spec: ValueSpec = FLOAT64, *, use_bitvector: bool = True
) -> SparseVector:
    """Factory selecting the representation per the engine options."""
    if use_bitvector:
        return BitvectorVector(length, spec)
    return SortedTuplesVector(length, spec)
