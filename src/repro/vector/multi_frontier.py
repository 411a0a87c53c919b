"""K-lane sparse frontier: one validity/value block serving K queries.

The GraphBLAS position paper generalizes the SpMV vector to a
*multi-vector* so one pass over the matrix serves many simultaneous
queries (SpMM).  :class:`MultiFrontier` is that multi-vector for the
GraphMat engine: ``K`` independent frontiers (lanes) over the same
vertex set, stored **lane-major** as

- ``values`` — a dense ``(K, length, *entry_shape)`` block; each lane's
  vector is contiguous, so per-lane engine phases work on plain views
  and the SpMM kernels' segmented reductions run their inner loops over
  contiguous memory (measurably faster than the vertex-major layout's
  strided segments), and
- ``valid``  — a ``(K, length)`` boolean mask marking which lanes hold a
  live entry at each vertex (the K-lane analogue of the paper's
  bitvector representation, section 4.4.2).

Lanes are completely independent: lane ``k`` of a K-lane run carries
exactly the state a one-lane run of query ``k`` would hold.

A frontier may carry an *identity fill*: invalid slots then always hold
the program's reduce identity (``inf`` for min-plus, ``0.0`` for sums),
maintained by :meth:`clear`/:meth:`set_from_mask`.  The batched SpMM
kernels rely on this invariant — a gather through such a frontier yields
identity messages for silent lanes *by construction*, so the kernels
never materialize a ``(K, edges)`` sent-mask or run a masking pass.

Only fixed-width numeric value specs are supported — the batched engine
exists to amortize edge sweeps over vectorized lane arithmetic, which
object entries cannot join.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.vector.sparse_vector import FLOAT64, ValueSpec


class MultiFrontier:
    """K independent sparse frontiers over one vertex set (lane-major)."""

    def __init__(
        self,
        length: int,
        n_lanes: int,
        spec: ValueSpec = FLOAT64,
        *,
        fill=None,
    ) -> None:
        if length < 0:
            raise ShapeError(f"frontier length must be >= 0, got {length}")
        if n_lanes < 1:
            raise ShapeError(f"n_lanes must be >= 1, got {n_lanes}")
        if spec.dtype == object:
            raise ShapeError(
                "MultiFrontier supports fixed-width numeric specs only; "
                "object-valued programs run on the generic kernel family"
            )
        self.length = int(length)
        self.n_lanes = int(n_lanes)
        self.spec = spec
        #: When not None, invalid slots are guaranteed to hold this value
        #: (the program's reduce identity); see the module docstring.
        self.fill = fill
        self._valid = np.zeros((self.n_lanes, self.length), dtype=bool)
        self._values = np.zeros(
            (self.n_lanes, self.length, *spec.shape), dtype=spec.dtype
        )
        if fill is not None:
            self._values[...] = fill

    # -- bulk views (what the SpMM kernels read) -------------------------
    @property
    def values(self) -> np.ndarray:
        """The backing ``(K, length, *entry_shape)`` value block."""
        return self._values

    def valid_mask(self) -> np.ndarray:
        """The ``(K, length)`` lane-validity mask (do not mutate)."""
        return self._valid

    def any_mask(self) -> np.ndarray:
        """Vertices valid in *at least one* lane, shape ``(length,)``.

        This is the column-activity signal of the batched SpMM: a column
        contributes to the shared edge sweep when any lane sends from it.
        """
        return self._valid.any(axis=0)

    # -- per-lane access (parity tests, the apply phase) -----------------
    def lane_indices(self, lane: int) -> np.ndarray:
        """Sorted valid indices of one lane."""
        return np.flatnonzero(self._valid[lane]).astype(np.int64)

    def lane_nnz(self) -> np.ndarray:
        """Number of valid entries per lane, shape ``(K,)``."""
        return self._valid.sum(axis=1)

    def scatter_lane(self, lane: int, idx: np.ndarray, values: np.ndarray) -> None:
        """Set ``idx[t] -> values[t]`` in one lane, marking entries valid."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return
        self._values[lane, idx] = values
        self._valid[lane, idx] = True

    def scatter_rows(self, idx: np.ndarray, values: np.ndarray) -> None:
        """Adopt ``(K, len(idx))`` columns wholesale, every lane valid.

        The fast merge path for block results where *every* lane
        received (full-coverage sweeps) — one fancy write, no masking.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return
        self._values[:, idx] = values
        self._valid[:, idx] = True

    def scatter_block(
        self, idx: np.ndarray, values: np.ndarray, mask: np.ndarray
    ) -> None:
        """Merge a ``(K, len(idx))`` block: slots where ``mask`` is True.

        Unmasked slots keep their current value and validity — this is
        the SpMM analogue of ``BitvectorVector.scatter`` for one block's
        destination-grouped reduction (``mask`` = which lanes actually
        received a message at each destination).
        """
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return
        lanes, cols = np.nonzero(mask)
        self._values[lanes, idx[cols]] = values[lanes, cols]
        self._valid[:, idx] |= mask

    def set_from_mask(self, mask: np.ndarray, values: np.ndarray) -> None:
        """Adopt full-width state: ``mask`` becomes the validity, masked
        slots take ``values``, unmasked slots keep the identity fill.

        The wide send path writes a whole superstep's K-lane messages
        this way — one ``copyto`` instead of K per-lane scatters.  Call
        only on a cleared frontier (the engine's reset guarantees it).
        """
        np.copyto(self._valid, mask)
        np.copyto(
            self._values,
            values,
            where=mask.reshape(mask.shape + (1,) * len(self.spec.shape)),
        )

    def clear(self) -> None:
        """Invalidate every lane of every vertex (no allocation).

        Frontiers with an identity ``fill`` also reset invalid slots'
        values to it — O(K * length) sequential writes, orders of
        magnitude cheaper than the per-edge masking it replaces.
        """
        self._valid[:] = False
        if self.fill is not None:
            self._values[...] = self.fill

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (
            f"MultiFrontier(length={self.length}, n_lanes={self.n_lanes}, "
            f"nnz={self._valid.sum()}, spec={self.spec!r})"
        )
