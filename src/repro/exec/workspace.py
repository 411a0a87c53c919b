"""Persistent per-superstep buffers: the zero-allocation workspace.

A superstep needs a message vector ``x``, a result vector ``y`` and, per
block, edge-sized scratch arrays (span expansions, source columns,
gathered messages) whose shapes never change across supersteps.
:class:`SuperstepWorkspace` allocates them once — in
``graph_program_init`` when the caller keeps a workspace, or once per
run otherwise — and the engine resets them in place each iteration:

- the ``x`` and ``y`` vectors are cleared via their validity masks; the
  value arrays persist,
- each non-empty block gets the scratch of the kernel family the run
  uses (:func:`make_block_scratch`): :class:`BatchBlockScratch` for the
  K-lane kernel, :class:`BlockScratch` for the generic one; the kernels
  fill them with ``np.take(..., out=...)`` and in-place prefix sums,
- the blocks' lazy grouping caches are warmed up front so no superstep
  pays their construction cost.  Blocks loaded from a snapshot with
  embedded kernel caches
  (``repro.store.save_snapshot(include_caches=True)``) already carry
  them as mmap views, making the warm-up free as well.

Scratch buffers exist only for numeric value specs; object-valued
programs (triangle counting's neighbor lists) allocate per superstep.
"""

from __future__ import annotations

import numpy as np

from repro.vector.multi_frontier import MultiFrontier
from repro.vector.sparse_vector import make_sparse_vector


class BlockScratch:
    """Preallocated edge-capacity buffers for one DCSC block.

    Each buffer has capacity for the block's full nnz; kernels use the
    ``[:edges]`` prefix.  A buffer is ``None`` when its value spec is not a
    fixed-width numeric type (the kernels then allocate as before).
    """

    __slots__ = (
        "take",
        "src_cols",
        "edge_dst",
        "edge_vals",
        "messages",
        "dst_props",
        "sorted_results",
    )

    def __init__(self, block, program) -> None:
        n = block.nnz
        self.take = np.empty(n, dtype=np.int64)
        self.src_cols = np.empty(n, dtype=np.int64)
        self.edge_dst = np.empty(n, dtype=np.int64)
        self.edge_vals = (
            np.empty(n, dtype=block.num.dtype)
            if block.num.dtype != object
            else None
        )
        self.messages = _spec_buffer(n, program.message_spec)
        self.dst_props = _spec_buffer(n, program.property_spec)
        self.sorted_results = _spec_buffer(n, program.result_spec)

    @property
    def nbytes(self) -> int:
        """Resident bytes held by this scratch's buffers."""
        return sum(
            buffer.nbytes
            for buffer in (
                self.take,
                self.src_cols,
                self.edge_dst,
                self.edge_vals,
                self.messages,
                self.dst_props,
                self.sorted_results,
            )
            if buffer is not None
        )


def _spec_buffer(n: int, spec) -> np.ndarray | None:
    if spec.dtype == object:
        return None
    return np.empty((n, *spec.shape), dtype=spec.dtype)


class BatchBlockScratch:
    """Preallocated ``(K, edges)`` buffers for one block's SpMM kernel.

    The K-lane analogue of :class:`BlockScratch`: the span-expansion and
    index-composition buffers stay 1-D (the kernel sorts *indices*, not
    lane blocks), while the message / sent buffers grow a lane axis so
    the batched kernels gather their ``(K, edges)`` blocks with
    ``np.take(..., out=...)``.  Only built for numeric specs —
    :class:`~repro.vector.multi_frontier.MultiFrontier` already rejects
    object lanes.
    """

    __slots__ = (
        "take",
        "src_cols",
        "edge_dst",
        "sorted_idx",
        "edge_vals",
        "messages",
        "_sent",
        "_capacity",
        "_n_lanes",
    )

    def __init__(self, block, program, n_lanes: int) -> None:
        from repro.core.spmv import _batch_tile_edges

        n = block.nnz
        k = int(n_lanes)
        self.take = np.empty(n, dtype=np.int64)
        self.src_cols = np.empty(n, dtype=np.int64)
        self.edge_dst = np.empty(n, dtype=np.int64)
        self.sorted_idx = np.empty(n, dtype=np.int64)
        self.edge_vals = (
            np.empty(n, dtype=block.num.dtype)
            if block.num.dtype != object
            else None
        )
        # Lane-major flat buffers (``_gather_lanes`` carves contiguous
        # (K, m) views out of them): the tiled kernels only ever
        # materialize one cache-sized message block at a time.
        tile = min(n, _batch_tile_edges(k, program.message_spec.dtype.itemsize))
        self.messages = np.empty(k * tile, dtype=program.message_spec.dtype)
        self._sent = None
        self._capacity = n
        self._n_lanes = k

    @property
    def sent(self) -> np.ndarray:
        """Flat K*capacity sent-mask buffer, allocated on first use.

        Only the generic received-mask regime gathers sent masks;
        by-value programs (BFS/SSSP) and uniform sweeps (PPR) never
        touch it, so eager allocation would pin K*nnz never-read bytes
        per block.
        """
        if self._sent is None:
            self._sent = np.empty(self._capacity * self._n_lanes, dtype=bool)
        return self._sent

    @property
    def nbytes(self) -> int:
        """Resident bytes held by this scratch's buffers."""
        return sum(
            buffer.nbytes
            for buffer in (
                self.take,
                self.src_cols,
                self.edge_dst,
                self.sorted_idx,
                self.edge_vals,
                self.messages,
                self._sent,
            )
            if buffer is not None
        )


def make_block_scratch(block, program, n_lanes: int | None):
    """Warm ``block`` and build its scratch for one kernel family.

    ``n_lanes is None`` selects the generic kernel's family
    (:func:`repro.core.spmv.run_block`), an integer the K-lane kernel's
    (:func:`repro.core.spmv.run_block_batch`); each warms the lazy
    groupings its kernel reads.
    """
    if n_lanes is None:
        block.warm_caches()
        return BlockScratch(block, program)
    block.warm_batch_caches()
    return BatchBlockScratch(block, program, n_lanes)


class SuperstepWorkspace:
    """Reusable engine vectors and per-block scratch for one run shape.

    ``n_lanes`` fixes the kernel family: an integer K builds
    :class:`MultiFrontier` vectors for the lane kernel (``x`` carries
    the program's reduce identity at invalid slots — the kernel's
    no-masking contract), ``None`` builds one sparse vector pair for the
    generic or scalar sweep.  The vertex state is the driver's (it
    outlives the run as the result), so it is not held here.

    Valid for any run whose graph size, specs, family and views match
    (:meth:`matches`); the engine builds a fresh one when they do not
    (e.g. the two phases of triangle counting flow different value types
    through the same graph).  ``scratch=False`` skips the per-block
    buffers: the scalar sweep uses none.
    """

    def __init__(
        self,
        n_vertices: int,
        program,
        views,
        *,
        n_lanes: int | None = None,
        use_bitvector: bool = True,
        scratch: bool = True,
    ) -> None:
        self.n_vertices = int(n_vertices)
        self.n_lanes = n_lanes
        self.use_bitvector = bool(use_bitvector)
        self.message_spec = program.message_spec
        self.result_spec = program.result_spec
        self.views = list(views)
        if n_lanes is None:
            self.x = make_sparse_vector(
                self.n_vertices, program.message_spec,
                use_bitvector=use_bitvector,
            )
            self.y = make_sparse_vector(
                self.n_vertices, program.result_spec,
                use_bitvector=use_bitvector,
            )
        else:
            self.x = MultiFrontier(
                self.n_vertices, n_lanes, program.message_spec,
                fill=program.batch_reduce_identity(),
            )
            self.y = MultiFrontier(self.n_vertices, n_lanes, program.result_spec)
        self.scratch_built = bool(scratch)
        self._scratch: dict[int, dict] = {}
        if scratch:
            for vi, view in enumerate(views):
                self._scratch[vi] = {
                    p: make_block_scratch(block, program, n_lanes)
                    for p, block in enumerate(view)
                    if block.nnz
                }

    def view_scratch(self, view_index: int) -> dict | None:
        """Per-partition scratch for one matrix view (None when unbuilt)."""
        return self._scratch.get(view_index)

    def scratch_nbytes(self) -> int:
        """Total resident bytes of every per-block scratch buffer.

        The workspace's own memory cost (the mmap-backed block arrays of
        snapshot-loaded views are *not* counted — they are shared file
        pages, not per-workspace allocations).
        """
        return sum(
            scratch.nbytes
            for per_view in self._scratch.values()
            for scratch in per_view.values()
        )

    def matches(
        self, n_vertices: int, program, views, *,
        n_lanes: int | None, use_bitvector: bool, scratch: bool,
    ) -> bool:
        """True if this workspace fits a run of ``program`` with this shape.

        ``views`` must be the exact view objects the run will multiply
        with: the per-block scratch buffers are sized for *these* blocks,
        and a different view set (e.g. after an edge-direction mismatch
        rebuilt the views) can have bigger blocks at the same partition
        index — an overrun waiting to happen.  ``scratch`` marks a
        run whose sweep consumes per-block scratch; a workspace built
        without it (for the scalar sweep) must not satisfy such a run,
        or the zero-allocation path silently degrades.
        """
        return (
            self.n_vertices == int(n_vertices)
            and self.n_lanes == n_lanes
            and self.use_bitvector == bool(use_bitvector)
            and self.message_spec == program.message_spec
            and self.result_spec == program.result_spec
            and len(self.views) == len(views)
            and all(a is b for a, b in zip(self.views, views))
            and (self.scratch_built or not scratch)
        )

    def reset(self) -> None:
        """Invalidate both vectors in place (no allocation)."""
        self.x.clear()
        self.y.clear()
