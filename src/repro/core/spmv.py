"""Generalized sparse matrix–sparse vector multiplication (Algorithm 1).

Three sweeps implement the same semantics; the engine picks one per run
from what the program and options declare, never per call site:

- :func:`run_block_batch` — the K-lane block kernel every *lane-capable*
  program runs (scalar numeric specs, a reduce ufunc and a declared
  identity: ``GraphProgram.supports_batched``).  The frontier is a
  K-lane multi-vector (the GraphBLAS SpMM view; a single query is the
  one-lane case): one gather of each active column's edge span serves
  every lane, the process hook broadcasts over a lane-major
  ``(K, edges)`` message block, and one destination-grouped fold
  reduces all lanes (a compiled sweep when the program declares a
  ``lane_kernel``; ``+`` always folds left to right, see
  :func:`fold_plus`).  Silent (edge, lane) slots
  hold the program's ``batch_reduce_identity()`` and per-lane received
  masks keep every lane bitwise identical to its own one-lane run.

- :func:`run_block` — the generic fused block kernel for everything the
  lane block cannot carry: vector messages (collaborative filtering),
  object results (triangle counting), programs without a reduce ufunc
  or identity.  Per-edge work runs through the program's batch hooks on
  aligned numpy arrays over the active columns' edges; one frontier per
  sweep.

- :func:`spmv_scalar` — a literal transcription of Algorithm 1 through
  the scalar ``process_message`` / ``reduce`` hooks (``fused=False``).
  With ``SortedTuplesVector`` messages this is the paper's *naive*
  configuration; with ``BitvectorVector`` it is *+bitvector*.  It is
  the reference the fused kernels are tested against.

Both block kernels are pure functions of their arguments with one
signature and one result type (:class:`BlockResult`), so
:func:`sweep_view` runs either one over a view's blocks without knowing
which it is: in the calling thread, or one task per block on a thread
pool (the ``threaded`` backend), merging the results in partition
order either way.

Kernel shapes
-------------

Every fused block runs one of two shapes, recorded by name:

- ``"dense-pull"``   — every stored edge of the block is touched in the
  block's cached destination order,
- ``"sparse-gather"``— only the active columns' edge spans are
  expanded, gathered and segment-reduced by destination.

The lane kernel picks its shape with :func:`select_kernel`, driven by
the exact number of edges under the frontier's columns against the
block's nnz: it pulls when the frontier holds all of them, or enough
that gathering costs more than touching every edge with silent sources
carrying the program's reduce identity.  The generic kernel has one
packed path; it is tagged ``"dense-pull"`` when the frontier covers
every column of the block and ``"sparse-gather"`` otherwise.

The shape is recorded in each :class:`PartitionWork` entry and
aggregated into ``IterationStats.kernel_counts`` so benchmarks can
attribute wins to kernel choice.

All kernels accumulate into the same output vector ``y`` so a superstep
may chain several matrix views (ALL_EDGES programs multiply by both
``A^T`` and ``A``).  The kernels allocate the edge-sized arrays they
gather each call; only the blocks' cached groupings
(:meth:`~repro.matrix.dcsc.DCSCMatrix.warm_caches`) persist across
supersteps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import ckernels
from repro.core.graph_program import GraphProgram
from repro.core.kernels import (  # noqa: F401  (re-exported: this was
    DENSE_PULL_CROSSOVER,  # the registry's home before repro.core.kernels)
    KERNEL_DENSE,
    KERNEL_NAMES,
    KERNEL_SPARSE,
    frontier_edge_count,
    select_kernel,
)
from repro.matrix.dcsc import expand_spans
from repro.matrix.partition import PartitionedMatrix
from repro.vector.dense import PropertyArray
from repro.vector.multi_frontier import MultiFrontier
from repro.vector.sparse_vector import BitvectorVector, SparseVector


@dataclass
class PartitionWork:
    """Work done by one partition during one SpMV call."""

    partition: int
    edges: int
    active_columns: int
    seconds: float
    kernel: str = ""

    def to_dict(self) -> dict:
        """JSON-ready record (stats endpoints, benchmark records)."""
        return {
            "partition": int(self.partition),
            "edges": int(self.edges),
            "active_columns": int(self.active_columns),
            "seconds": float(self.seconds),
            "kernel": self.kernel,
        }


@dataclass
class BlockResult:
    """Output of one block kernel (before merging into ``y``).

    ``unique_dst``/``reduced`` hold the block's destination-grouped
    reduction; blocks own disjoint row ranges, so results from different
    blocks never alias and can be merged without locks in any order.
    The generic kernel's ``reduced`` is ``(len(unique_dst), ...)``; the
    lane kernel's is lane-major ``(K, len(unique_dst))`` and
    ``received`` marks which lanes actually received a message at each
    destination (a lane slot without it holds only the masking identity
    and must not surface).  ``received is None`` means every listed
    slot received — always so for the generic kernel, and the fast
    full-coverage case (one fancy write) for the lane kernel.
    """

    partition: int
    unique_dst: np.ndarray | None
    reduced: np.ndarray | None
    edges: int
    active_columns: int
    kernel: str
    seconds: float
    events: dict = field(default_factory=dict)
    received: np.ndarray | None = None


def fold_plus(
    values: np.ndarray, group_ids: np.ndarray, n_groups: int
) -> np.ndarray:
    """Sum ``values`` by group along the last axis: the engine's one ``+``.

    Each group folds left to right in the order given, starting from
    ``+0.0`` — ``np.bincount``'s loop, and that of scipy's
    ``csr_matvec`` and the C ``plus`` sweeps, so all give the same
    bits.  ``np.add.reduceat`` does not: it adds a group's first value
    to the sum of the rest, pairwise once the rest is long, and keeps a
    ``-0.0`` (docs/KERNELS.md, "The ``+`` fold").  Leading axes (lanes,
    vector components) fold one at a time; integers are summed in
    float64 and cast back.
    """
    if values.ndim == 1:
        out = np.bincount(group_ids, weights=values, minlength=n_groups)
    else:
        out = np.empty(values.shape[:-1] + (n_groups,))
        for index in np.ndindex(*values.shape[:-1]):
            out[index] = np.bincount(
                group_ids, weights=values[index], minlength=n_groups
            )
    return out.astype(values.dtype, copy=False)


def _reduce_sorted_groups(
    program: GraphProgram,
    sorted_results: np.ndarray,
    group_starts: np.ndarray,
    n_items: int,
) -> np.ndarray:
    """Reduce row-grouped results given precomputed group starts."""
    if program.reduce_ufunc is not None:
        return program.reduce_ufunc.reduceat(sorted_results, group_starts, axis=0)
    ends = np.empty_like(group_starts)
    ends[:-1] = group_starts[1:]
    ends[-1] = n_items
    custom = program.reduce_segments(sorted_results, group_starts, ends)
    if custom is not None:
        return np.asarray(custom)
    # Generic fallback: per-group scalar reduce (object-valued programs).
    reduced_list = []
    for g in range(group_starts.shape[0]):
        acc = sorted_results[group_starts[g]]
        for t in range(group_starts[g] + 1, ends[g]):
            acc = program.reduce(acc, sorted_results[t])
        reduced_list.append(acc)
    out = np.empty(len(reduced_list), dtype=object)
    for i, item in enumerate(reduced_list):
        out[i] = item
    return out


#: Widest block row span whose block-local row ids fit the 16-bit sort key.
RADIX_KEY_MAX_ROWS = 1 << 16


def destination_order(edge_dst: np.ndarray, row_range) -> np.ndarray:
    """``np.argsort(edge_dst, kind="stable")`` for one block's row ids.

    A block spanning at most 65 536 rows sorts on the block-local
    ``uint16`` key instead: NumPy's stable sort of 16-bit integers is a
    radix sort (about 6x faster than the int64 merge sort at 200k keys),
    and a stable sort on an order-preserving key is the same
    permutation.  Wider blocks keep the int64 sort.
    """
    lo, hi = row_range
    if hi - lo <= RADIX_KEY_MAX_ROWS:
        return np.argsort((edge_dst - lo).astype(np.uint16), kind="stable")
    return np.argsort(edge_dst, kind="stable")


def _segment_reduce(
    program: GraphProgram,
    results: np.ndarray,
    dst: np.ndarray,
    row_range,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce per-edge ``results`` by destination vertex.

    Returns ``(unique_dst, reduced)`` with ``unique_dst`` sorted.  Uses the
    program's ufunc (``reduceat``) when declared, else per-group Python
    reduction with the scalar ``reduce``.
    """
    order = destination_order(dst, row_range)
    sorted_dst = dst[order]
    sorted_results = results[order]
    boundary = np.empty(sorted_dst.shape[0], dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_dst[1:] != sorted_dst[:-1]
    group_starts = np.flatnonzero(boundary)
    unique_dst = sorted_dst[group_starts]
    reduced = _reduce_sorted_groups(
        program, sorted_results, group_starts, sorted_dst.shape[0]
    )
    return unique_dst, reduced


def _reduce_by_destination(
    program: GraphProgram,
    results: np.ndarray,
    edge_dst: np.ndarray,
    block,
    full_coverage: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Destination-grouped reduction, choosing the cheapest valid kernel.

    - additive numeric reductions fold with :func:`fold_plus` over the
      edges in stored order (O(edges), no sort): the canonical ``+``,
      the same bits as the lane kernels' sweeps,
    - other full-frontier reductions reuse the block's cached row
      grouping (no per-superstep sort),
    - everything else falls back to sort + reduceat / scalar reduce.

    The choice depends only on the program and the coverage.
    """
    results = np.asarray(results)
    if program.reduce_ufunc is np.add and results.dtype != object:
        lo, hi = block.row_range
        local = edge_dst - lo
        received = np.bincount(local, minlength=hi - lo) > 0
        # Vector results (edges, d) fold one component at a time.
        reduced = fold_plus(results.T, local, hi - lo)[..., received].T
        unique_dst = (np.flatnonzero(received) + lo).astype(np.int64)
        return unique_dst, np.ascontiguousarray(reduced)
    if full_coverage:
        order, group_starts, unique_rows = block.dst_groups()
        return unique_rows, _reduce_sorted_groups(
            program, results[order], group_starts, results.shape[0]
        )
    return _segment_reduce(program, results, edge_dst, block.row_range)


def _combine_into(
    program: GraphProgram,
    y: BitvectorVector,
    unique_dst: np.ndarray,
    reduced: np.ndarray,
) -> None:
    """Merge reduced per-destination values into ``y`` (reduce on overlap)."""
    if unique_dst.size == 0:
        return
    existing_mask = y.valid_mask()[unique_dst]
    if not existing_mask.any():
        y.scatter(unique_dst, reduced)
        return
    fresh = ~existing_mask
    if fresh.any():
        y.scatter(unique_dst[fresh], reduced[fresh])
    clash_idx = unique_dst[existing_mask]
    clash_val = reduced[existing_mask]
    if program.reduce_ufunc is not None:
        y.values[clash_idx] = program.reduce_ufunc(y.values[clash_idx], clash_val)
    else:
        for t in range(clash_idx.shape[0]):
            k = int(clash_idx[t])
            y.set(k, program.reduce(y.get(k), clash_val[t]))


# ----------------------------------------------------------------------
# Per-block fused kernels (selection lives in repro.core.kernels)
# ----------------------------------------------------------------------
def run_block(
    partition: int,
    block,
    x_mask: np.ndarray,
    x_values: np.ndarray,
    program: GraphProgram,
    properties_data: np.ndarray,
    crossover: float = DENSE_PULL_CROSSOVER,
) -> BlockResult:
    """Fused generalized SpMV over one DCSC block.

    Pure function of its arguments: reads the frontier (``x_mask`` /
    ``x_values``) and vertex properties, returns the block's
    destination-grouped reduction as a :class:`BlockResult`.  It never
    touches shared output state, which is what lets :func:`sweep_view`
    run blocks on pool threads.  ``crossover`` is
    unused — there is one packed path — and is accepted so both block
    kernels share :func:`run_block_batch`'s signature.
    """
    t0 = time.perf_counter()
    if block.nzc == 0:
        return BlockResult(
            partition, None, None, 0, 0, "", time.perf_counter() - t0
        )
    active_pos = np.flatnonzero(x_mask[block.jc])
    n_active = int(active_pos.size)
    if n_active == 0:
        return BlockResult(
            partition, None, None, 0, 0, "", time.perf_counter() - t0
        )
    full_coverage = n_active == block.nzc
    kernel = KERNEL_DENSE if full_coverage else KERNEL_SPARSE
    if full_coverage:
        edge_dst = block.ir
        edge_vals = block.num
        src_cols = block.col_expanded()
        edges = block.nnz
    else:
        starts = block.cp[active_pos]
        lengths = block.cp[active_pos + 1] - starts
        take = expand_spans(starts, lengths)
        edges = int(take.shape[0])
        edge_dst = block.ir[take]
        edge_vals = block.num[take]
        src_cols = np.repeat(block.jc[active_pos], lengths)
    if edges == 0:
        return BlockResult(
            partition, None, None, 0, n_active, kernel,
            time.perf_counter() - t0,
        )
    results = program.process_edges_packed(
        src_cols, edge_vals, edge_dst, properties_data
    )
    if results is None:
        results = program.process_message_batch(
            x_values[src_cols], edge_vals, properties_data[edge_dst]
        )
    unique_dst, reduced = _reduce_by_destination(
        program,
        np.asarray(results),
        edge_dst,
        block,
        full_coverage=full_coverage,
    )
    return BlockResult(
        partition,
        unique_dst,
        reduced,
        edges,
        n_active,
        kernel,
        time.perf_counter() - t0,
        events=dict(
            user_calls=6,
            element_ops=2 * edges,
            random_accesses=edges + int(unique_dst.shape[0]),
            sequential_bytes=edges * 16,
            messages=n_active,
            allocations=5,
        ),
    )


def spmv_scalar(
    blocks: PartitionedMatrix,
    x: SparseVector,
    y: SparseVector,
    program: GraphProgram,
    properties: PropertyArray,
    counters=None,
    partition_work: list[PartitionWork] | None = None,
) -> int:
    """Algorithm 1, literally.  Returns the number of edges processed."""
    total_edges = 0
    # Empty frontier: no column can match, so skip the membership loop
    # entirely (and charge zero probes — the counters model only events
    # that actually happen).
    frontier_empty = x.nnz == 0
    for p, block in enumerate(blocks):
        t0 = time.perf_counter()
        edges = 0
        active_cols = 0
        probes = 0
        if not frontier_empty:
            for j, dst_rows, edge_vals in block.columns():
                probes += 1
                if j not in x:
                    continue
                active_cols += 1
                xj = x.get(j)
                for t in range(dst_rows.shape[0]):
                    k = int(dst_rows[t])
                    result = program.process_message(
                        xj, edge_vals[t], properties.get(k)
                    )
                    if k in y:
                        y.set(k, program.reduce(y.get(k), result))
                    else:
                        y.set(k, result)
                edges += int(dst_rows.shape[0])
        seconds = time.perf_counter() - t0
        total_edges += edges
        if counters is not None:
            # One process_message + one reduce-or-insert per edge, one
            # membership probe per column actually tested, one property
            # read and one scattered y update per edge.
            counters.record(
                user_calls=2 * edges,
                element_ops=edges,
                random_accesses=2 * edges + probes,
                sequential_bytes=edges * 16,
                messages=active_cols,
            )
        if partition_work is not None:
            partition_work.append(PartitionWork(p, edges, active_cols, seconds))
    return total_edges


# ----------------------------------------------------------------------
# Batched multi-frontier kernels (SpMM): one edge sweep, K lanes
# ----------------------------------------------------------------------
#: Byte budget for one SpMM gather/reduce tile.  The kernels stream the
#: edge space in tiles whose (K, edges) message block fits comfortably
#: in cache, fusing gather -> process -> segment-reduce per tile: the
#: wide intermediate never round-trips to DRAM, so the superstep's
#: traffic is the frontier reads plus the output writes — the
#: amortization batching promises.  4 MB keeps a float64 K=16 tile at
#: 32k edges, inside any recent L2/L3.
BATCH_TILE_BYTES = 4 * 1024 * 1024


def _batch_tile_edges(n_lanes: int, itemsize: int) -> int:
    """Edges per tile for one lane width (clamped to sane bounds)."""
    return max(4096, BATCH_TILE_BYTES // max(1, n_lanes * itemsize))


def _gather_lanes(source: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``source[:, idx]`` as a fresh contiguous ``(K, len(idx))`` array.

    K separate contiguous 1-D takes, one per lane row: numpy's 1-D
    fancy-take inner loop is its fastest gather path, 1.6-1.9x faster
    than one axis-1 take at K=16.
    """
    out = np.empty((source.shape[0], idx.shape[0]), dtype=source.dtype)
    for lane in range(source.shape[0]):
        np.take(source[lane], idx, out=out[lane])
    return out


def _tiled_process_reduce(
    program: GraphProgram,
    x_values: np.ndarray,
    sorted_cols: np.ndarray,
    sorted_vals: np.ndarray,
    group_starts: np.ndarray,
    edges: int,
    properties_lanes: np.ndarray | None,
    sorted_dst: np.ndarray | None,
) -> np.ndarray:
    """Segment-reduce the K-lane edge space in cache-sized tiles.

    Equivalent to gathering the full ``(K, edges)`` message block,
    broadcasting the process hook and segment-reducing it once — but
    performed tile by tile, with tile boundaries aligned to destination
    groups so every group reduces in one piece.  Bitwise identical to
    the monolithic form (same per-group left fold), cheaper by the full
    write+read round-trip of the edge-wide intermediate: the tile stays
    cache-resident, so the superstep's DRAM traffic is the frontier
    reads plus the output writes.

    A program declaring a ``lane_kernel`` (and reading no destination
    properties) runs the compiled sweep of :mod:`repro.core.ckernels`
    instead, with the same result bits; this NumPy fold is its fallback.
    A ``+`` reduction folds each lane with :func:`fold_plus`, the left
    fold the C sweeps compute, never with ``reduceat``.
    """
    if (
        program.lane_kernel is not None
        and properties_lanes is None
        and program.result_spec.dtype == np.float64
    ):
        reduced = ckernels.lane_sweep(
            program.lane_kernel, x_values, sorted_cols, sorted_vals,
            group_starts, edges,
        )
        if reduced is not None:
            return reduced
    n_lanes = int(x_values.shape[0])
    n_groups = int(group_starts.shape[0])
    out = np.empty((n_lanes, n_groups), dtype=program.result_spec.dtype)
    tile = _batch_tile_edges(n_lanes, x_values.dtype.itemsize)
    plus = program.reduce_ufunc is np.add
    if plus:
        group_ids = np.zeros(edges, dtype=np.int64)
        group_ids[group_starts[1:]] = 1
        np.cumsum(group_ids, out=group_ids)
    g0, lo = 0, 0
    while lo < edges:
        if lo + tile >= edges:
            g1, hi = n_groups, edges
        else:
            # Last group starting within the byte budget — the tile ends
            # *before* the budget; a single hub group larger than the
            # tile advances alone.
            g1 = int(
                np.searchsorted(group_starts, lo + tile, side="right") - 1
            )
            g1 = max(g1, g0 + 1)
            hi = edges if g1 >= n_groups else int(group_starts[g1])
        messages = _gather_lanes(x_values, sorted_cols[lo:hi])
        dst_props = (
            properties_lanes[:, sorted_dst[lo:hi]]
            if properties_lanes is not None
            else None
        )
        results = np.asarray(
            program.process_message_lanes(
                messages, sorted_vals[lo:hi], dst_props
            )
        )
        # Reduce into a fresh contiguous block, then copy the
        # (output-sized) result out — reduceat into a strided slice of
        # ``out`` would put the hot inner loop on strided memory.
        if plus:
            reduced = fold_plus(results, group_ids[lo:hi] - g0, g1 - g0)
        else:
            reduced = program.reduce_ufunc.reduceat(
                results, group_starts[g0:g1] - lo, axis=1
            )
        if g0 == 0 and g1 == n_groups:
            return reduced  # single tile: no copy needed
        out[:, g0:g1] = reduced
        g0, lo = g1, hi
    return out


#: ``union_active_columns`` looks the frontier up in ``block.jc`` when
#: the lanes hold on average at most ``nzc / TINY_FRONTIER_RATIO``
#: entries each: one binary search costs about this many mask reads
#: (the two paths cost the same at 1/25 at K=1 and at 1/11 at K=16 on a
#: scale-15 R-MAT).
TINY_FRONTIER_RATIO = 32


def union_active_columns(block, x_valid: np.ndarray) -> tuple[np.ndarray, bool]:
    """Positions in ``block.jc`` of the columns active in any lane.

    Also returns whether each of them sends in *every* lane (received
    masks are then trivially all-true).  Reading the lane mask at every
    non-empty column is a fixed cost per block per superstep whatever
    the frontier holds; a frontier of a few vertices is looked up in the
    sorted ``jc`` instead.
    """
    n_lanes = x_valid.shape[0]
    if np.count_nonzero(x_valid) * TINY_FRONTIER_RATIO <= n_lanes * block.nzc:
        frontier = np.flatnonzero(
            x_valid[0] if n_lanes == 1 else x_valid.any(axis=0)
        )
        pos = np.searchsorted(block.jc, frontier)
        pos[pos == block.nzc] = 0  # past the last column: cannot match
        hit = block.jc[pos] == frontier
        return pos[hit], bool(x_valid[:, frontier[hit]].all())
    col_lanes = x_valid[:, block.jc]  # (K, nzc): which lanes send per column
    active_pos = np.flatnonzero(col_lanes.any(axis=0))
    return active_pos, bool(col_lanes[:, active_pos].all())


def run_block_batch(
    partition: int,
    block,
    x_valid: np.ndarray,
    x_values: np.ndarray,
    program: GraphProgram,
    properties_lanes: np.ndarray,
    crossover: float = DENSE_PULL_CROSSOVER,
) -> BlockResult:
    """K-lane generalized SpMM over one DCSC block.

    ``x_valid``/``x_values`` are the lane-major ``(K, n)`` lane mask and
    message block of a :class:`repro.vector.multi_frontier.MultiFrontier`;
    ``properties_lanes`` is the ``(K, n, *property_shape)`` per-lane
    vertex state.  The kernel gathers each column's edge span **once**
    for the union of the lanes' active columns, broadcasts the program's
    process hook across lanes on the lane-major ``(K, edges)`` message block, and
    segment-reduces every lane in one destination-grouped fold
    (:func:`_tiled_process_reduce`) — so K concurrent queries pay for
    the edge data movement once.

    Contract: ``x_values`` must hold
    :meth:`~repro.core.graph_program.GraphProgram.batch_reduce_identity`
    at every invalid slot (a ``MultiFrontier`` built with
    ``fill=identity`` maintains this).  Silent lanes then contribute
    identity messages *by construction* — the kernel performs no masking
    pass and gathers its messages already in destination order (the
    cached ``dst_sorted_cols`` index on the dense path), so the steady
    state is one ``(K, edges)`` gather plus one ``(K, edges)`` fold.

    Kernel selection is :func:`select_kernel` with ``crossover`` on the
    edges under the columns active in *any* lane (the shared sweep's
    work).

    Like :func:`run_block` this is a pure function of its arguments and
    never touches shared output state, which is what lets
    :func:`sweep_view` schedule it across pool threads.
    """
    t0 = time.perf_counter()
    n_lanes = int(x_valid.shape[0])
    if block.nzc == 0:
        return BlockResult(
            partition, None, None, 0, 0, "", time.perf_counter() - t0
        )
    active_pos, uniform_send = union_active_columns(block, x_valid)
    n_active = int(active_pos.size)
    if n_active == 0:
        return BlockResult(
            partition, None, None, 0, 0, "", time.perf_counter() - t0
        )
    kernel = select_kernel(
        block, frontier_edge_count(block, active_pos), crossover
    )
    identity = program.batch_reduce_identity()
    full_coverage = n_active == block.nzc

    if kernel == KERNEL_DENSE:
        # Pull every stored edge through the cached destination-sorted
        # column index: messages arrive grouped by destination in ONE
        # gather (no per-superstep sort, no gather-then-permute).
        sorted_cols = block.dst_sorted_cols()
        sorted_vals = block.dst_sorted_vals()
        _, group_starts, unique_dst = block.dst_groups()
        edges = block.nnz
    else:
        # Sparse gather: expand only the union-active columns' spans,
        # then compose index arrays (cheap 1-D int ops) so the wide
        # per-lane gathers happen once, directly in destination order.
        span_starts = block.cp[active_pos]
        lengths = block.cp[active_pos + 1] - span_starts
        take = expand_spans(span_starts, lengths)
        edges = int(take.shape[0])
        edge_dst = block.ir[take]
        src_cols = np.repeat(block.jc[active_pos], lengths)
        if edges == 0:
            return BlockResult(
                partition, None, None, 0, n_active, kernel,
                time.perf_counter() - t0,
            )
        sorted_order = destination_order(edge_dst, block.row_range)
        sorted_cols = src_cols[sorted_order]
        sorted_vals = block.num[take[sorted_order]]
        sorted_dst = edge_dst[sorted_order]
        boundary = np.empty(edges, dtype=bool)
        boundary[0] = True
        boundary[1:] = sorted_dst[1:] != sorted_dst[:-1]
        group_starts = np.flatnonzero(boundary)
        unique_dst = sorted_dst[group_starts]

    # The wide work, tiled so the (tile, K) message block stays
    # cache-resident: gather -> process -> segment-reduce per tile.
    reduced_all = _tiled_process_reduce(
        program,
        x_values,
        sorted_cols,
        sorted_vals,
        group_starts,
        edges,
        properties_lanes if program.batch_needs_dst_props else None,
        (
            block.ir[block.dst_groups()[0]]
            if kernel == KERNEL_DENSE
            else sorted_dst
        )
        if program.batch_needs_dst_props
        else None,
    )

    # Per-lane received masks (which (lane, dst) slots saw a real
    # message).  Three regimes, cheapest first: uniform sends make them
    # trivially all-true; programs certifying that a real message never
    # reduces to the identity compare output-sized arrays; everything
    # else gathers the sent mask and OR-reduces it.
    if uniform_send and kernel != KERNEL_DENSE:
        received_all = None  # only active columns were expanded
    elif uniform_send and full_coverage:
        received_all = None
    elif program.batch_received_by_value:
        received_all = reduced_all != identity
    else:
        received_all = np.logical_or.reduceat(
            _gather_lanes(x_valid, sorted_cols), group_starts, axis=1
        )
    if kernel == KERNEL_DENSE and not full_coverage and received_all is not None:
        keep = received_all.any(axis=0)
        unique_dst = unique_dst[keep]
        reduced_all = reduced_all[:, keep]
        received_all = received_all[:, keep]
    # One vector's sweep (run_block's packed path) per lane, with the
    # edge-index stream charged once: at K = 1 the two kernels charge
    # the same events.
    return BlockResult(
        partition,
        unique_dst,
        reduced_all,
        edges,
        n_active,
        kernel,
        time.perf_counter() - t0,
        events=dict(
            user_calls=6,
            element_ops=2 * edges * n_lanes,
            random_accesses=edges + int(unique_dst.shape[0]) * n_lanes,
            sequential_bytes=edges * 8 * (1 + n_lanes),
            messages=n_active,
            allocations=5,
        ),
        received=received_all,
    )


def _combine_into_lanes(
    program: GraphProgram,
    y,
    unique_dst: np.ndarray,
    reduced: np.ndarray,
    received: np.ndarray | None,
) -> None:
    """Merge one block's ``(lane, dst)`` reductions into a MultiFrontier.

    ``received is None`` means every lane received at every destination
    (the full-coverage fast path: one fancy write).  Otherwise lanes
    without a received message keep their current state.  Within one
    view every destination row belongs to exactly one block, so the
    clash branch only fires for programs chaining several views
    (ALL_EDGES) — then overlapping slots fold through ``reduce_ufunc``.
    """
    if unique_dst.size == 0:
        return
    prior = y.valid_mask()[:, unique_dst]
    if received is None:
        if not prior.any():
            y.scatter_rows(unique_dst, reduced)
            return
        received = np.ones_like(prior)
    existing = prior & received
    if existing.any():
        lanes, cols = np.nonzero(existing)
        idx = unique_dst[cols]
        y.values[lanes, idx] = program.reduce_ufunc(
            y.values[lanes, idx], reduced[lanes, cols]
        )
        fresh = received & ~existing
    else:
        fresh = received
    y.scatter_block(unique_dst, reduced, fresh)


def apply_block_result(
    result: BlockResult,
    y,
    program: GraphProgram,
    counters=None,
    partition_work: list[PartitionWork] | None = None,
    kernel_counts: dict[str, int] | None = None,
) -> int:
    """Merge one block's reduction into ``y`` and record its bookkeeping.

    ``y`` decides the merge: a :class:`MultiFrontier` takes the lane
    kernel's ``(K, dst)`` block, a sparse vector the generic kernel's.
    Returns the block's edge count (each edge once, however many lanes
    it served).  Blocks own disjoint row ranges, so merges commute;
    callers may apply results in any order.
    """
    if result.unique_dst is not None and result.unique_dst.size:
        if isinstance(y, MultiFrontier):
            _combine_into_lanes(
                program, y, result.unique_dst, result.reduced, result.received
            )
        else:
            _combine_into(program, y, result.unique_dst, result.reduced)
    if counters is not None and result.events:
        counters.record(**result.events)
    if partition_work is not None:
        partition_work.append(
            PartitionWork(
                result.partition,
                result.edges,
                result.active_columns,
                result.seconds,
                result.kernel,
            )
        )
    if kernel_counts is not None and result.kernel:
        kernel_counts[result.kernel] = kernel_counts.get(result.kernel, 0) + 1
    return result.edges


def sweep_view(
    kernel,
    blocks: PartitionedMatrix,
    x,
    y,
    program: GraphProgram,
    properties: np.ndarray,
    counters=None,
    partition_work: list[PartitionWork] | None = None,
    *,
    kernel_counts: dict[str, int] | None = None,
    crossover: float = DENSE_PULL_CROSSOVER,
    pool=None,
) -> int:
    """One generalized multiply over a view: the engine's one sweep.

    ``kernel`` is :func:`run_block` (``x``/``y`` bitvector-backed sparse
    vectors, ``properties`` the ``(n, ...)`` vertex state) or
    :func:`run_block_batch` (``x``/``y`` :class:`MultiFrontier` blocks,
    ``properties`` the ``(K, n, ...)`` per-lane state).  Blocks run in
    the calling thread, or one ``pool.submit`` each when ``pool`` is a
    :class:`concurrent.futures.ThreadPoolExecutor` (the NumPy and C
    kernels release the GIL, so blocks overlap).  Either way the results
    merge into ``y`` in partition order, so the bits and
    ``partition_work`` do not depend on the schedule.  Returns the
    number of edges swept.
    """
    args = (x.valid_mask(), x.values, program, properties, crossover)
    if pool is None:
        results = (kernel(p, block, *args) for p, block in enumerate(blocks))
    else:
        futures = [
            pool.submit(kernel, p, block, *args)
            for p, block in enumerate(blocks)
        ]
        results = (future.result() for future in futures)
    return sum(
        apply_block_result(
            result, y, program, counters, partition_work, kernel_counts
        )
        for result in results
    )
