"""Generalized sparse matrix–sparse vector multiplication (Algorithm 1).

Three sweeps implement the same semantics; the engine picks one per run
from what the program and options declare, never per call site:

- :func:`run_block_batch` — the K-lane block kernel every *lane-capable*
  program runs (scalar numeric specs, a reduce ufunc and a declared
  identity: ``GraphProgram.supports_batched``).  The frontier is a
  K-lane multi-vector (the GraphBLAS SpMM view; a single query is the
  one-lane case): one gather of each active column's edge span serves
  every lane, the process hook broadcasts over a lane-major
  ``(K, edges)`` message block, and a single ``reduceat`` over the lane
  axis segment-reduces all lanes at once.  Silent (edge, lane) slots
  hold the program's ``batch_reduce_identity()`` and per-lane received
  masks keep every lane bitwise identical to its own one-lane run.

- :func:`run_block` — the generic fused block kernel for everything the
  lane block cannot carry: vector messages (collaborative filtering),
  object results (triangle counting), programs without a reduce ufunc
  or identity.  Per-edge work runs through the program's batch hooks on
  aligned numpy arrays; one frontier per sweep.

- :func:`spmv_scalar` — a literal transcription of Algorithm 1 through
  the scalar ``process_message`` / ``reduce`` hooks (``fused=False``).
  With ``SortedTuplesVector`` messages this is the paper's *naive*
  configuration; with ``BitvectorVector`` it is *+bitvector*.  It is
  the reference the fused kernels are tested against.

Both block kernels are pure functions of their arguments with one
signature and one result type (:class:`BlockResult`), so
:func:`sweep_view` (serial) and the executors in :mod:`repro.exec`
(threads, processes) schedule either one without knowing which it is.

Kernel selection
----------------

Each (block, frontier) pair picks one of three kernel shapes via
:func:`select_kernel`, driven by the exact number of edges under the
frontier's columns against the block's nnz:

- ``"scalar"``       — the frontier holds a handful of edges; a per-edge
  Python loop beats the fixed setup cost of the vectorized pipeline
  (generic kernel only: across lanes a per-edge loop is exactly the
  dispatch overhead the lane block amortizes, so it runs sparse-gather
  instead),
- ``"dense-pull"``   — the frontier's columns hold all of the block's
  edges, or enough of them that gathering costs more than touching
  every edge through the block's cached row grouping with silent
  sources masked to the program's reduce identity,
- ``"sparse-gather"``— the default: expand the active columns' edge
  spans, gather messages and segment-reduce by destination.

The chosen kernel is recorded in each :class:`PartitionWork` entry and
aggregated into ``IterationStats.kernel_counts`` so benchmarks can
attribute wins to kernel choice.

All kernels accumulate into the same output vector ``y`` so a superstep
may chain several matrix views (ALL_EDGES programs multiply by both
``A^T`` and ``A``).  Kernels accept an optional per-block scratch object
(see :mod:`repro.exec.workspace`) holding preallocated edge-sized
buffers; with scratch the hot path performs its gathers with
``np.take(..., out=...)`` and in-place prefix sums instead of allocating
fresh arrays every superstep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import ckernels
from repro.core.graph_program import GraphProgram
from repro.core.kernels import (  # noqa: F401  (re-exported: this was
    DEFAULT_THRESHOLDS,  # the registry's home before repro.core.kernels)
    DENSE_PULL_CROSSOVER,
    KERNEL_DENSE,
    KERNEL_NAMES,
    KERNEL_SCALAR,
    KERNEL_SPARSE,
    SCALAR_KERNEL_MAX_EDGES,
    KernelThresholds,
    _has_scalar_hooks,
    frontier_edge_count,
    select_kernel,
)
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


def _expand_spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices covering ``[starts[i], starts[i]+lengths[i])`` for all i.

    The standard prefix-sum trick: output is the concatenation of the
    per-span ``arange``\\ s without a Python loop.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.zeros(lengths.shape[0], dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, lengths) + np.repeat(
        starts, lengths
    )


def _span_heads(lengths: np.ndarray) -> np.ndarray:
    """Output positions where each span begins (exclusive prefix sum)."""
    heads = np.zeros(lengths.shape[0], dtype=np.int64)
    np.cumsum(lengths[:-1], out=heads[1:])
    return heads


def _expand_spans_into(
    starts: np.ndarray, lengths: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Allocation-light :func:`_expand_spans` writing into ``out[:total]``.

    Builds the concatenated aranges as a cumulative sum of a delta array
    constructed in place: within a span each step is +1; at a span head
    the delta jumps to the new start.  Only O(n_spans) temporaries.
    Falls back to allocation when ``out`` is too small (never truncates).

    Precondition: every length must be >= 1 (zero-length spans collapse
    the delta writes at span heads and corrupt the output).  DCSC
    guarantees this — ``validate()`` rejects empty ``jc`` columns — so
    callers slicing ``cp`` spans of active columns always satisfy it;
    use :func:`_expand_spans` for inputs that may contain empty spans.
    """
    total = int(lengths.sum())
    if total > out.shape[0]:
        return _expand_spans(starts, lengths)
    seg = out[:total]
    if total == 0:
        return seg
    heads = _span_heads(lengths)
    seg[:] = 1
    seg[0] = starts[0]
    if starts.shape[0] > 1:
        seg[heads[1:]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    np.cumsum(seg, out=seg)
    return seg


def _repeat_into(
    values: np.ndarray, lengths: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Allocation-light ``np.repeat(values, lengths)`` into ``out[:total]``.

    Same delta/cumsum trick as :func:`_expand_spans_into` with step 0
    inside each span; falls back to allocation when ``out`` is too small.
    Same precondition: every length must be >= 1 (DCSC guarantees it).
    """
    total = int(lengths.sum())
    if total > out.shape[0]:
        return np.repeat(values, lengths)
    seg = out[:total]
    if total == 0:
        return seg
    heads = _span_heads(lengths)
    seg[:] = 0
    seg[0] = values[0]
    if values.shape[0] > 1:
        seg[heads[1:]] = np.diff(values)
    np.cumsum(seg, out=seg)
    return seg


def _gather(source: np.ndarray, idx: np.ndarray, buffer: np.ndarray | None):
    """``source[idx]`` through a preallocated buffer when one fits.

    Falls back to fancy indexing (fresh allocation) when the buffer is
    missing or does not match the source's dtype/entry shape.
    """
    if (
        buffer is not None
        and buffer.dtype == source.dtype
        and buffer.shape[1:] == source.shape[1:]
        and idx.shape[0] <= buffer.shape[0]
    ):
        return np.take(source, idx, axis=0, out=buffer[: idx.shape[0]])
    return source[idx]


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
    scratch=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Destination-grouped reduction, choosing the cheapest valid kernel.

    - full-frontier SpMVs reuse the block's cached row grouping (no
      per-superstep sort, and a ``reduceat`` over one gathered array beats
      the two ``bincount`` passes it replaces),
    - partial-frontier additive numeric reductions use ``bincount``
      (O(edges), no sort),
    - everything else falls back to sort + reduceat / scalar reduce.

    The choice depends only on the program and the coverage — never on
    scratch availability — so results are bitwise identical with and
    without workspace reuse (float reductions are order-sensitive).
    """
    results = np.asarray(results)
    if full_coverage:
        order, group_starts, unique_rows = block.dst_groups()
        sorted_results = _gather(
            results, order, scratch.sorted_results if scratch is not None else None
        )
        return unique_rows, _reduce_sorted_groups(
            program, sorted_results, group_starts, results.shape[0]
        )
    if program.reduce_ufunc is np.add and results.dtype != object:
        lo, hi = block.row_range
        width = hi - lo
        local = edge_dst - lo
        counts = np.bincount(local, minlength=width)
        received = counts > 0
        if results.ndim == 1:
            reduced = np.bincount(local, weights=results, minlength=width)[
                received
            ]
        else:
            columns = [
                np.bincount(local, weights=results[:, j], minlength=width)[
                    received
                ]
                for j in range(results.shape[1])
            ]
            reduced = np.stack(columns, axis=1)
        unique_dst = (np.flatnonzero(received) + lo).astype(np.int64)
        return unique_dst, reduced
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
def _scalar_block_kernel(
    block,
    active_pos: np.ndarray,
    x_values: np.ndarray,
    program: GraphProgram,
    properties_data: np.ndarray,
    result_spec,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-edge Python loop over the active columns of a tiny frontier.

    Accumulation order matches the vectorized kernels (ascending column,
    ascending row within a destination group), so results are bitwise
    identical to the batch path.
    """
    acc: dict[int, object] = {}
    edges = 0
    for pos in active_pos:
        pos = int(pos)
        xj = x_values[block.jc[pos]]
        lo, hi = int(block.cp[pos]), int(block.cp[pos + 1])
        for t in range(lo, hi):
            k = int(block.ir[t])
            result = program.process_message(xj, block.num[t], properties_data[k])
            if k in acc:
                acc[k] = program.reduce(acc[k], result)
            else:
                acc[k] = result
            edges += 1
    if not acc:
        return np.zeros(0, dtype=np.int64), result_spec.allocate(0), 0
    unique_dst = np.fromiter(sorted(acc), dtype=np.int64, count=len(acc))
    reduced = result_spec.allocate(unique_dst.shape[0])
    for i in range(unique_dst.shape[0]):
        reduced[i] = acc[int(unique_dst[i])]
    return unique_dst, reduced, edges


def run_block(
    partition: int,
    block,
    x_mask: np.ndarray,
    x_values: np.ndarray,
    program: GraphProgram,
    properties_data: np.ndarray,
    scratch=None,
    thresholds: KernelThresholds = DEFAULT_THRESHOLDS,
) -> BlockResult:
    """Fused generalized SpMV over one DCSC block.

    Pure function of its arguments: reads the frontier (``x_mask`` /
    ``x_values``) and vertex properties, returns the block's
    destination-grouped reduction as a :class:`BlockResult`.  It never
    touches shared output state, which is what lets the executors in
    :mod:`repro.exec` run blocks on worker threads or processes.
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
    kernel = select_kernel(
        block, frontier_edge_count(block, active_pos), program,
        program.message_spec, program.result_spec, thresholds,
    )
    full_coverage = n_active == block.nzc

    if kernel == KERNEL_SCALAR:
        unique_dst, reduced, edges = _scalar_block_kernel(
            block, active_pos, x_values, program, properties_data,
            program.result_spec,
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
                user_calls=2 * edges,
                element_ops=edges,
                random_accesses=2 * edges + n_active,
                sequential_bytes=edges * 16,
                messages=n_active,
                allocations=1,
            ),
        )

    if kernel == KERNEL_DENSE and not full_coverage:
        # Masked dense pull: touch every edge, masking silent sources to
        # the reduce identity; reuse the cached row grouping instead of
        # sorting the frontier's edges.  Whether a row received a real
        # message is tracked explicitly (a real reduced value may equal
        # the identity sentinel, e.g. a saturated min-plus distance), so
        # rows are kept by received-mask, never by value comparison.
        src_cols = block.col_expanded()
        sent = _gather(x_mask, src_cols, scratch.sent if scratch else None)
        messages = _gather(
            x_values, src_cols, scratch.messages if scratch else None
        )
        # ``messages`` is either a fancy-indexed copy or a scratch view,
        # never a view of ``x_values`` — masking in place is safe.
        np.copyto(messages, program.reduce_identity, where=~sent)
        dst_props = _gather(
            properties_data, block.ir, scratch.dst_props if scratch else None
        )
        results = np.asarray(
            program.process_message_batch(messages, block.num, dst_props)
        )
        order, group_starts, unique_rows = block.dst_groups()
        sorted_results = _gather(
            results, order, scratch.sorted_results if scratch else None
        )
        reduced_all = _reduce_sorted_groups(
            program, sorted_results, group_starts, block.nnz
        )
        sent_sorted = _gather(
            sent, order, scratch.sent_sorted if scratch else None
        )
        received = np.logical_or.reduceat(sent_sorted, group_starts)
        edges = block.nnz
        return BlockResult(
            partition,
            unique_rows[received],
            reduced_all[received],
            edges,
            n_active,
            kernel,
            time.perf_counter() - t0,
            events=dict(
                user_calls=6,
                element_ops=3 * edges,
                random_accesses=edges + int(received.sum()),
                sequential_bytes=edges * 24,
                messages=n_active,
                allocations=2 if scratch is not None else 6,
            ),
        )

    # Shared packed path: dense-pull with full coverage walks the whole
    # block; sparse-gather expands only the active columns' spans.
    if full_coverage:
        edge_dst = block.ir
        edge_vals = block.num
        src_cols = block.col_expanded()
        edges = block.nnz
    else:
        starts = block.cp[active_pos]
        lengths = block.cp[active_pos + 1] - starts
        if scratch is not None:
            take = _expand_spans_into(starts, lengths, scratch.take)
            src_cols = _repeat_into(
                block.jc[active_pos], lengths, scratch.src_cols
            )
            edges = int(take.shape[0])
            edge_dst = _gather(block.ir, take, scratch.edge_dst)
            edge_vals = _gather(block.num, take, scratch.edge_vals)
        else:
            take = _expand_spans(starts, lengths)
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
        messages = _gather(
            x_values, src_cols, scratch.messages if scratch else None
        )
        dst_props = _gather(
            properties_data, edge_dst, scratch.dst_props if scratch else None
        )
        results = program.process_message_batch(messages, edge_vals, dst_props)
    unique_dst, reduced = _reduce_by_destination(
        program,
        np.asarray(results),
        edge_dst,
        block,
        full_coverage=full_coverage,
        scratch=scratch,
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
            allocations=2 if scratch is not None else 5,
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


def _gather_lanes(source: np.ndarray, idx: np.ndarray, buffer: np.ndarray | None):
    """``source[:, idx]`` through a preallocated *flat* buffer.

    The lane-major analogue of :func:`_gather` (axis-1 take).  The
    buffer is 1-D of capacity ``K * cap``; the gather writes a fully
    contiguous ``(K, len(idx))`` view of it, which keeps the downstream
    ``reduceat`` inner loops on contiguous memory (a ``buffer[:, :m]``
    slice of a 2-D buffer would leave every lane row strided).  Falls
    back to fancy indexing when the buffer is missing or too small.
    """
    k = source.shape[0]
    m = idx.shape[0]
    if (
        buffer is not None
        and buffer.dtype == source.dtype
        and k * m <= buffer.shape[0]
    ):
        out = buffer[: k * m].reshape(k, m)
        # K separate contiguous 1-D takes beat one axis-1 take: numpy's
        # 1-D fancy-take inner loop is its fastest gather path.
        for lane in range(k):
            np.take(source[lane], idx, out=out[lane])
        return out
    return source[:, idx]


def _tiled_process_reduce(
    program: GraphProgram,
    x_values: np.ndarray,
    sorted_cols: np.ndarray,
    sorted_vals: np.ndarray,
    group_starts: np.ndarray,
    edges: int,
    scratch,
    properties_lanes: np.ndarray | None,
    sorted_dst: np.ndarray | None,
) -> np.ndarray:
    """Segment-reduce the K-lane edge space in cache-sized tiles.

    Equivalent to gathering the full ``(K, edges)`` message block,
    broadcasting the process hook and running one ``reduceat`` — but
    performed tile by tile, with tile boundaries aligned to destination
    groups so every group reduces in one piece.  Bitwise identical to
    the monolithic form (same per-group left fold), cheaper by the full
    write+read round-trip of the edge-wide intermediate: the tile stays
    cache-resident, so the superstep's DRAM traffic is the frontier
    reads plus the output writes.

    A program declaring a ``lane_kernel`` (and reading no destination
    properties) runs the compiled sweep of :mod:`repro.core.ckernels`
    instead, with the same result bits; this NumPy fold is its fallback.
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
    buffer = scratch.messages if scratch is not None else None
    g0, lo = 0, 0
    while lo < edges:
        if lo + tile >= edges:
            g1, hi = n_groups, edges
        else:
            # Last group starting within the byte budget — the tile ends
            # *before* the budget so the scratch buffer always fits; a
            # single hub group larger than the tile advances alone (and
            # falls back to an allocating gather).
            g1 = int(
                np.searchsorted(group_starts, lo + tile, side="right") - 1
            )
            g1 = max(g1, g0 + 1)
            hi = edges if g1 >= n_groups else int(group_starts[g1])
        messages = _gather_lanes(x_values, sorted_cols[lo:hi], buffer)
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
    scratch=None,
    thresholds: KernelThresholds = DEFAULT_THRESHOLDS,
) -> BlockResult:
    """K-lane generalized SpMM over one DCSC block.

    ``x_valid``/``x_values`` are the lane-major ``(K, n)`` lane mask and
    message block of a :class:`repro.vector.multi_frontier.MultiFrontier`;
    ``properties_lanes`` is the ``(K, n, *property_shape)`` per-lane
    vertex state.  The kernel gathers each column's edge span **once**
    for the union of the lanes' active columns, broadcasts the program's
    process hook across lanes on the lane-major ``(K, edges)`` message block, and
    segment-reduces every lane in a single ``reduceat`` over the lane
    axis — so K concurrent queries pay for the edge data movement once.

    Contract: ``x_values`` must hold
    :meth:`~repro.core.graph_program.GraphProgram.batch_reduce_identity`
    at every invalid slot (a ``MultiFrontier`` built with
    ``fill=identity`` maintains this).  Silent lanes then contribute
    identity messages *by construction* — the kernel performs no masking
    pass and gathers its messages already in destination order (the
    cached ``dst_sorted_cols`` index on the dense path), so the steady
    state is one ``(K, edges)`` gather plus one ``(K, edges)`` reduceat.

    Kernel selection is :func:`select_kernel` on the edges under the
    columns active in *any* lane (the shared sweep's work); the scalar
    kernel never applies — a per-edge Python loop across K lanes is
    exactly the dispatch overhead batching exists to amortize, so tiny
    aggregate frontiers run sparse-gather instead.

    Like :func:`run_block` this is a pure function of its arguments and
    never touches shared output state, which is what lets every executor
    in :mod:`repro.exec` schedule it across threads or processes.
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
        block, frontier_edge_count(block, active_pos), program,
        program.message_spec, program.result_spec, thresholds,
    )
    if kernel == KERNEL_SCALAR:
        kernel = KERNEL_SPARSE
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
        sorted_order = None  # already destination-ordered
    else:
        # Sparse gather: expand only the union-active columns' spans,
        # then compose index arrays (cheap 1-D int ops) so the wide
        # per-lane gathers happen once, directly in destination order.
        span_starts = block.cp[active_pos]
        lengths = block.cp[active_pos + 1] - span_starts
        if scratch is not None:
            take = _expand_spans_into(span_starts, lengths, scratch.take)
            src_cols = _repeat_into(
                block.jc[active_pos], lengths, scratch.src_cols
            )
            edges = int(take.shape[0])
            edge_dst = _gather(block.ir, take, scratch.edge_dst)
        else:
            take = _expand_spans(span_starts, lengths)
            edges = int(take.shape[0])
            edge_dst = block.ir[take]
            src_cols = np.repeat(block.jc[active_pos], lengths)
        if edges == 0:
            return BlockResult(
                partition, None, None, 0, n_active, kernel,
                time.perf_counter() - t0,
            )
        sorted_order = destination_order(edge_dst, block.row_range)
        sorted_take = _gather(
            take, sorted_order, scratch.sorted_idx if scratch else None
        )
        # ``take`` is free after this point; reuse its buffer.
        sorted_cols = _gather(
            src_cols, sorted_order, scratch.take if scratch else None
        )
        sorted_vals = _gather(
            block.num, sorted_take, scratch.edge_vals if scratch else None
        )
        sorted_dst = _gather(
            edge_dst, sorted_order, scratch.src_cols if scratch else None
        )
        boundary = np.empty(edges, dtype=bool)
        boundary[0] = True
        boundary[1:] = sorted_dst[1:] != sorted_dst[:-1]
        group_starts = np.flatnonzero(boundary)
        unique_dst = sorted_dst[group_starts].copy()

    # The wide work, tiled so the (tile, K) message block stays
    # cache-resident: gather -> process -> segment-reduce per tile.
    reduced_all = _tiled_process_reduce(
        program,
        x_values,
        sorted_cols,
        sorted_vals,
        group_starts,
        edges,
        scratch,
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
        sent = _gather_lanes(
            x_valid, sorted_cols, scratch.sent if scratch else None
        )
        received_all = np.logical_or.reduceat(
            sent[:, :edges], group_starts, axis=1
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
            allocations=2 if scratch is not None else 5,
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
    scratch=None,
    kernel_counts: dict[str, int] | None = None,
    thresholds: KernelThresholds = DEFAULT_THRESHOLDS,
) -> int:
    """One generalized multiply over a view, serially over its partitions.

    ``kernel`` is :func:`run_block` (``x``/``y`` bitvector-backed sparse
    vectors, ``properties`` the ``(n, ...)`` vertex state) or
    :func:`run_block_batch` (``x``/``y`` :class:`MultiFrontier` blocks,
    ``properties`` the ``(K, n, ...)`` per-lane state).  ``scratch``
    optionally maps partition index to that kernel's preallocated
    buffers.  Returns the number of edges swept.  The parallel executors
    in :mod:`repro.exec` run the same kernel concurrently.
    """
    x_valid = x.valid_mask()
    x_values = x.values
    total_edges = 0
    for p, block in enumerate(blocks):
        result = kernel(
            p,
            block,
            x_valid,
            x_values,
            program,
            properties,
            scratch.get(p) if scratch is not None else None,
            thresholds,
        )
        total_edges += apply_block_result(
            result, y, program, counters, partition_work, kernel_counts
        )
    return total_edges
