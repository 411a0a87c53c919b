"""Sorted-key merge machinery for delta overlays (``repro.dynamic``).

A :class:`~repro.matrix.dcsc.DCSCMatrix` block stores unique ``(col, row)``
coordinates in canonical column-major order, so a block *is* a sorted set
keyed by ``col * n_rows + row``.  Applying a batch of edge insertions
(upserts) and deletions to a block is then three linear-time array passes —
locate, delete, merge — instead of a full re-sort:

1. encode the batch coordinates with the same key,
2. drop base entries whose key is deleted or replaced
   (``np.searchsorted`` into the sorted base keys),
3. splice the sorted insertions into the surviving run (``np.insert``).

The merged arrays are exactly what :meth:`DCSCMatrix.from_coo` would
produce from the union edge set — same canonical order, same values — so
a block merged this way is **bitwise identical** to one rebuilt from
scratch.  That identity is what makes delta-overlay query results
(including order-sensitive floating-point sums like PageRank's) bitwise
equal to a full rebuild; see ``docs/DYNAMIC.md``.

Keys are int64: ``col * n_rows + row`` requires ``n_rows * n_cols < 2**63``,
checked once per merge (any graph that fits in memory satisfies it by
orders of magnitude).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.matrix.dcsc import DCSCMatrix

#: ``n_rows * n_cols`` bound for exact int64 coordinate keys.
_MAX_KEY_SPACE = 2**63


def check_key_space(shape: tuple[int, int]) -> None:
    """Raise if ``(col, row)`` pairs cannot be packed into int64 keys."""
    if int(shape[0]) * int(shape[1]) >= _MAX_KEY_SPACE:
        raise ShapeError(
            f"matrix shape {shape} exceeds the int64 coordinate-key space; "
            f"delta merging requires n_rows * n_cols < 2**63"
        )


def encode_keys(major: np.ndarray, minor: np.ndarray, minor_span: int) -> np.ndarray:
    """Pack ``(major, minor)`` coordinate pairs into sortable int64 keys."""
    return major.astype(np.int64) * np.int64(minor_span) + minor.astype(np.int64)


def dedup_last_by_key(
    keys: np.ndarray, *aligned: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Sort by key keeping the **last** occurrence of each duplicate.

    Returns ``(sorted_unique_keys, *aligned_picked)``.  This is the
    repeated-edge-insertion semantics of ``COOMatrix.deduplicated("last")``
    applied to a mutation batch: later entries in the batch win.
    """
    if keys.size == 0:
        return (keys.astype(np.int64), *aligned)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    is_last = np.empty(sorted_keys.shape[0], dtype=bool)
    is_last[:-1] = sorted_keys[1:] != sorted_keys[:-1]
    is_last[-1] = True
    picked = order[is_last]
    return (sorted_keys[is_last], *(arr[picked] for arr in aligned))


def sorted_membership(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean mask over ``needles``: which appear in sorted ``haystack``."""
    if needles.size == 0 or haystack.size == 0:
        return np.zeros(needles.shape[0], dtype=bool)
    pos = np.searchsorted(haystack, needles)
    hit = pos < haystack.shape[0]
    hit[hit] = haystack[pos[hit]] == needles[hit]
    return hit


def merge_sorted_unique(
    base_keys: np.ndarray,
    ins_keys: np.ndarray,
    del_keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Apply sorted-unique upserts/deletes to a sorted-unique key run.

    Returns ``(merged_keys, keep_mask, insert_positions, hit_mask)``:

    - ``keep_mask`` — base entries surviving (neither deleted nor replaced),
    - ``insert_positions`` — where each insert lands in the *kept* run
      (``np.insert`` convention: positions index the pre-insert array),
    - ``hit_mask`` — which inserts replaced an existing base key.

    ``del_keys`` and ``ins_keys`` must each be sorted and unique;
    overlapping keys between them are the caller's contract violation
    (fold delete-then-insert batches into upserts first).
    """
    keep = np.ones(base_keys.shape[0], dtype=bool)
    if del_keys.size:
        pos = np.searchsorted(base_keys, del_keys)
        ok = pos < base_keys.shape[0]
        ok[ok] = base_keys[pos[ok]] == del_keys[ok]
        keep[pos[ok]] = False
    hit = np.zeros(ins_keys.shape[0], dtype=bool)
    if ins_keys.size:
        pos = np.searchsorted(base_keys, ins_keys)
        ok = pos < base_keys.shape[0]
        ok[ok] = base_keys[pos[ok]] == ins_keys[ok]
        hit = ok
        keep[pos[ok]] = False
    kept_keys = base_keys[keep]
    positions = np.searchsorted(kept_keys, ins_keys)
    merged = np.insert(kept_keys, positions, ins_keys)
    return merged, keep, positions, hit


@dataclass(frozen=True)
class BlockDelta:
    """A mutation batch restricted to one block, in block-key order.

    ``rows``/``cols`` are global coordinates; ``ins_*`` arrays are aligned
    and sorted by the block's column-major key (unique keys), as are
    ``del_rows``/``del_cols``.  Insert and delete key sets are disjoint.
    """

    ins_rows: np.ndarray
    ins_cols: np.ndarray
    ins_vals: np.ndarray
    del_rows: np.ndarray
    del_cols: np.ndarray

    @property
    def size(self) -> int:
        return int(self.ins_rows.shape[0] + self.del_rows.shape[0])


def merge_block(block: DCSCMatrix, delta: BlockDelta) -> DCSCMatrix:
    """One block with ``delta`` applied, rebuilt canonically.

    The result owns fresh arrays (never aliases a base mmap) and is
    bitwise identical to ``DCSCMatrix.from_coo`` over the merged edge
    set restricted to the block's ``row_range``.

    The base block's derived kernel caches are *transplanted* rather
    than recomputed: the destination-grouping permutation
    (:meth:`DCSCMatrix.dst_groups`, an O(nnz log nnz) argsort the
    engine's view warm-up would otherwise pay per epoch) is merged
    through the edit in O(nnz + delta·log) — see
    :func:`_transplant_dst_groups` — and ``col_expanded`` falls out of
    the key decode for free.  Warming the base block once amortizes
    across every later epoch that touches the partition.
    """
    check_key_space(block.shape)
    n_rows = block.shape[0]
    base_keys = encode_keys(block.col_expanded(), block.ir, n_rows)
    ins_keys = encode_keys(delta.ins_cols, delta.ins_rows, n_rows)
    del_keys = encode_keys(delta.del_cols, delta.del_rows, n_rows)
    merged_keys, keep, positions, _ = merge_sorted_unique(
        base_keys, ins_keys, del_keys
    )
    rows = np.insert(block.ir[keep], positions, delta.ins_rows)
    vals = np.insert(
        block.num[keep],
        positions,
        delta.ins_vals.astype(block.num.dtype, copy=False),
    )
    cols = merged_keys // n_rows
    merged = DCSCMatrix.from_sorted_arrays(
        block.shape, rows, cols, vals, row_range=block.row_range
    )
    groups = _transplant_dst_groups(
        block, keep, positions, delta.ins_rows, rows
    )
    if groups is not None:
        merged.install_caches(cols, groups)
    return merged


def _transplant_dst_groups(
    block: DCSCMatrix,
    keep: np.ndarray,
    positions: np.ndarray,
    ins_rows: np.ndarray,
    merged_ir: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The merged block's :meth:`DCSCMatrix.dst_groups`, derived from the
    base block's in O(nnz + delta·log) instead of a fresh argsort.

    ``dst_groups`` is the *stable* argsort of ``ir``: entries ordered by
    (row, edge index).  Surviving base entries keep their relative edge
    order under the splice (new index is monotone in old index), so the
    base permutation filtered to the survivors and reindexed is already
    sorted by (row, new index); the insertions, sorted by row with ties
    in splice order, form a second sorted run; one unique-key merge
    (``row * (nnz + 1) + new_index``) interleaves them exactly as the
    stable argsort would.  Returns None when the key encoding would
    overflow int64 (then the lazy argsort path applies).
    """
    merged_nnz = int(merged_ir.shape[0])
    span = np.int64(merged_nnz + 1)
    if int(block.shape[0]) * int(span) >= _MAX_KEY_SPACE:
        return None
    base_order, _, _ = block.dst_groups()
    kept_in_order = base_order[keep[base_order]]
    kept_rank = np.cumsum(keep) - 1
    j = kept_rank[kept_in_order]
    # #inserts splicing at-or-before each kept rank, as a prefix sum
    # (a searchsorted over the unsorted j would be ~8x slower).
    splice_counts = np.bincount(positions, minlength=j.shape[0] + 1)
    new_kept = j + np.cumsum(splice_counts)[j]
    ins_order = np.argsort(ins_rows, kind="stable")
    new_ins = (positions + np.arange(positions.shape[0], dtype=np.int64))[
        ins_order
    ]
    kept_keys = block.ir[kept_in_order] * span + new_kept
    ins_keys = ins_rows[ins_order] * span + new_ins
    pos = np.searchsorted(kept_keys, ins_keys)
    order = np.insert(new_kept, pos, new_ins)
    sorted_ir = merged_ir[order]
    if sorted_ir.shape[0]:
        boundary = np.empty(sorted_ir.shape[0], dtype=bool)
        boundary[0] = True
        boundary[1:] = sorted_ir[1:] != sorted_ir[:-1]
        starts = np.flatnonzero(boundary)
        unique_rows = sorted_ir[starts]
    else:
        starts = np.zeros(0, dtype=np.int64)
        unique_rows = np.zeros(0, dtype=np.int64)
    return order, starts, unique_rows
