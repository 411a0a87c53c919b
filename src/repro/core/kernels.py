"""Kernel registry: names and selection thresholds.

Every per-block kernel the engine can run is named and selected here, in
one place: :func:`select_kernel` decides *which shape* of kernel a
(block, frontier) pair wants — sparse-gather or dense-pull — for the
K-lane kernel (:func:`~repro.core.spmv.run_block_batch`); the generic
one-lane kernel (:func:`~repro.core.spmv.run_block`) has one packed
path and is tagged by column coverage.  Every executor runs those same
kernels, so a given (block, frontier) runs the same kernel whatever the
backend.

See ``docs/KERNELS.md`` for the taxonomy and the selection heuristics in
prose, with a worked ``kernel_counts`` example.
"""

from __future__ import annotations

from typing import NamedTuple

#: Kernel names recorded into PartitionWork / IterationStats.
KERNEL_SPARSE = "sparse-gather"
KERNEL_DENSE = "dense-pull"
KERNEL_NAMES = (KERNEL_SPARSE, KERNEL_DENSE)

#: The (reduce, process) pairs with a compiled lane sweep
#: (:mod:`repro.core.ckernels`); both kernel shapes run them.
MIN_PLUS_KERNEL = "min-plus"  # min over message + edge value
MIN_PLUS_C_KERNEL = "min-plus-c"  # min over message + a constant
MIN_FIRST_KERNEL = "min-first"  # min over the message
PLUS_TIMES_KERNEL = "plus-times"  # sum of message * edge value
PLUS_FIRST_KERNEL = "plus-first"  # sum of the messages


class LaneKernel(NamedTuple):
    """A program's ``lane_kernel`` key: which compiled sweep computes
    its ``process_message_lanes`` + ``reduce_ufunc`` exactly."""

    name: str
    #: The ``c`` of ``min-plus-c``; unused by the others.
    constant: float = 0.0


#: Default dense-pull crossover, in edges: pull every stored edge when
#: the frontier's columns hold more than ``1 / DENSE_PULL_CROSSOVER`` of
#: them (``crossover * frontier_edges > nnz``).  It stands for what a
#: gathered edge costs relative to a pulled one (a sort, index
#: composition and scattered reads against one pass through the block's
#: cached destination order).  The value comes from the
#: ``crossover_sweep`` section of ``BENCH_backends.json``.  Swept for the
#: NumPy fold, BFS+SSSP time was flat from 4 to 16 at K=1 and within
#: 10 % of its best from 2 to 16 at K=16.  With the compiled min kernels
#: the two lane counts disagree (best 16 at K=1, 4 at K=16), so 6 stays
#: (docs/KERNELS.md, "Selection thresholds").  Ligra's ``m / 20`` and
#: Beamer's alpha = 14 are the same rule.
DENSE_PULL_CROSSOVER = 6.0


def frontier_edge_count(block, active_pos) -> int:
    """Stored edges of ``block`` under the active column positions.

    Exact, and O(active): the column pointers are already a prefix sum.
    """
    if active_pos.shape[0] == block.nzc:
        return block.nnz
    return int((block.cp[active_pos + 1] - block.cp[active_pos]).sum())


def select_kernel(
    block, frontier_edges: int, crossover: float = DENSE_PULL_CROSSOVER
) -> str:
    """Pick the lane kernel's shape for one (block, frontier) pair.

    Work-proportional: the decision compares the edges the frontier
    would gather (``frontier_edges``, see :func:`frontier_edge_count`)
    with the edges a pull touches (``block.nnz``), weighted by what an
    edge costs in each kernel (``crossover``).  A column count says
    nothing about either on a skewed graph, where a few hub columns hold
    most of a block's edges.  K-lane callers pass the edges under the
    *union* of the lanes' active columns.
    """
    if frontier_edges >= block.nnz or crossover * frontier_edges > block.nnz:
        return KERNEL_DENSE
    return KERNEL_SPARSE
