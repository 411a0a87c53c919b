"""Kernel registry: names and selection thresholds.

Every per-block kernel the engine can run is named and selected here, in
one place: :func:`select_kernel` decides *which shape* of kernel a
(block, frontier) pair wants — scalar loop, sparse-gather or dense-pull
— and :mod:`repro.core.spmv` implements each shape for one lane
(:func:`~repro.core.spmv.run_block`) and for K lanes
(:func:`~repro.core.spmv.run_block_batch`).  Every executor runs those
same kernels, so a given (block, frontier) runs the same kernel whatever
the backend.

See ``docs/KERNELS.md`` for the taxonomy and the selection heuristics in
prose, with a worked ``kernel_counts`` example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

#: Kernel names recorded into PartitionWork / IterationStats.
KERNEL_SCALAR = "scalar"
KERNEL_SPARSE = "sparse-gather"
KERNEL_DENSE = "dense-pull"
KERNEL_NAMES = (KERNEL_SCALAR, KERNEL_SPARSE, KERNEL_DENSE)

#: The (reduce, process) pairs with a compiled lane sweep
#: (:mod:`repro.core.ckernels`); both kernel shapes run them.
MIN_PLUS_KERNEL = "min-plus"  # min over message + edge value
MIN_PLUS_C_KERNEL = "min-plus-c"  # min over message + a constant
MIN_FIRST_KERNEL = "min-first"  # min over the message


class LaneKernel(NamedTuple):
    """A program's ``lane_kernel`` key: which compiled sweep computes
    its ``process_message_lanes`` + ``reduce_ufunc`` exactly."""

    name: str
    #: The ``c`` of ``min-plus-c``; unused by the other two.
    constant: float = 0.0


#: Frontiers holding at most this many edges run the per-edge scalar
#: kernel: below it, numpy's fixed per-call setup cost exceeds the
#: per-edge Python dispatch it saves.
SCALAR_KERNEL_MAX_EDGES = 32

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


@dataclass(frozen=True)
class KernelThresholds:
    """The kernel selector's crossovers, in edges, as one value object.

    Built from ``EngineOptions`` by the engine (``scalar_kernel_max_edges``
    / ``dense_pull_crossover``) and threaded through the executors to
    every :func:`select_kernel` call, so ``repro.bench.backends`` can
    sweep the crossover per run instead of patching module constants.
    """

    scalar_max_edges: int = SCALAR_KERNEL_MAX_EDGES
    dense_crossover: float = DENSE_PULL_CROSSOVER

    @classmethod
    def from_options(cls, options) -> "KernelThresholds":
        """Thresholds carried by an ``EngineOptions`` instance."""
        return cls(
            scalar_max_edges=int(options.scalar_kernel_max_edges),
            dense_crossover=float(options.dense_pull_crossover),
        )


DEFAULT_THRESHOLDS = KernelThresholds()


def _has_scalar_hooks(program) -> bool:
    """True when the program overrides the per-edge scalar hooks.

    ``supports_fused`` only requires the batch surface; a batch-only
    program must never be routed to the scalar kernel.
    """
    from repro.core.graph_program import GraphProgram

    cls = type(program)
    return (
        cls.process_message is not GraphProgram.process_message
        and cls.reduce is not GraphProgram.reduce
    )


def frontier_edge_count(block, active_pos) -> int:
    """Stored edges of ``block`` under the active column positions.

    Exact, and O(active): the column pointers are already a prefix sum.
    """
    if active_pos.shape[0] == block.nzc:
        return block.nnz
    return int((block.cp[active_pos + 1] - block.cp[active_pos]).sum())


def select_kernel(
    block,
    frontier_edges: int,
    program,
    message_spec,
    result_spec,
    thresholds: KernelThresholds = DEFAULT_THRESHOLDS,
) -> str:
    """Pick the fused kernel for one (block, frontier) pair.

    Work-proportional: the decision compares the edges the frontier
    would gather (``frontier_edges``, see :func:`frontier_edge_count`)
    with the edges a pull touches (``block.nnz``), weighted by what an
    edge costs in each kernel (``thresholds.dense_crossover``).  A
    column count says nothing about either on a skewed graph, where a
    few hub columns hold most of a block's edges.  K-lane callers pass
    the edges under the *union* of the lanes' active columns.
    """
    if frontier_edges >= block.nnz:
        return KERNEL_DENSE  # full coverage: every stored edge fires
    if (
        frontier_edges <= thresholds.scalar_max_edges
        and result_spec.is_scalar
        and result_spec.dtype != object
        and message_spec.dtype != object
        and _has_scalar_hooks(program)
    ):
        return KERNEL_SCALAR
    if (
        program.reduce_identity is not None
        and message_spec.is_scalar
        and message_spec.dtype != object
        and thresholds.dense_crossover * frontier_edges > block.nnz
    ):
        return KERNEL_DENSE  # masked pull over every edge
    return KERNEL_SPARSE
