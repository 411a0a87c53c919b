"""Kernel registry: names, selection thresholds and the JIT op table.

Every per-block kernel the engine can run is named and selected here, in
one place, so the NumPy tier (:mod:`repro.core.spmv`) and the compiled
tier (:mod:`repro.exec.jit`) share a single selection/threshold path:
:func:`select_kernel` decides *which shape* of kernel a (block, frontier)
pair wants — scalar loop, sparse-gather or dense-pull — and each tier
supplies its own implementation of that shape.  The jit tier reuses the
decision verbatim and only renames the kernel it actually ran
(``"sparse-gather"`` → ``"jit-sparse-gather"``) so ``kernel_counts``
breakdowns attribute work to the tier that did it.

The registry also fixes which (process, reduce) pairs the compiled tier
knows how to fuse: :data:`JIT_SEMIRINGS` maps a semiring name declared
on a program (``GraphProgram.jit_semiring``) to an integer op code the
compiled kernels dispatch on.  Anything not in the table runs on the
NumPy kernels — per block, with no change in results.

See ``docs/KERNELS.md`` for the taxonomy and the selection heuristics in
prose, with a worked ``kernel_counts`` example.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Kernel names recorded into PartitionWork / IterationStats.
KERNEL_SCALAR = "scalar"
KERNEL_SPARSE = "sparse-gather"
KERNEL_DENSE = "dense-pull"
KERNEL_NAMES = (KERNEL_SCALAR, KERNEL_SPARSE, KERNEL_DENSE)

#: Compiled-tier kernel names.  Same selection, different implementation:
#: a block recorded as ``jit-sparse-gather`` ran the compiled per-edge
#: loop where the NumPy tier would have run ``sparse-gather``.
KERNEL_JIT_SPARSE = "jit-sparse-gather"
KERNEL_JIT_DENSE = "jit-dense-pull"
JIT_KERNEL_NAMES = (KERNEL_JIT_SPARSE, KERNEL_JIT_DENSE)

#: NumPy-tier name -> compiled-tier name.
JIT_KERNEL_FOR = {
    KERNEL_SPARSE: KERNEL_JIT_SPARSE,
    KERNEL_DENSE: KERNEL_JIT_DENSE,
}

#: Frontiers holding at most this many edges run the per-edge scalar
#: kernel: below it, numpy's fixed per-call setup cost exceeds the
#: per-edge Python dispatch it saves.
SCALAR_KERNEL_MAX_EDGES = 32

#: Default dense-pull crossover, in edges: pull every stored edge when
#: the frontier's columns hold more than ``1 / DENSE_PULL_CROSSOVER`` of
#: them (``crossover * frontier_edges > nnz``).  It stands for what a
#: gathered edge costs relative to a pulled one (a sort, index
#: composition and scattered reads against one pass through the block's
#: cached destination order: 47 ns against 6 ns at K=1).  The value is
#: taken from the ``crossover_sweep`` section of ``BENCH_backends.json``:
#: BFS+SSSP time is flat from 4 to 16 at K=1 and within 10 % of its best
#: from 2 to 16 at K=16 (docs/KERNELS.md, "Selection thresholds").
#: Ligra's ``m / 20`` and Beamer's alpha = 14 are the same rule.
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
    the edges under the *union* of the lanes' active columns.  Both the
    NumPy and the compiled tier dispatch on this one function, so a
    given (block, frontier) always runs the same kernel *shape*
    regardless of backend.
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


# ----------------------------------------------------------------------
# JIT op registry: the (process, reduce) pairs the compiled tier fuses
# ----------------------------------------------------------------------
#: Integer op codes dispatched inside the compiled kernels.  Module-level
#: constants (not an enum) so the numba-compiled dispatch is a plain
#: integer compare chain and the kernels stay cacheable.
JIT_OP_PLUS_TIMES = 0  # process: m * e          reduce: +
JIT_OP_MIN_PLUS = 1    # process: m + e          reduce: min
JIT_OP_MIN_FIRST = 2   # process: m              reduce: min
JIT_OP_PLUS_FIRST = 3  # process: m              reduce: +
JIT_OP_OR_AND = 4      # process: m and e (0/1)  reduce: or (0/1)
JIT_OP_MIN_PLUS_C = 5  # process: m + const      reduce: min


@dataclass(frozen=True)
class JitOp:
    """One compiled (process, reduce) pair.

    ``code`` is the integer the compiled kernels dispatch on;
    ``uses_const`` marks ops whose process hook folds in the program's
    ``jit_const`` (e.g. BFS's ``message + 1.0``) rather than the edge
    value.
    """

    code: int
    uses_const: bool = False


#: ``GraphProgram.jit_semiring`` name -> compiled op.  A program naming
#: one of these certifies that, element for element, its
#: ``process_message(m, e, p)`` equals the op's process (ignoring the
#: destination property) and its ``reduce`` equals the op's fold — on
#: float64 scalars.  That certification is what lets the jit tier skip
#: the program's Python hooks entirely.
JIT_SEMIRINGS = {
    "plus-times": JitOp(JIT_OP_PLUS_TIMES),
    "min-plus": JitOp(JIT_OP_MIN_PLUS),
    "min-first": JitOp(JIT_OP_MIN_FIRST),
    "plus-first": JitOp(JIT_OP_PLUS_FIRST),
    "or-and": JitOp(JIT_OP_OR_AND),
    "min-plus-c": JitOp(JIT_OP_MIN_PLUS_C, uses_const=True),
}
