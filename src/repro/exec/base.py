"""Executor abstraction: where a superstep's block kernels actually run.

GraphMat's partition layer guarantees disjoint output row ranges "so
different threads can process blocks without locks" (section 4.4.1); an
:class:`Executor` is the component that exploits that guarantee.  The
engine hands it a block kernel, one partitioned matrix view and the
frontier, and it returns with the result vector ``y`` updated:

- :class:`SerialExecutor` — run blocks in the calling thread (the
  reference schedule),
- :class:`~repro.exec.threaded.ThreadedExecutor` — a thread pool over
  the same address space; the NumPy and C kernels release the GIL, so
  block kernels overlap.

An executor schedules *the kernel it is given*
(:func:`repro.core.spmv.run_block` or
:func:`repro.core.spmv.run_block_batch` — same signature, same
:class:`~repro.core.spmv.BlockResult`) and merges results in partition
order; it does not know which family it is running.  Results are
identical bit for bit across backends — block merges commute because row
ranges are disjoint, and within a block the accumulation order is fixed.
"""

from __future__ import annotations

from repro.core.spmv import (
    DENSE_PULL_CROSSOVER,
    BlockResult,
    apply_block_result,
    sweep_view,
)


class Executor:
    """Strategy interface for running a view's block kernels."""

    #: Registry name (matches ``EngineOptions.backend``).
    name: str = "?"

    def sweep(
        self,
        kernel,
        view_index: int,
        view,
        x,
        y,
        program,
        properties,
        counters=None,
        partition_work=None,
        kernel_counts=None,
        scratch=None,
        crossover=DENSE_PULL_CROSSOVER,
    ) -> int:
        """Run ``kernel`` over every block of ``view``, merging into ``y``.

        ``x``/``y``/``properties`` are whatever ``kernel`` consumes: a
        sparse-vector pair and the ``(n, ...)`` vertex state for
        ``run_block``, :class:`~repro.vector.multi_frontier.MultiFrontier`
        blocks and the ``(K, n, ...)`` per-lane state for
        ``run_block_batch``.  Returns the number of edges swept (each
        edge counted once however many lanes it served).
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release the worker pool.  Idempotent."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def finish_view(
    results: list[BlockResult],
    y,
    program,
    counters=None,
    partition_work=None,
    kernel_counts=None,
) -> int:
    """Merge collected block results into ``y`` in partition order.

    Merges commute (disjoint rows), but applying in partition order keeps
    ``partition_work`` deterministic for the parallel-model replay.
    """
    results = sorted(results, key=lambda r: r.partition)
    edges = 0
    for result in results:
        edges += apply_block_result(
            result, y, program, counters, partition_work, kernel_counts
        )
    return edges


class SerialExecutor(Executor):
    """Run every block in the calling thread, in partition order."""

    name = "serial"

    def __init__(self, n_workers: int = 1) -> None:
        self.n_workers = int(n_workers)

    def sweep(
        self,
        kernel,
        view_index: int,
        view,
        x,
        y,
        program,
        properties,
        counters=None,
        partition_work=None,
        kernel_counts=None,
        scratch=None,
        crossover=DENSE_PULL_CROSSOVER,
    ) -> int:
        return sweep_view(
            kernel,
            view,
            x,
            y,
            program,
            properties,
            counters,
            partition_work,
            scratch=scratch,
            kernel_counts=kernel_counts,
            crossover=crossover,
        )
