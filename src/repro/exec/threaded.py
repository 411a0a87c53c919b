"""Thread-pool executor: lock-free block parallelism under the GIL.

NumPy releases the GIL inside its C loops (gathers, ufuncs, sorts,
``reduceat``), so the heavy parts of different blocks' kernels genuinely
overlap on multicore machines even from Python threads.  The per-block
Python orchestration serializes, but it is a few dozen interpreter
operations per block against millions of edge operations.

Blocks are submitted individually to the pool's work queue.  The
default view has one row block per worker
(:meth:`~repro.core.options.EngineOptions.block_count`): paper section
4.5 item 4 over-partitions so that a dynamic schedule can balance its
cores, but here every extra block is one more Python round per
superstep, and with two workers two row blocks beat eight
(docs/EXECUTION.md).  The simulated-core knobs
(``n_threads``, ``partitions_per_thread``) still over-partition when
set.  Each block's kernel is a pure function (no shared writes); results
merge into ``y`` afterwards in partition order, which is safe because
partitions own disjoint output rows.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.core.spmv import DENSE_PULL_CROSSOVER
from repro.exec.base import Executor, finish_view


class ThreadedExecutor(Executor):
    """Run block kernels on a persistent :class:`ThreadPoolExecutor`."""

    name = "threaded"

    def __init__(self, n_workers: int = 2) -> None:
        self.n_workers = max(1, int(n_workers))
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="repro-spmv"
            )
        return self._pool

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
        pool = self._ensure_pool()
        x_valid = x.valid_mask()
        x_values = x.values
        futures = [
            pool.submit(
                kernel,
                p,
                block,
                x_valid,
                x_values,
                program,
                properties,
                scratch.get(p) if scratch is not None else None,
                crossover,
            )
            for p, block in enumerate(view)
        ]
        results = [future.result() for future in futures]
        return finish_view(
            results, y, program, counters, partition_work, kernel_counts
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self) -> None:  # best-effort: unclosed workspaces must
        try:                    # not leak non-daemon pool threads
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
        except Exception:
            pass
