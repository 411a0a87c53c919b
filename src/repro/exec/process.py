"""Process-pool executor with shared-memory superstep broadcast.

True parallelism (no GIL) at the price of an address-space boundary.
The boundary is paid exactly once per workspace for the static data and
once per superstep — as a ``memcpy``, not a pickle — for the dynamic
data:

- **once per workspace**: the partitioned DCSC views and the program are
  shipped to every worker through the pool initializer.  Blocks drop
  their derived caches for the trip (see ``DCSCMatrix.__getstate__``)
  and rebuild them lazily worker-side, where they persist for the
  workspace's lifetime, as do the worker's scratch buffers.
  Snapshot-backed views (``repro.store``) make even that hand-off
  O(n_partitions): each block serializes as a ``(path, view, block)``
  reference and workers attach to the snapshot's mmap by file path —
  no per-block array pickling, and all workers share the kernel page
  cache for the graph.  ``prepare`` records the estimated hand-off size
  in :attr:`ProcessExecutor.ship_bytes` so benchmarks can attribute the
  startup win.
- **once per superstep**: the frontier (validity mask + message values)
  and the vertex-property array are copied into shared-memory segments
  the workers map once and read directly.  Tasks then carry only the
  kernel's name and block indices.
- **per block**: the worker returns the block's destination-grouped
  reduction (``unique_dst``, ``reduced``) — output-proportional, not
  edge-proportional — and the parent merges it into ``y``; partitions
  own disjoint output rows, so merges need no locks.

Blocks are grouped into ``n_workers`` nnz-balanced chunks
(:meth:`PartitionedMatrix.schedule_chunks`) so one heavy partition does
not serialize the superstep.

Programs whose message/result/property specs are Python objects cannot
cross the process boundary through flat buffers; ``supports`` reports
False and the engine runs those programs on the serial schedule instead.

Because the program itself is shipped only once, its hooks must be pure
functions of their arguments for the run's duration: instance state
mutated between supersteps in the parent (e.g. an iteration counter
updated inside ``apply_batch``) is *not* re-broadcast and workers would
compute with the stale copy.  Every program in ``repro.algorithms``
satisfies this; state that must evolve per superstep belongs in the
vertex properties, which are re-broadcast.
"""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np

from repro.core.spmv import DEFAULT_THRESHOLDS
from repro.exec.base import Executor, finish_view

# ----------------------------------------------------------------------
# Worker-side state (one copy per worker process).
# ----------------------------------------------------------------------
_WORKER: dict = {}


def _init_worker(views, program) -> None:
    """Pool initializer: receive the static data once."""
    _WORKER["views"] = views
    _WORKER["program"] = program
    _WORKER["scratch"] = {}
    _WORKER["segments"] = {}  # shm name -> (SharedMemory, ndarray)


def _attach(segment_spec) -> np.ndarray:
    """Map one shared-memory segment as an ndarray (cached per worker)."""
    name, shape, dtype_str = segment_spec
    cached = _WORKER["segments"].get(name)
    if cached is not None:
        return cached[1]
    from multiprocessing import resource_tracker, shared_memory

    # The parent owns the segment's lifetime.  On Python < 3.13 merely
    # attaching registers the segment with the resource tracker, which
    # then tries to unlink it when any worker exits (double-unlink
    # warnings, and unregister races when workers share one tracker), so
    # suppress the registration for the duration of the attach.
    original_register = resource_tracker.register
    try:
        resource_tracker.register = lambda *a, **k: None
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register
    array = np.ndarray(tuple(shape), dtype=np.dtype(dtype_str), buffer=shm.buf)
    _WORKER["segments"][name] = (shm, array)
    return array


def _run_chunk(task):
    """Run one chunk of block kernels against the mapped superstep state."""
    from repro.exec.workspace import make_block_scratch, warm_block_caches

    kernel, view_index, block_ids, spec, thresholds = task
    x_valid = _attach(spec["x_valid"])
    x_values = _attach(spec["x_values"])
    properties = _attach(spec["props"])
    view = _WORKER["views"][view_index]
    program = _WORKER["program"]
    scratch_cache = _WORKER["scratch"]
    # A lane frontier's mask is lane-major (K, n); a single sparse
    # vector's is (n,).  The scratch family follows the frontier.
    n_lanes = int(x_valid.shape[0]) if x_valid.ndim == 2 else None
    # One max-capacity scratch per (view, lane count), shared by every
    # block this worker is handed (tasks run one at a time per worker):
    # the pool gives no chunk-to-worker affinity, so per-block scratch
    # would grow toward the whole graph's footprint in every worker.
    key = (view_index, n_lanes)
    scratch = scratch_cache.get(key)
    if scratch is None and view.blocks:
        biggest = max(view.blocks, key=lambda b: b.nnz)
        if biggest.nnz:
            scratch = scratch_cache[key] = make_block_scratch(
                biggest, program, n_lanes, capacity=biggest.nnz
            )
    results = []
    for p in block_ids:
        block = view.blocks[p]
        if block.nnz:
            warm_block_caches(block, n_lanes)
        results.append(
            kernel(
                p,
                block,
                x_valid,
                x_values,
                program,
                properties,
                scratch if block.nnz else None,
                thresholds,
            )
        )
    return results


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context every pool in the repo should use.

    fork is the cheap path (workers inherit everything copy-on-write,
    and stdin-driven parents survive — forkserver/spawn re-import
    __main__, which hangs heredoc/REPL parents).  The usual
    fork-with-threads caveat applies: create the process pool before
    starting heavy threading, or close any threaded Workspace first
    (idle ThreadPoolExecutor workers block in Condition.wait with the
    lock released, so the common case of an idle threaded pool is safe
    to fork past).  Shared by :class:`ProcessExecutor` and the parallel
    ingest pipeline (:mod:`repro.store.ingest`).
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ProcessExecutor(Executor):
    """Run block kernels on a persistent ``multiprocessing.Pool``."""

    name = "process"

    def __init__(self, n_workers: int = 2) -> None:
        self.n_workers = max(1, int(n_workers))
        self._pool = None
        self._views: list | None = None
        self._program = None
        self._chunks: list[list[list[int]]] = []  # per view, per worker
        self._segments: dict[str, tuple] = {}  # role -> (shm, ndarray, spec)
        #: Estimated bytes of static data a (spawn-style) worker hand-off
        #: moves: O(nnz) for in-memory views, O(n_partitions) path
        #: references for snapshot-backed ones.  Set by ``prepare``.
        self.ship_bytes: int = 0

    # -- capability ------------------------------------------------------
    def supports(self, program) -> bool:
        specs = (program.message_spec, program.result_spec, program.property_spec)
        if any(spec.dtype == object for spec in specs):
            return False
        try:
            pickle.dumps(program)
        except Exception:
            return False
        return True

    # -- lifecycle -------------------------------------------------------
    def prepare(self, views, program) -> None:
        same = (
            self._pool is not None
            and self._program is program
            and self._views is not None
            and len(self._views) == len(views)
            and all(a is b for a, b in zip(self._views, views))
        )
        if same:
            return
        self._shutdown_pool()
        ctx = pool_context()
        self._pool = ctx.Pool(
            self.n_workers,
            initializer=_init_worker,
            initargs=(list(views), program),
        )
        self._views = list(views)
        self._program = program
        self.ship_bytes = sum(view.payload_nbytes() for view in views)
        # The nnz-balanced chunk schedule is static per (view, pool).
        self._chunks = [view.schedule_chunks(self.n_workers) for view in views]

    def _ensure_segment(self, role: str, shape, dtype) -> np.ndarray:
        """(Re)allocate one shared segment when its shape/dtype changes."""
        current = self._segments.get(role)
        if (
            current is not None
            and current[1].shape == tuple(shape)
            and current[1].dtype == dtype
        ):
            return current[1]
        from multiprocessing import shared_memory

        if current is not None:
            current[0].close()
            current[0].unlink()
        nbytes = max(1, int(np.prod(shape)) * np.dtype(dtype).itemsize)
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        array = np.ndarray(tuple(shape), dtype=dtype, buffer=shm.buf)
        spec = (shm.name, tuple(int(s) for s in shape), np.dtype(dtype).str)
        self._segments[role] = (shm, array, spec)
        return array

    # -- sweep -----------------------------------------------------------
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
        thresholds=DEFAULT_THRESHOLDS,
    ) -> int:
        if self._pool is None:
            raise RuntimeError("ProcessExecutor.prepare() was not called")
        # Broadcast this superstep's state: plain memcpys into the mapped
        # segments, no pickling.  The frontier and properties are fixed
        # for the whole superstep, so ALL_EDGES programs (two views per
        # superstep) only pay the copy once — on the first view.
        if view_index == 0 or "x_valid" not in self._segments:
            x_valid = self._ensure_segment(
                "x_valid", x.valid_mask().shape, np.bool_
            )
            x_values = self._ensure_segment(
                "x_values", x.values.shape, x.values.dtype
            )
            props = self._ensure_segment(
                "props", properties.shape, properties.dtype
            )
            x.copy_into(x_valid, x_values)
            np.copyto(props, properties)
        spec = {
            role: seg[2] for role, seg in self._segments.items()
        }
        chunks = self._chunks[view_index]
        tasks = [
            (kernel, view_index, chunk, spec, thresholds) for chunk in chunks
        ]
        results = []
        for part in self._pool.map(_run_chunk, tasks, chunksize=1):
            results.extend(part)
        return finish_view(
            results, y, program, counters, partition_work, kernel_counts
        )

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        self._views = None
        self._program = None
        self._chunks = []

    def close(self) -> None:
        self._shutdown_pool()
        for shm, _array, _spec in self._segments.values():
            try:
                shm.close()
                shm.unlink()
            except (FileNotFoundError, OSError):
                pass
        self._segments = {}

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
