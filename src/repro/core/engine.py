"""The GraphMat BSP driver (Algorithm 2): one superstep loop for every run.

Each superstep:

1. **Send** — every active vertex produces a message via the program's
   send hook; messages form a sparse vector ``x`` keyed by vertex id.
2. **Sweep** — generalized sparse matrix–sparse vector multiply of the
   graph view(s) selected by the program's edge direction with ``x``,
   using ``process_message`` as multiply and ``reduce`` as add.
3. **Apply** — every vertex with an entry in the result vector ``y`` runs
   the apply hook; vertices whose property changed become active for the
   next superstep.

The loop ends when no vertices are active or after
``options.max_iterations`` supersteps (-1 = run to quiescence, as in the
paper's ``run_graph_program(&inst, G, -1, &workspace)``).

There is exactly one loop (:func:`_run_supersteps`) and it is K-lane:
its state is a ``(K, n, ...)`` property block and a ``(K, n)`` active
mask, one lane per program instance.  :func:`run_graph_programs_batched`
runs K queries through it; :func:`run_graph_program` is the one-lane
case — it lifts ``graph.vertex_properties`` / ``graph.active`` into lane
0 *as views*, so the state lives on the graph exactly as in the paper's
API.  SpMV is SpMM with one column.

What a superstep's three phases call is chosen **once per run** from
what the program and options declare — never from the entry point:

- *lane-capable* programs (``GraphProgram.supports_batched()``: scalar
  numeric specs, a reduce ufunc, a declared identity) under the default
  ``fused`` + ``use_bitvector`` options run the K-lane family:
  :class:`~repro.vector.multi_frontier.MultiFrontier` vectors, the
  ``*_lanes`` / ``*_batch`` hooks and
  :func:`repro.core.spmv.run_block_batch` as the sweep,
- everything else — vector messages (collaborative filtering), object
  results (triangle counting), programs without a reduce ufunc/identity
  or with only the scalar hooks, and the paper's ``naive`` /
  ``+bitvector`` ablation rungs (``fused=False``) — runs the generic
  family with K fixed at 1: one sparse-vector pair, the ``*_batch``
  hooks with :func:`repro.core.spmv.run_block` as the sweep, or the
  scalar hooks with :func:`repro.core.spmv.spmv_scalar` (the literal
  Algorithm 1 the tests use as reference).

The engine exposes rich per-iteration statistics (message counts, edges
processed, per-block kernel choices, optional per-partition work) because
the multicore simulation and the Figure 5–7 benchmarks are driven by the
*measured* work distribution of real runs.

Execution backends & workspace reuse
------------------------------------

Every block sweep is :func:`repro.core.spmv.sweep_view`.
``options.backend`` only decides whether it gets a thread pool:
``"serial"`` runs the blocks in the calling thread (the reference
schedule), ``"threaded"`` submits one task per block to a
``ThreadPoolExecutor`` of ``options.n_workers`` threads (the NumPy and
C kernels release the GIL).  Partitions own disjoint output row ranges
(section 4.4.1), and results merge in partition order, so both backends
produce bitwise-identical algorithm outputs.  ``RunStats.backend``
records the schedule that ran the sweeps (``"serial"`` for Algorithm 1,
which no backend accelerates).

A run's ``x``/``y`` vectors are allocated once and cleared in place each
superstep, and the blocks' cached groupings are built before the first
one: in :func:`graph_program_init` when the caller holds a
:class:`Workspace` (which also keeps the thread pool across runs), else
once per run.  The kernels allocate the edge-sized arrays they gather.
Each superstep's per-block kernel shapes (``sparse-gather`` /
``dense-pull``, see :func:`repro.core.spmv.select_kernel`) are recorded
in ``IterationStats.kernel_counts``.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.graph_program import EdgeDirection, GraphProgram
from repro.core.options import DEFAULT_OPTIONS, EngineOptions
from repro.core.spmv import (
    PartitionWork,
    run_block,
    run_block_batch,
    spmv_scalar,
    sweep_view,
)
from repro.errors import ConvergenceError, ProgramError
from repro.graph.graph import Graph
from repro.vector.dense import PropertyArray
from repro.vector.multi_frontier import MultiFrontier
from repro.vector.sparse_vector import make_sparse_vector


@dataclass
class IterationStats:
    """What one superstep did."""

    iteration: int
    active_before: int
    messages_sent: int
    edges_processed: int
    vertices_updated: int
    activated: int
    seconds: float
    partition_work: list[PartitionWork] = field(default_factory=list)
    #: How many blocks ran each fused kernel this superstep
    #: (``{"sparse-gather": 3, "dense-pull": 5}``; empty on the scalar
    #: path).
    kernel_counts: dict[str, int] = field(default_factory=dict)
    #: Fraction of vertices that sent a message this superstep
    #: (``messages_sent / n_vertices``) — the global density signal
    #: behind the per-block kernel selections, recorded so benchmarks
    #: can explain kernel flips across supersteps.
    frontier_density: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready record (the ``/stats`` endpoint, load generators).

        Counters are cast to builtin int/float: kernel code accumulates
        numpy scalars, which ``json.dumps`` rejects.
        """
        return {
            "iteration": int(self.iteration),
            "active_before": int(self.active_before),
            "messages_sent": int(self.messages_sent),
            "edges_processed": int(self.edges_processed),
            "vertices_updated": int(self.vertices_updated),
            "activated": int(self.activated),
            "seconds": float(self.seconds),
            "kernel_counts": {k: int(v) for k, v in self.kernel_counts.items()},
            "frontier_density": float(self.frontier_density),
            "partition_work": [w.to_dict() for w in self.partition_work],
        }


def _kernel_totals(iterations: list[IterationStats]) -> dict[str, int]:
    """Per-kernel block counts summed over a run's supersteps."""
    totals: dict[str, int] = {}
    for it in iterations:
        for kernel, count in it.kernel_counts.items():
            totals[kernel] = totals.get(kernel, 0) + count
    return totals


@dataclass
class RunStats:
    """Aggregate record of one lane of an engine run (the whole record
    of a ``run_graph_program`` invocation)."""

    iterations: list[IterationStats] = field(default_factory=list)
    total_seconds: float = 0.0
    converged: bool = False
    used_fused_path: bool = False
    #: Execution backend that ran the SpMV blocks (``"serial"`` for the
    #: unfused Algorithm 1 sweep, whatever ``options.backend`` says).
    backend: str = "serial"
    #: The run was cooperatively cancelled (token deadline, explicit
    #: cancel, or superstep budget) at a superstep boundary; mutually
    #: exclusive with ``converged``.
    cancelled: bool = False
    #: Why the run was cancelled (``CancellationToken.check``'s reason;
    #: None for uncancelled runs).
    cancel_reason: str | None = None

    @property
    def n_supersteps(self) -> int:
        """Number of BSP supersteps the run executed."""
        return len(self.iterations)

    @property
    def total_edges_processed(self) -> int:
        """Edges folded across all supersteps (the SpMV work metric)."""
        return sum(it.edges_processed for it in self.iterations)

    @property
    def total_messages(self) -> int:
        """Messages sent across all supersteps."""
        return sum(it.messages_sent for it in self.iterations)

    def seconds_per_iteration(self) -> float:
        """Mean wall-clock seconds per superstep (0.0 for empty runs)."""
        if not self.iterations:
            return 0.0
        return self.total_seconds / len(self.iterations)

    def kernel_totals(self) -> dict[str, int]:
        """Fused kernel selections summed over all supersteps."""
        return _kernel_totals(self.iterations)

    def to_dict(self, *, include_iterations: bool = True) -> dict:
        """JSON-ready record; derived totals are materialized so
        consumers (the ``/stats`` endpoint, load generators) never poke
        at dataclass internals."""
        doc = {
            "backend": self.backend,
            "converged": bool(self.converged),
            "cancelled": bool(self.cancelled),
            "cancel_reason": self.cancel_reason,
            "used_fused_path": bool(self.used_fused_path),
            "total_seconds": float(self.total_seconds),
            "n_supersteps": self.n_supersteps,
            "total_edges_processed": int(self.total_edges_processed),
            "total_messages": int(self.total_messages),
            "seconds_per_iteration": float(self.seconds_per_iteration()),
            "kernel_totals": {
                k: int(v) for k, v in self.kernel_totals().items()
            },
        }
        if include_iterations:
            doc["iterations"] = [it.to_dict() for it in self.iterations]
        return doc


@dataclass
class BatchRun:
    """Result of one :func:`run_graph_programs_batched` invocation.

    ``properties`` holds the final per-lane vertex state, lane-major
    (``(K, n_vertices, *property_shape)``); ``properties[k]`` is bitwise
    identical to what :func:`run_graph_program` of query ``k`` alone
    would have left in ``graph.vertex_properties``.  ``lane_stats``
    records one complete :class:`RunStats` per lane (per-lane supersteps,
    message counts, convergence, plus the shared sweep's kernel counts
    and partition work); ``iterations`` records the *shared* sweeps —
    its ``edges_processed`` counts each edge once per superstep no
    matter how many lanes it served, which is the whole point.
    """

    properties: np.ndarray
    lane_stats: list[RunStats] = field(default_factory=list)
    iterations: list[IterationStats] = field(default_factory=list)
    total_seconds: float = 0.0
    backend: str = "serial"

    @property
    def n_lanes(self) -> int:
        """Number of program instances the batch ran."""
        return len(self.lane_stats)

    @property
    def n_supersteps(self) -> int:
        """Number of shared BSP supersteps (not per-lane)."""
        return len(self.iterations)

    @property
    def converged(self) -> bool:
        """True when every lane quiesced."""
        return all(stats.converged for stats in self.lane_stats)

    @property
    def cancelled(self) -> bool:
        """True when any lane was cooperatively cancelled."""
        return any(stats.cancelled for stats in self.lane_stats)

    @property
    def lanes_cancelled(self) -> int:
        """How many lanes were cooperatively cancelled."""
        return sum(stats.cancelled for stats in self.lane_stats)

    @property
    def total_edges_processed(self) -> int:
        """Edges swept across all supersteps (shared across lanes)."""
        return sum(it.edges_processed for it in self.iterations)

    def kernel_totals(self) -> dict[str, int]:
        """Kernel selections summed over all supersteps."""
        return _kernel_totals(self.iterations)

    def lane_properties(self, lane: int) -> np.ndarray:
        """One lane's final vertex state, shape ``(n_vertices, *shape)``."""
        return self.properties[lane]

    def to_dict(
        self,
        *,
        include_lanes: bool = True,
        include_iterations: bool = False,
    ) -> dict:
        """JSON-ready record of the batch (never the property arrays).

        ``include_lanes`` adds one compact :meth:`RunStats.to_dict` per
        lane; ``include_iterations`` additionally expands the per-sweep
        (and per-lane) iteration lists.
        """
        doc = {
            "backend": self.backend,
            "n_lanes": self.n_lanes,
            "n_supersteps": self.n_supersteps,
            "converged": bool(self.converged),
            "cancelled": bool(self.cancelled),
            "lanes_cancelled": int(self.lanes_cancelled),
            "total_seconds": float(self.total_seconds),
            "total_edges_processed": int(self.total_edges_processed),
            "kernel_totals": {
                k: int(v) for k, v in self.kernel_totals().items()
            },
        }
        if include_lanes:
            doc["lane_stats"] = [
                stats.to_dict(include_iterations=include_iterations)
                for stats in self.lane_stats
            ]
        if include_iterations:
            doc["iterations"] = [it.to_dict() for it in self.iterations]
        return doc


class Workspace:
    """Reusable engine state, the paper's ``graph_program_init`` result.

    Holds the partitioned matrix views a program needs (their cached
    groupings built), the superstep's ``x``/``y`` vectors (cleared in
    place every superstep) and, under ``backend="threaded"``, the thread
    ``pool``, so repeated runs on the same graph (e.g. the two phases of
    triangle counting, benchmark repetitions) skip partitioning,
    allocation and pool startup.  Close it (or use it as a context
    manager) to shut the pool down; a serial workspace holds none.
    """

    def __init__(
        self, graph: Graph, program: GraphProgram, options: EngineOptions
    ) -> None:
        self.graph = graph
        self.program = program
        self.options = options
        self.views = _matrix_views(graph, program.direction, options)
        lanes = _lane_count(program, options, 1)
        if _uses_fused(program, options):
            _warm_views(self.views, lanes)
        self.vector_key = _vector_key(graph.n_vertices, program, options, lanes)
        self.x, self.y = _superstep_vectors(
            graph.n_vertices, program, options, lanes
        )
        self.pool = _thread_pool(options)

    def close(self) -> None:
        """Shut the thread pool down (idempotent)."""
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _uses_fused(program: GraphProgram, options: EngineOptions) -> bool:
    """Whether a run sweeps with a block kernel (else Algorithm 1)."""
    return options.fused and options.use_bitvector and program.supports_fused()


def _lane_count(
    program: GraphProgram, options: EngineOptions, n_lanes: int
) -> int | None:
    """K for the lane family, None for the generic one.

    This is where the kernel family is chosen: only lane-capable
    programs on the fused path keep their lane count.
    """
    if _uses_fused(program, options) and program.supports_batched():
        return n_lanes
    return None


def _vector_key(n, program, options, lanes: int | None) -> tuple:
    """What a held workspace's ``x``/``y`` must match to serve a run.

    Graph size, specs, ``use_bitvector`` and the lane count; for the
    lane family also ``x``'s fill, the program's reduce identity (a
    PageRank workspace's zero-filled ``x`` would feed an SSSP run
    ``0.0`` messages from its silent vertices).
    """
    return (
        int(n),
        program.message_spec,
        program.result_spec,
        bool(options.use_bitvector),
        lanes,
        program.batch_reduce_identity() if lanes is not None else None,
    )


def _superstep_vectors(n, program, options, lanes: int | None):
    """A run's message and result vectors ``(x, y)``.

    K-lane :class:`MultiFrontier` blocks for the lane family (``x``
    holds the reduce identity at invalid slots: the lane kernel's
    no-masking contract), else one sparse-vector pair.
    """
    if lanes is None:
        return (
            make_sparse_vector(
                n, program.message_spec, use_bitvector=options.use_bitvector
            ),
            make_sparse_vector(
                n, program.result_spec, use_bitvector=options.use_bitvector
            ),
        )
    return (
        MultiFrontier(
            n, lanes, program.message_spec,
            fill=program.batch_reduce_identity(),
        ),
        MultiFrontier(n, lanes, program.result_spec),
    )


def _warm_views(views, lanes: int | None) -> None:
    """Build the cached groupings the family's fused kernel reads."""
    for view in views:
        for block in view:
            if not block.nnz:
                continue
            if lanes is None:
                block.warm_caches()
            else:
                block.warm_batch_caches()


def _thread_pool(options: EngineOptions) -> ThreadPoolExecutor | None:
    """The pool ``options.backend`` asks for: None under ``serial``."""
    if options.backend != "threaded":
        return None
    return ThreadPoolExecutor(options.n_workers, thread_name_prefix="repro-spmv")


def _matrix_views(graph: Graph, direction: EdgeDirection, options: EngineOptions):
    """Partitioned matrix view(s) for a scatter direction.

    They come from the Graph's per-key view cache; a loaded snapshot's
    views are already there, so an engine start on it is O(header)
    instead of O(edges).
    """
    key = (options.block_count(graph.n_vertices), options.partition_strategy)
    if direction is EdgeDirection.OUT_EDGES:
        return [graph.out_partitions(*key)]
    if direction is EdgeDirection.IN_EDGES:
        return [graph.in_partitions(*key)]
    return [graph.out_partitions(*key), graph.in_partitions(*key)]


def graph_program_init(
    graph: Graph, program: GraphProgram, options: EngineOptions = DEFAULT_OPTIONS
) -> Workspace:
    """Pre-build the matrix views, vectors and pool for ``program``."""
    program.validate()
    return Workspace(graph, program, options)


# ----------------------------------------------------------------------
# The two kernel families: what send / sweep / apply call in a superstep
# ----------------------------------------------------------------------
def _send_batch(program: GraphProgram, props: np.ndarray, active_idx: np.ndarray):
    """``(senders, messages)`` of one frontier through ``send_message_batch``."""
    sent = program.send_message_batch(props[active_idx], active_idx)
    if isinstance(sent, tuple):
        send_mask, messages = sent
        send_mask = np.asarray(send_mask, dtype=bool)
        return active_idx[send_mask], np.asarray(messages)[send_mask]
    return active_idx, np.asarray(sent)


def _attributes_equal(a, b) -> bool:
    """Safe equality of two program attributes (ndarrays included);
    "cannot tell" is False."""
    try:
        return a is b or bool(np.array_equal(a, b))
    except (TypeError, ValueError):
        return False


def _uniform_lanes(programs) -> bool:
    """True when every lane runs an equivalent program instance.

    Equivalent instances unlock the full-width lane hooks (one
    vectorized send/apply over the whole ``(K, n)`` block instead of K
    per-lane passes).  Lanes with differing — or incomparable —
    constructor parameters use the per-lane hooks, which see their own
    instance.
    """
    first = vars(programs[0])
    for program in programs[1:]:
        other = vars(program)
        if first.keys() != other.keys() or not all(
            _attributes_equal(value, other[key]) for key, value in first.items()
        ):
            return False
    return True


class _Family:
    """What one run's supersteps call: ``send``, ``sweep``, ``apply``."""

    def __init__(self, program, vectors, pool, crossover, counters):
        #: Lane 0's instance: the one whose process/reduce the sweep runs.
        self.program = program
        self.x, self.y = vectors
        self.pool = pool
        self.crossover = crossover
        self.counters = counters

    def _sweep_blocks(
        self, kernel, properties, view, partition_work, kernel_counts
    ) -> int:
        return sweep_view(
            kernel, view, self.x, self.y, self.program, properties,
            self.counters, partition_work,
            kernel_counts=kernel_counts, crossover=self.crossover,
            pool=self.pool,
        )


class _LaneFamily(_Family):
    """Lane-capable programs: K frontiers per edge sweep.

    State is the lane-major ``(K, n, ...)`` property block and ``(K, n)``
    active mask; ``x``/``y`` are ``MultiFrontier`` blocks and the sweep
    is :func:`repro.core.spmv.run_block_batch`.  Lanes converge
    independently: a lane that left the live set keeps an empty
    frontier, adding nothing to later sweeps.
    """

    def __init__(self, programs, properties, active, *context):
        super().__init__(programs[0], *context)
        self.programs = programs
        self.properties = properties
        self.active = active
        self.uniform = _uniform_lanes(programs)

    def sweep(self, view, partition_work, kernel_counts) -> int:
        """One pass over ``view`` serving every live lane."""
        return self._sweep_blocks(
            run_block_batch, self.properties, view, partition_work,
            kernel_counts,
        )

    def send(self, live, active_before) -> np.ndarray:
        """Fill ``x`` from the live lanes; returns messages sent per lane."""
        props, active, x = self.properties, self.active, self.x
        wide = (
            self.program.send_message_lanes(props, active)
            if self.uniform
            else None
        )
        if wide is not None:
            # Full-width send: one masked copy covers every lane (lanes
            # outside the live set have an all-False active row).
            x.set_from_mask(active, np.asarray(wide))
            lane_messages = active_before.astype(np.int64)
        else:
            lane_messages = np.zeros(len(self.programs), dtype=np.int64)
            for k in live:
                senders, messages = _send_batch(
                    self.programs[k], props[k], np.flatnonzero(active[k])
                )
                x.scatter_lane(k, senders, messages)
                lane_messages[k] = senders.shape[0]
        if self.counters is not None:
            self.counters.record(
                user_calls=len(live),
                element_ops=int(active_before.sum()),
                random_accesses=int(lane_messages.sum()),
            )
        return lane_messages

    def frontier_density(self, n: int) -> float:
        """Union density: the signal the aggregate-density kernel
        selection actually sees."""
        return int(np.count_nonzero(self.x.any_mask())) / n if n else 0.0

    def apply(self, live, live_mask) -> list[tuple[int, int, int]]:
        """Apply ``y`` per lane; returns ``(lane, updated, activated)`` rows."""
        props, active, y = self.properties, self.active, self.y
        program0 = self.program
        n_lanes, n = active.shape
        y_valid = y.valid_mask()
        received = np.count_nonzero(y_valid, axis=1)
        # The full-width apply computes over every (lane, vertex) slot;
        # worth it only when most slots actually received
        # (PageRank-style dense supersteps), else per-lane updates on
        # the received subsets win.
        wide_dense = self.uniform and 2 * int(received.sum()) > n * n_lanes
        inplace = (
            wide_dense
            and program0.reactivate_all
            and program0.apply_lanes_inplace(y.values, props, y_valid)
        )
        wide_new = None
        if wide_dense and not inplace:
            wide_new = program0.apply_lanes(y.values, props)
        if wide_new is not None:
            wide_new = np.asarray(wide_new)
            if not program0.reactivate_all:
                unchanged = program0.properties_equal_lanes(props, wide_new)
            adopt = y_valid.reshape(y_valid.shape + (1,) * (props.ndim - 2))
            np.copyto(props, wide_new, where=adopt)
        if inplace or (wide_new is not None and program0.reactivate_all):
            # Activity is unconditional: no old state, no equality pass.
            active[:] = False
            active[live] = True
            rows = [(k, int(received[k]), n) for k in live]
        elif wide_new is not None:
            np.logical_and(y_valid, ~unchanged, out=active)
            active[~live_mask] = False
            activated = np.count_nonzero(active, axis=1)
            rows = [(k, int(received[k]), int(activated[k])) for k in live]
        else:
            rows = []
            for k in live:
                program = self.programs[k]
                updated_idx = np.flatnonzero(y_valid[k])
                active[k] = False
                activated = 0
                if updated_idx.size:
                    old_props = props[k, updated_idx]
                    new_props = program.apply_batch(
                        y.values[k, updated_idx], old_props
                    )
                    props[k, updated_idx] = new_props
                    unchanged = program.properties_equal_batch(
                        old_props, new_props
                    )
                    activated_idx = updated_idx[~unchanged]
                    active[k, activated_idx] = True
                    activated = int(activated_idx.size)
                if program.reactivate_all:
                    active[k] = True
                    activated = n
                rows.append((k, int(updated_idx.size), activated))
        if self.counters is not None:
            total_updated = sum(row[1] for row in rows)
            self.counters.record(
                user_calls=2 * len(live),
                element_ops=total_updated,
                random_accesses=2 * total_updated,
            )
        return rows


class _GenericFamily(_Family):
    """Everything the lane block cannot carry, with K fixed at 1.

    One sparse-vector pair; vector/object values allowed.  ``fused``
    selects the ``*_batch`` hooks with :func:`repro.core.spmv.run_block`
    as the sweep, else the scalar hooks with
    :func:`repro.core.spmv.spmv_scalar` (Algorithm 1, literally).  Lane
    0 of the driver's state blocks is the whole state.
    """

    def __init__(self, program, properties, active, fused, *context):
        super().__init__(program, *context)
        # Entry shape is taken from the data, not the program's spec:
        # the generic path has always run whatever the caller installed.
        self.properties = PropertyArray.from_array(properties[0])
        self.active = active[0]
        self.fused = fused

    def sweep(self, view, partition_work, kernel_counts) -> int:
        """One pass over ``view`` for the single frontier."""
        if self.fused:
            return self._sweep_blocks(
                run_block, self.properties.data, view, partition_work,
                kernel_counts,
            )
        return spmv_scalar(
            view, self.x, self.y, self.program, self.properties,
            self.counters, partition_work,
        )

    def send(self, live, active_before) -> np.ndarray:
        """Fill ``x`` from the active vertices; returns messages sent."""
        program, properties, x = self.program, self.properties, self.x
        active_idx = np.flatnonzero(self.active)
        if self.fused:
            senders, messages = _send_batch(program, properties.data, active_idx)
            x.scatter(senders, messages)
            if self.counters is not None:
                self.counters.record(
                    user_calls=1,
                    element_ops=int(active_idx.size),
                    random_accesses=int(senders.shape[0]),
                )
        else:
            for v in active_idx:
                message = program.send_message(properties.get(int(v)))
                if message is not None:
                    x.set(int(v), message)
            if self.counters is not None:
                self.counters.record(
                    user_calls=int(active_idx.size),
                    random_accesses=int(active_idx.size),
                )
        return np.array([x.nnz], dtype=np.int64)

    def frontier_density(self, n: int) -> float:
        """Fraction of vertices that sent a message."""
        return self.x.nnz / n if n else 0.0

    def apply(self, live, live_mask) -> list[tuple[int, int, int]]:
        """Apply ``y``; returns the one ``(0, updated, activated)`` row."""
        program, properties, y = self.program, self.properties, self.y
        active = self.active
        active[:] = False
        vertices_updated = activated = 0
        if self.fused:
            updated_idx = y.indices()
            if updated_idx.size:
                old_props = properties.data[updated_idx]
                new_props = program.apply_batch(y.values[updated_idx], old_props)
                properties.data[updated_idx] = new_props
                unchanged = program.properties_equal_batch(old_props, new_props)
                activated_idx = updated_idx[~unchanged]
                active[activated_idx] = True
                vertices_updated = int(updated_idx.size)
                activated = int(activated_idx.size)
                if self.counters is not None:
                    self.counters.record(
                        user_calls=2,
                        element_ops=vertices_updated,
                        random_accesses=2 * vertices_updated,
                    )
        else:
            for k, reduced_value in y.items():
                old_prop = properties.get(k)
                if isinstance(old_prop, np.ndarray):
                    old_prop = old_prop.copy()
                new_prop = program.apply(reduced_value, old_prop)
                properties.set(k, new_prop)
                vertices_updated += 1
                if not program.properties_equal(old_prop, new_prop):
                    active[k] = True
                    activated += 1
            if self.counters is not None:
                self.counters.record(
                    user_calls=vertices_updated,
                    random_accesses=2 * vertices_updated,
                )
        if program.reactivate_all:
            active[:] = True
            activated = active.shape[0]
        return [(0, vertices_updated, activated)]


# ----------------------------------------------------------------------
# The superstep loop
# ----------------------------------------------------------------------
def _run_supersteps(
    graph: Graph,
    programs: list[GraphProgram],
    lane_properties: np.ndarray,
    lane_active: np.ndarray,
    options: EngineOptions,
    *,
    workspace: Workspace | None = None,
    counters=None,
    safety_cap: int | None = None,
    lane_tokens=None,
) -> BatchRun:
    """Run ``len(programs)`` lanes of one program class to completion.

    The one BSP loop behind both public entry points.  ``lane_properties``
    (``(K, n, ...)``) and ``lane_active`` (``(K, n)``) are updated **in
    place** and are the result; callers that must not see their inputs
    mutated copy first.
    """
    program0 = programs[0]
    n = graph.n_vertices
    n_lanes = len(programs)
    tokens = list(lane_tokens) if lane_tokens is not None else []
    if tokens and len(tokens) != n_lanes:
        raise ProgramError(
            f"lane_tokens must have one entry per lane: "
            f"got {len(tokens)} for {n_lanes} lanes"
        )
    # A workspace built for another edge direction holds the wrong matrix
    # views; rebuild them (cheap — the graph caches partitioned views).
    views = (
        workspace.views
        if workspace is not None
        and workspace.program.direction is program0.direction
        else _matrix_views(graph, program0.direction, options)
    )
    fused = _uses_fused(program0, options)
    lanes = _lane_count(program0, options, n_lanes)
    if fused:
        _warm_views(views, lanes)
    # The held workspace's vectors serve when their shape fits, else the
    # run builds its own (still amortized over all supersteps).
    key = _vector_key(n, program0, options, lanes)
    if workspace is not None and workspace.vector_key == key:
        x, y = workspace.x, workspace.y
    else:
        x, y = _superstep_vectors(n, program0, options, lanes)
    # Block kernels only: Algorithm 1 is a pure Python loop that no
    # backend accelerates.  The run's options win: a workspace built for
    # another backend or worker count contributes its views but not its
    # pool, and the run opens (and closes) its own.
    backend = options.backend if fused else "serial"
    pool = None
    if (
        backend == "threaded"
        and workspace is not None
        and workspace.options.n_workers == options.n_workers
    ):
        pool = workspace.pool
    owns_pool = backend == "threaded" and pool is None

    run = BatchRun(
        properties=lane_properties,
        lane_stats=[
            RunStats(used_fused_path=fused, backend=backend)
            for _ in range(n_lanes)
        ],
        backend=backend,
    )
    lane_converged = np.zeros(n_lanes, dtype=bool)
    lane_cancelled = np.zeros(n_lanes, dtype=bool)

    def _cancel_lane(k: int, reason: str) -> None:
        run.lane_stats[k].cancelled = True
        run.lane_stats[k].cancel_reason = reason
        lane_cancelled[k] = True

    batch_token = options.token
    bound, bound_owner = options.iteration_bound()
    if safety_cap is not None and bound_owner == "safety_cap":
        bound = safety_cap
    start = time.perf_counter()
    iteration = 0
    try:
        if owns_pool:
            pool = _thread_pool(options)
        context = ((x, y), pool, options.dense_pull_crossover, counters)
        if lanes is not None:
            family = _LaneFamily(
                programs, lane_properties, lane_active, *context
            )
        else:
            family = _GenericFamily(
                program0, lane_properties, lane_active, fused, *context
            )
        while True:
            # One precedence rule (EngineOptions.iteration_bound): an
            # explicit max_iterations stops the run normally; the
            # safety cap firing is a does-not-quiesce bug.
            if iteration >= bound:
                if bound_owner == "safety_cap":
                    raise ConvergenceError(
                        f"safety_cap bound fired: run-to-quiescence "
                        f"program did not quiesce within {bound} "
                        f"supersteps (max_iterations=-1; set an explicit "
                        f"max_iterations or a CancellationToken "
                        f"superstep_budget to bound the run intentionally)"
                    )
                break
            # Cooperative cancellation: polled at the superstep boundary
            # (nothing user-visible is half-applied between boundaries),
            # so a fired deadline stops a lane before the *next* sweep
            # starts — at most one superstep of cancellation latency.
            # The batch token fells every live lane, per-lane tokens
            # their own.
            if batch_token is not None:
                reason = batch_token.check(iteration)
                if reason is not None:
                    for k in np.flatnonzero(~lane_converged & ~lane_cancelled):
                        _cancel_lane(int(k), reason)
            if tokens:
                for k in np.flatnonzero(~lane_converged & ~lane_cancelled):
                    lane_token = tokens[int(k)]
                    if lane_token is None:
                        continue
                    reason = lane_token.check(iteration)
                    if reason is not None:
                        _cancel_lane(int(k), reason)
            active_before = np.count_nonzero(lane_active, axis=1)
            newly_quiet = (
                ~lane_converged & ~lane_cancelled & (active_before == 0)
            )
            for k in np.flatnonzero(newly_quiet):
                run.lane_stats[int(k)].converged = True
            lane_converged |= newly_quiet
            live_mask = ~lane_converged & ~lane_cancelled
            live = np.flatnonzero(live_mask).tolist()
            if not live:
                break
            if lane_cancelled.any():
                # A felled lane leaves the shared send/sweep exactly like
                # a converged one — with an empty frontier — so the
                # survivors stay bitwise identical to their own one-lane
                # runs.  (Only while others run on: a cancelled one-lane
                # run keeps its next frontier on the graph.)
                lane_active[lane_cancelled] = False
                active_before[lane_cancelled] = 0
            t_iter = time.perf_counter()

            # -- Send phase (Algorithm 2 lines 3-5) ----------------------
            x.clear()
            y.clear()
            lane_messages = family.send(live, active_before).tolist()

            # -- Sweep phase (Algorithm 2 line 6 / Algorithm 1): one
            # pass over the matrix view(s) serves every live lane -------
            partition_work: list[PartitionWork] | None = (
                [] if options.record_partition_stats else None
            )
            kernel_counts: dict[str, int] = {}
            edges = sum(
                family.sweep(view, partition_work, kernel_counts)
                for view in views
            )
            # One shared sweep: every lane's record carries its work list.
            work = partition_work or []

            # -- Apply phase (Algorithm 2 lines 7-13) ---------------------
            lane_rows = family.apply(live, live_mask)

            seconds = time.perf_counter() - t_iter
            for k, vertices_updated, activated in lane_rows:
                run.lane_stats[k].iterations.append(
                    IterationStats(
                        iteration=iteration,
                        active_before=int(active_before[k]),
                        messages_sent=lane_messages[k],
                        edges_processed=edges,
                        vertices_updated=vertices_updated,
                        activated=activated,
                        seconds=seconds,
                        partition_work=work,
                        # Independently mutable per record.
                        kernel_counts=dict(kernel_counts),
                        frontier_density=lane_messages[k] / n if n else 0.0,
                    )
                )
            run.iterations.append(
                IterationStats(
                    iteration=iteration,
                    active_before=int(active_before.sum()),
                    messages_sent=sum(lane_messages),
                    edges_processed=edges,
                    vertices_updated=sum(row[1] for row in lane_rows),
                    activated=sum(row[2] for row in lane_rows),
                    seconds=seconds,
                    partition_work=work,
                    kernel_counts=kernel_counts,
                    frontier_density=family.frontier_density(n),
                )
            )
            if options.profile_hook is not None:
                options.profile_hook(run.iterations[-1])
            iteration += 1
    finally:
        if owns_pool and pool is not None:
            pool.shutdown()

    run.total_seconds = time.perf_counter() - start
    for k, stats in enumerate(run.lane_stats):
        stats.total_seconds = run.total_seconds
        if (
            options.max_iterations != -1
            and not stats.converged
            and not stats.cancelled
        ):
            # Budget exhausted; record which lanes happen to be
            # quiescent.  Cancelled lanes keep converged=False: their
            # cleared frontier says nothing about quiescence.
            stats.converged = not lane_active[k].any()
    return run


def run_graph_program(
    graph: Graph,
    program: GraphProgram,
    options: EngineOptions = DEFAULT_OPTIONS,
    *,
    workspace: Workspace | None = None,
    counters=None,
    safety_cap: int | None = None,
) -> RunStats:
    """Run ``program`` on ``graph`` until quiescence or the iteration budget.

    Vertex properties and the active set live on the ``graph`` (exactly as
    in the paper's API); callers initialize them before running and read
    the results from ``graph.vertex_properties`` afterwards.  This is the
    one-lane case of the K-lane loop: lane 0 *is* the graph's state
    (views, not copies), and lane 0's stats are returned.

    Parameters
    ----------
    options:
        Engine configuration (see :class:`repro.core.options.EngineOptions`).
        ``options.token`` enables cooperative cancellation: the token is
        polled at the top of every superstep, and a fired token stops
        the run at that boundary with ``RunStats.cancelled`` set — see
        :meth:`~repro.core.options.EngineOptions.iteration_bound` for
        how it ranks against ``max_iterations`` and ``safety_cap``.
    workspace:
        Optional pre-built :class:`Workspace` (avoids re-partitioning,
        re-allocation and thread-pool startup across runs).
    counters:
        Optional event counter sink (``repro.perf.counters.EventCounters``).
    safety_cap:
        Per-run override of ``options.safety_cap`` (None = use the
        options' value): the hard superstep bound for
        ``max_iterations == -1`` runs, exceeded means the program does
        not quiesce and :class:`ConvergenceError` is raised.
    """
    program.validate()
    if workspace is not None and workspace.graph is not graph:
        raise ProgramError("workspace was built for a different graph")
    run = _run_supersteps(
        graph,
        [program],
        graph.vertex_properties.data[None],
        graph.active[None],
        options,
        workspace=workspace,
        counters=counters,
        safety_cap=safety_cap,
    )
    return run.lane_stats[0]


def _validate_batch(programs, lane_properties, lane_active, n_vertices, options):
    """Shape/capability checks for the batched entry point; raise ProgramError."""
    if not programs:
        raise ProgramError("batched run needs at least one program instance")
    program0 = programs[0]
    program0.validate()
    for k, program in enumerate(programs[1:], start=1):
        if type(program) is not type(program0):
            raise ProgramError(
                f"batched lanes must run instances of one program class; "
                f"lane 0 is {type(program0).__name__}, lane {k} is "
                f"{type(program).__name__}"
            )
        if program.direction is not program0.direction:
            raise ProgramError("batched lanes must share an edge direction")
        program.validate()
    if not program0.supports_batched():
        raise ProgramError(
            f"{type(program0).__name__} cannot run on the batched SpMM path "
            f"(requires the fused batch surface, scalar numeric message/"
            f"result specs, a reduce ufunc and a masking identity)"
        )
    if not (options.fused and options.use_bitvector):
        raise ProgramError(
            "the batched engine is inherently fused; run with "
            "fused=True and use_bitvector=True"
        )
    spec = program0.property_spec
    expected = (len(programs), n_vertices, *spec.shape)
    if tuple(lane_properties.shape) != expected:
        raise ProgramError(
            f"lane_properties shape {tuple(lane_properties.shape)} does not "
            f"match (K, n_vertices, *property_shape) = {expected}"
        )
    if tuple(lane_active.shape) != (len(programs), n_vertices):
        raise ProgramError(
            f"lane_active shape {tuple(lane_active.shape)} does not match "
            f"(K, n_vertices) = {(len(programs), n_vertices)}"
        )


def run_graph_programs_batched(
    graph: Graph,
    programs,
    lane_properties: np.ndarray,
    lane_active: np.ndarray,
    options: EngineOptions = DEFAULT_OPTIONS,
    *,
    counters=None,
    safety_cap: int | None = None,
    lane_tokens=None,
) -> BatchRun:
    """Run K instances of one vertex-program class in a single BSP loop.

    Each superstep sends every live lane's messages into one
    :class:`~repro.vector.multi_frontier.MultiFrontier`, performs **one
    sweep** over the matrix view(s) serving all lanes at once
    (:func:`repro.core.spmv.run_block_batch`), and applies per lane.
    Serving K queries costs one edge sweep per superstep instead of K —
    the amortization the GraphBLAS multi-vector generalization exists
    for.  Lanes converge independently: a lane with no active vertices
    drops out of the lane mask (its frontier stays empty, adding nothing
    to later sweeps) while the loop continues until every lane quiesces
    or the iteration budget runs out.

    Unlike :func:`run_graph_program`, per-lane state does NOT live on the
    graph: callers pass the initial per-lane properties, lane-major
    (``(K, n_vertices, *property_shape)``), and active mask
    (``(K, n_vertices)``), and read results from the returned
    :class:`BatchRun` (inputs are copied, not mutated).  ``programs``
    are K instances of one lane-capable class — per-lane constructor
    parameters may differ only where they affect ``send``/``apply``
    (called per lane); ``process_message``/``reduce`` semantics are
    taken from lane 0 and broadcast across the shared sweep.

    Views resolve through the same per-graph view cache and
    ``options.backend`` selects the same schedule as any other run
    (partition-disjoint row ranges make the K-lane accumulation
    lock-free on every backend).

    Cancellation: ``options.token`` governs the *whole batch* (a fired
    token cancels every still-live lane), while ``lane_tokens`` — a
    K-element sequence of per-lane
    :class:`~repro.core.cancellation.CancellationToken`/None — cancels
    individual lanes.  A cancelled lane leaves the live mask exactly
    like a converged one (its frontier is cleared, so it contributes
    nothing to later shared sweeps), which keeps every surviving lane's
    result bitwise identical to its own one-lane run; a lane cancelled by
    superstep budget ``B`` holds exactly the state a one-lane run
    with ``max_iterations=B`` would have produced.  ``safety_cap``
    overrides ``options.safety_cap`` for this run (None = use options).
    """
    programs = list(programs)
    lane_properties = np.array(
        np.asarray(lane_properties),
        dtype=programs[0].property_spec.dtype if programs else None,
        copy=True,
        order="C",
    )
    lane_active = np.array(np.asarray(lane_active, dtype=bool), copy=True)
    _validate_batch(
        programs, lane_properties, lane_active, graph.n_vertices, options
    )
    return _run_supersteps(
        graph,
        programs,
        lane_properties,
        lane_active,
        options,
        counters=counters,
        safety_cap=safety_cap,
        lane_tokens=lane_tokens,
    )
