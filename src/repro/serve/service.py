"""The graph-query service: cache -> micro-batcher -> K-lane engine.

:class:`GraphService` is the embeddable core the HTTP layer drives.  A
query's life:

1. **Canonicalize** — the query kind's adapter
   (:mod:`repro.algorithms.adapters`) validates parameters and produces
   the canonical dict that keys everything downstream.
2. **Result cache** — keyed by (graph name, install serial, kind,
   canonical params): a hit returns immediately, no engine work at all.
3. **Admission + batching** — a :class:`~repro.serve.scheduler.Ticket`
   enters the micro-batcher under the group ``(graph, install serial,
   kind, adapter.batch_key)``; the dispatcher coalesces up to
   ``max_batch_k`` same-group requests into one
   :func:`~repro.core.engine.run_graph_programs_batched` call (partial
   batches dispatch after ``max_wait_ms``), with identical in-flight
   requests deduplicated onto one lane.
4. **Demultiplex** — each lane's result vector is extracted, cached, and
   delivered through the request's future.

Every response is bitwise identical to a sequential run of the same
query (the batched engine's lane-parity guarantee; K=1 partial batches
included), so batching and caching are pure throughput optimizations —
invisible to callers.

The service is thread-safe: any number of request threads may call
:meth:`query` concurrently; engine runs happen on the single dispatcher
thread, whose NumPy kernels release the GIL (and may fan out further
through ``EngineOptions.backend``).
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable

import numpy as np

from repro.algorithms.adapters import QueryAdapter, get_adapter
from repro.core.cancellation import CancellationToken
from repro.core.engine import BatchRun, run_graph_programs_batched
from repro.core.options import DEFAULT_OPTIONS, EngineOptions
from repro.dynamic import DeltaGraph
from repro.errors import (
    BadQueryError,
    DeadlineExceededError,
    QuotaExceededError,
    ReadOnlyServiceError,
    ServeError,
    ServiceDrainingError,
    ServiceOverloadedError,
)
from repro.graph.graph import Graph
from repro.obs.serving import ServeTelemetry
from repro.obs.tracing import Trace
from repro.serve.cache import ResultCache
from repro.serve.quota import QuotaManager
from repro.serve.registry import GraphEntry, GraphRegistry
from repro.serve.scheduler import BatchPolicy, MicroBatcher, Ticket
from repro.store.delta_log import (
    DELTA_LOG_SUFFIX,
    LOG_START,
    DeltaLog,
    compact_delta_graph,
)


@dataclass
class QueryResult:
    """One answered query (see :meth:`GraphService.query`)."""

    graph: str
    kind: str
    params: dict
    #: The full result vector, shape ``(n_vertices,)`` — treat as
    #: read-only (cache hits share one array).
    values: np.ndarray
    cached: bool
    #: Lanes in the engine run that served this query (1 on the
    #: timeout-dispatched singleton path; 0 for cache hits).
    batch_k: int
    #: Submit-to-resolution wall time, milliseconds.
    latency_ms: float
    #: Supersteps/edges of the serving run (empty dict for cache hits).
    engine: dict = field(default_factory=dict)
    #: The request id (from ``X-Request-Id`` or generated) — the handle
    #: that correlates this response with server traces and logs.
    request_id: str = ""
    #: The request's :class:`~repro.obs.tracing.Trace` (admission →
    #: respond spans); not serialized — ``to_dict`` carries only the id.
    trace: object | None = None

    def to_dict(
        self, *, top: int | None = None, vertices: list[int] | None = None,
        order: str = "max",
    ) -> dict:
        """JSON-ready view; ``top``/``vertices`` bound the payload.

        ``top`` returns the N best vertices — highest value for
        ``order="max"`` (scores), lowest *finite* value for
        ``order="min"`` (distances; unreached vertices excluded).
        """
        doc = {
            "graph": self.graph,
            "kind": self.kind,
            "params": self.params,
            "cached": self.cached,
            "batch_k": self.batch_k,
            "latency_ms": self.latency_ms,
            "engine": self.engine,
            "request_id": self.request_id,
            "n_vertices": int(self.values.shape[0]),
        }
        if vertices is not None:
            doc["values"] = {
                int(v): _json_value(self.values[int(v)]) for v in vertices
            }
        elif top is not None:
            doc["top"] = self.top(top, order=order)
        else:
            doc["values"] = [_json_value(v) for v in self.values]
        return doc

    def top(self, n: int, *, order: str = "max") -> list[list]:
        """``[[vertex, value], ...]`` for the N best vertices."""
        values = self.values
        if order == "min":
            candidates = np.flatnonzero(np.isfinite(values))
            ranked = candidates[np.argsort(values[candidates], kind="stable")]
        else:
            ranked = np.argsort(-values, kind="stable")
        ranked = ranked[: max(0, int(n))]
        return [[int(v), _json_value(values[v])] for v in ranked]


def _json_value(value) -> float | None:
    """One result scalar as JSON (inf/nan have no JSON spelling)."""
    value = float(value)
    return value if np.isfinite(value) else None


@dataclass
class _Payload:
    """Ticket payload: everything the executor needs per lane.

    The payload pins the *graph object* (and its epoch) the query was
    admitted against: mutations swap the registry entry, so a batch
    dispatched after a mutation still computes on the epoch its tickets
    saw — the batch group includes the entry's install serial, so
    tickets admitted against different graph objects are never
    co-batched.
    """

    adapter: QueryAdapter
    canonical: dict
    cache_key: Hashable
    graph: Graph
    epoch: int


class GraphService:
    """Concurrent query façade over the batched engine (see module doc)."""

    def __init__(
        self,
        registry: GraphRegistry,
        *,
        options: EngineOptions = DEFAULT_OPTIONS,
        policy: BatchPolicy | None = None,
        cache: ResultCache | None = None,
        delta_log_dir: str | Path | None = None,
        compact_threshold: float = 0.25,
        fsync: bool = False,
        read_only: bool = False,
        quota: QuotaManager | None = None,
        default_deadline: float | None = None,
        telemetry: ServeTelemetry | None = None,
    ) -> None:
        if not 0.0 < compact_threshold:
            raise ServeError(
                f"compact_threshold must be > 0, got {compact_threshold}"
            )
        if default_deadline is not None and not default_deadline > 0:
            raise ServeError(
                f"default_deadline must be > 0 seconds or None, "
                f"got {default_deadline}"
            )
        self.registry = registry
        self.options = options
        self.cache = cache if cache is not None else ResultCache()
        #: Directory for per-graph append-only mutation logs and
        #: compacted snapshots (None = mutations are memory-only).
        self.delta_log_dir = (
            Path(delta_log_dir) if delta_log_dir is not None else None
        )
        #: Overlay size (fraction of the base edge count) that triggers
        #: compaction back into a plain graph / fresh snapshot.
        self.compact_threshold = float(compact_threshold)
        #: fsync every delta-log append before acknowledging a mutation
        #: (power-loss durability; SIGKILL durability needs only the
        #: default flush).  Per-mutation overrides via ``mutate(...,
        #: durable=...)``.
        self.fsync = bool(fsync)
        #: Read-only services (replication followers) reject ``mutate``.
        self.read_only = bool(read_only)
        #: Per-tenant admission control (None = no tenant governance).
        self.quota = quota
        #: Deadline, in seconds, assigned to requests that bring none —
        #: the backstop that contains an adversarial runaway which
        #: simply omits its deadline (None = such requests run
        #: unbounded, the pre-governance behavior).
        self.default_deadline = (
            float(default_deadline) if default_deadline is not None else None
        )
        #: Metrics + slow-query log (:class:`~repro.obs.serving.
        #: ServeTelemetry`); None = uninstrumented (traces and request
        #: ids still work — only metric observation is skipped).  The
        #: CLI always wires one; embedded users opt in.
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.bind_service(self)
        #: Deadlines live on the same monotonic timeline as the
        #: batcher's dispatch clock and the engine tokens' default.
        self._clock = time.monotonic
        self._batcher = MicroBatcher(self._execute_batch, policy)
        self._lock = threading.Lock()
        self._mutate_lock = threading.Lock()
        self._logs_lock = threading.Lock()
        self._delta_logs: dict[str, DeltaLog] = {}
        self._draining = threading.Event()
        #: Notified after every committed mutation — replication
        #: long-polls wait on it instead of busy-reading the log.
        self._repl_cond = threading.Condition()
        #: Per-graph replication generation: the epoch of the last
        #: compaction (0 = never compacted).  A follower whose cursor
        #: was built against another generation must reinstall the
        #: snapshot (catch-up-then-swap) before tailing again.
        self._generation: dict[str, int] = {}
        self._torn_bytes_dropped = 0
        #: Wall-clock birth time (for ``started_at`` — a timestamp) and
        #: the monotonic birth mark (for ``uptime_seconds`` — a
        #: duration; wall clocks jump under NTP, monotonic ones don't).
        self._started_at = time.time()
        self._started_monotonic = time.monotonic()
        self._queries = 0
        self._kind_counts: dict[str, int] = {}
        self._engine_seconds = 0.0
        self._engine_supersteps = 0
        self._engine_edges = 0
        #: Kernel tier -> blocks executed, aggregated over serving runs
        #: (the per-run ``kernel_totals()`` summed service-lifetime).
        self._kernel_totals: dict[str, int] = {}
        self._errors = 0
        self._cancelled_lanes = 0
        self._deadline_refused = 0
        #: EWMA of batch wall seconds — the dispatch-time estimate the
        #: deadline-feasibility admission check divides the queue by.
        self._batch_seconds_ewma = 0.0
        self._mutations = 0
        self._edges_inserted = 0
        self._edges_deleted = 0
        self._compactions = 0
        self._recovered_batches = 0
        if self.delta_log_dir is not None:
            for name in registry.names():
                self._recover(name)

    @property
    def policy(self) -> BatchPolicy:
        """The micro-batching policy the request batcher is running."""
        return self._batcher.policy

    @property
    def pending(self) -> int:
        """Queries admitted but not yet dispatched (queue depth)."""
        return self._batcher.pending

    # ------------------------------------------------------------------
    # Request path (any thread)
    # ------------------------------------------------------------------
    def query(
        self,
        graph_name: str,
        kind: str,
        params: dict | None = None,
        *,
        timeout: float | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
        request_id: str | None = None,
    ) -> QueryResult:
        """Answer one query, batching it with concurrent same-kind queries.

        ``deadline`` (seconds from now; ``default_deadline`` when None)
        bounds the request end to end: admission refuses it outright
        when the queue is too deep to meet it
        (:class:`~repro.errors.DeadlineExceededError`), the dispatcher
        drops it if it expires while queued, and an engine run past the
        deadline is cooperatively cancelled at the next superstep
        boundary.  ``tenant`` names the caller for per-tenant quota
        admission when the service has a
        :class:`~repro.serve.quota.QuotaManager`
        (:class:`~repro.errors.QuotaExceededError` on refusal).

        ``request_id`` (the caller's ``X-Request-Id``, or None to
        generate one) names the request's :class:`~repro.obs.tracing.
        Trace`; the id comes back on ``QueryResult.request_id`` and the
        trace — spans through admission → queue → batch → engine →
        respond — on ``QueryResult.trace``.

        Also raises :class:`~repro.errors.UnknownGraphError`,
        :class:`~repro.errors.BadQueryError`,
        :class:`~repro.errors.ServiceOverloadedError` (queue full), or
        whatever the engine raised for the serving batch.
        """
        t0 = time.perf_counter()
        trace = Trace(request_id, clock=self._clock)
        status = "error"
        admitted_tenant = None
        try:
            if self._draining.is_set():
                raise ServiceDrainingError(
                    "service is draining for shutdown; retry another replica"
                )
            if deadline is None:
                deadline = self.default_deadline
            deadline_at = None
            if deadline is not None:
                try:
                    deadline = float(deadline)
                except (TypeError, ValueError):
                    raise BadQueryError(
                        f"deadline must be a number of seconds, "
                        f"got {deadline!r}"
                    ) from None
                if not deadline > 0:
                    raise BadQueryError(
                        f"deadline must be > 0 seconds, got {deadline}"
                    )
                deadline_at = self._clock() + deadline
            adapter = get_adapter(kind)
            # One registry read pins this query to a consistent (graph
            # object, epoch, serial) entry: a concurrent mutation swaps
            # the entry but never mutates a graph object in place.
            entry = self.registry.entry(graph_name)
            canonical = adapter.canonicalize(entry.graph, dict(params or {}))
            # Quota admission after validation (malformed requests burn
            # no quota), before any work.  Every admit pairs with the
            # release in the finally below.
            if self.quota is not None:
                admitted_tenant = self.quota.admit(
                    tenant,
                    queue_depth=self._batcher.pending,
                    max_queue=self.policy.max_queue,
                )
            trace.add("admitted", tenant=admitted_tenant)
            with self._lock:
                self._queries += 1
                self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
            # The install serial names this graph object: every swap,
            # remove-then-add or same-epoch reinstall gets a fresh one,
            # so no earlier object's entry can ever match.
            cache_key = (
                graph_name,
                entry.serial,
                kind,
                tuple(sorted(canonical.items())),
            )
            cached = self.cache.get(cache_key)
            trace.add("cache_lookup", hit=cached is not None)
            if cached is not None:
                status = "cached"
                return QueryResult(
                    graph=graph_name,
                    kind=kind,
                    params=canonical,
                    values=cached,
                    cached=True,
                    batch_k=0,
                    latency_ms=1e3 * (time.perf_counter() - t0),
                    request_id=trace.request_id,
                    trace=trace,
                )
            self._check_deadline_feasible(deadline_at)
            group = (
                graph_name, entry.serial, kind, adapter.batch_key(canonical)
            )
            ticket = Ticket(
                group=group,
                payload=_Payload(
                    adapter=adapter,
                    canonical=canonical,
                    cache_key=cache_key,
                    graph=entry.graph,
                    epoch=entry.epoch,
                ),
                deadline_at=deadline_at,
                tenant=admitted_tenant,
                trace=trace,
            )
            try:
                # The span lands before submit: the dispatcher may add
                # "dispatched" the instant the ticket is visible.
                trace.add("enqueued", pending=self._batcher.pending)
                future = self._batcher.submit(ticket)
                values, batch_k, engine = future.result(timeout=timeout)
            except Exception:
                with self._lock:
                    self._errors += 1
                raise
            status = "ok"
            return QueryResult(
                graph=graph_name,
                kind=kind,
                params=canonical,
                values=values,
                cached=False,
                batch_k=batch_k,
                latency_ms=1e3 * (time.perf_counter() - t0),
                engine=engine,
                request_id=trace.request_id,
                trace=trace,
            )
        except DeadlineExceededError:
            status = "deadline"
            raise
        except QuotaExceededError:
            status = "quota"
            raise
        except (ServiceDrainingError, ServiceOverloadedError):
            status = "shed"
            raise
        finally:
            if admitted_tenant is not None:
                self.quota.release(admitted_tenant)
            trace.add("responded", status=status)
            if self.telemetry is not None:
                self.telemetry.observe_request(
                    graph_name,
                    kind,
                    status,
                    time.perf_counter() - t0,
                    trace,
                )

    def _check_deadline_feasible(self, deadline_at: float | None) -> None:
        """Refuse now what we cannot answer in time.

        With ``q`` tickets already queued and batches of up to ``K``
        lanes taking ``ewma`` seconds each, a new ticket waits roughly
        ``ceil(q / K) * ewma`` before its own batch even starts —
        admitting it past that is queueing work whose answer nobody
        will be waiting for.  The estimate is deliberately coarse (one
        EWMA, not a per-group model); it exists to bound the queue's
        *time* depth the way ``max_queue`` bounds its length.
        """
        if deadline_at is None:
            return
        remaining = deadline_at - self._clock()
        with self._lock:
            estimate = self._batch_seconds_ewma
        pending = self._batcher.pending
        k = self.policy.max_batch_k
        batches_ahead = (pending + k - 1) // k
        expected_wait = estimate * batches_ahead
        if remaining <= 0 or (estimate > 0 and expected_wait > remaining):
            with self._lock:
                self._deadline_refused += 1
            raise DeadlineExceededError(
                f"deadline cannot be met: {max(0.0, remaining) * 1e3:.0f} ms "
                f"remain but ~{expected_wait * 1e3:.0f} ms of queue is "
                f"ahead ({pending} pending, "
                f"{estimate * 1e3:.0f} ms/batch); refused at admission"
            )

    # ------------------------------------------------------------------
    # Mutation path (any thread; serialized by the mutation lock)
    # ------------------------------------------------------------------
    def mutate(
        self,
        graph_name: str,
        inserts: tuple | None = None,
        deletes: tuple | None = None,
        *,
        durable: bool | None = None,
    ) -> dict:
        """Apply one batch of edge insertions/deletions to a hosted graph.

        Builds the next :class:`~repro.dynamic.DeltaGraph` epoch over
        the current graph (copy-on-write — in-flight queries keep their
        epoch), appends the batch to the graph's append-only delta log
        (when ``delta_log_dir`` is configured), compacts the overlay
        back into a plain graph / fresh snapshot once it exceeds
        ``compact_threshold`` of the base, and swaps the registry entry.
        Cached results of earlier epochs stop matching (the cache key
        carries the install serial) and are dropped (:meth:`swap_graph`).

        ``durable`` overrides the service's ``fsync`` default for this
        one batch: ``True`` fsyncs the log append before acknowledging
        (power-loss durability), ``False`` skips the fsync even on an
        fsync-default service.

        Returns a JSON-ready summary of what was applied.
        """
        if self.read_only:
            raise ReadOnlyServiceError(
                f"graph {graph_name!r} is served by a read-only replica; "
                f"send mutations to the leader"
            )
        if self._draining.is_set():
            raise ServiceDrainingError(
                "service is draining for shutdown; mutation not admitted"
            )
        with self._mutate_lock:
            entry = self.registry.entry(graph_name)
            graph = entry.graph
            overlay = (
                graph if isinstance(graph, DeltaGraph) else DeltaGraph(graph)
            )
            new_graph: Graph = overlay.apply_delta(inserts, deletes)
            batch = new_graph.last_batch
            epoch = entry.epoch + 1
            log = self._delta_log(graph_name)
            if log is not None:
                log.append(inserts, deletes, epoch=epoch, sync=durable)
            compacted = False
            source = None
            if new_graph.delta_fraction >= self.compact_threshold:
                if self.delta_log_dir is not None:
                    snapshot = (
                        self.delta_log_dir
                        / f"{graph_name}-epoch{epoch}.gmsnap"
                    )
                    new_graph = compact_delta_graph(
                        new_graph,
                        snapshot,
                        log=log,
                        n_partitions=self.options.block_count(
                            new_graph.n_vertices
                        ),
                    )
                    source = str(snapshot)
                else:
                    new_graph = new_graph.to_graph()
                compacted = True
                self._generation[graph_name] = epoch
            entry = self.swap_graph(
                graph_name, new_graph, epoch=epoch, source=source
            )
            with self._lock:
                self._mutations += 1
                self._edges_inserted += batch.n_inserted
                self._edges_deleted += batch.n_deleted
                self._compactions += int(compacted)
        with self._repl_cond:
            self._repl_cond.notify_all()
        return {
            "graph": graph_name,
            "epoch": epoch,
            "durable": bool(
                (durable if durable is not None else self.fsync)
                and log is not None
            ),
            "n_edges": int(new_graph.n_edges),
            "compacted": compacted,
            "delta_edges": int(getattr(new_graph, "delta_edges", 0)),
            **batch.to_dict(),
        }

    def swap_graph(
        self, graph_name: str, graph: Graph, *, epoch: int, source=None
    ) -> GraphEntry:
        """Move a hosted graph to a new epoch (see ``GraphRegistry.swap``).

        Cached results of its earlier graph objects go with it: their
        keys carry an older install serial, so no later lookup can match
        them, and each holds a full result vector.  A query still in
        flight on an old object may store its result after this purge;
        the next swap drops it.
        """
        entry = self.registry.swap(
            graph_name, graph, epoch=epoch, source=source
        )
        self.cache.evict_where(
            lambda key: key[0] == graph_name and key[1] != entry.serial
        )
        return entry

    def _delta_log(self, graph_name: str) -> DeltaLog | None:
        if self.delta_log_dir is None:
            return None
        with self._logs_lock:
            log = self._delta_logs.get(graph_name)
            if log is None:
                log = DeltaLog(
                    self.delta_log_dir / f"{graph_name}{DELTA_LOG_SUFFIX}",
                    fsync=self.fsync,
                )
                self._delta_logs[graph_name] = log
        return log

    def _latest_compacted(self, graph_name: str) -> tuple[int, Path] | None:
        """The newest ``{name}-epoch{N}.gmsnap`` compaction, if any."""
        pattern = re.compile(re.escape(graph_name) + r"-epoch(\d+)\.gmsnap$")
        compacted = [
            (int(match.group(1)), path)
            for path in self.delta_log_dir.glob(f"{graph_name}-epoch*.gmsnap")
            if (match := pattern.search(path.name)) is not None
        ]
        return max(compacted) if compacted else None

    def _recover(self, graph_name: str) -> None:
        """Bring a freshly registered graph up to its durable state.

        Acknowledged mutations outlive the process as (a) the latest
        compacted ``{name}-epoch{N}.gmsnap`` in ``delta_log_dir`` and
        (b) the append-only ``{name}.gmdelta`` log of batches since that
        compaction.  On construction the service loads (a) when
        present, replays (b) on top (a torn trailing record — a crash
        mid-append — is dropped: that batch was never acknowledged),
        and resumes epoch numbering where the log left off, so restart
        neither loses acknowledged mutations nor resets epochs.  A torn
        trailing record is also *truncated away* (:meth:`DeltaLog.repair`)
        so post-recovery appends land on a clean tail instead of behind
        unreachable garbage.
        """
        from repro.store.snapshot import load_snapshot

        entry = self.registry.entry(graph_name)
        graph: Graph = entry.graph
        epoch = entry.epoch
        source = None
        compacted = self._latest_compacted(graph_name)
        if compacted is not None:
            epoch, path = compacted
            graph = load_snapshot(path)
            source = str(path)
        self._generation[graph_name] = epoch
        log_path = self.delta_log_dir / f"{graph_name}{DELTA_LOG_SUFFIX}"
        replayed = 0
        if log_path.exists():
            log = DeltaLog(log_path, fsync=self.fsync)
            with self._logs_lock:
                self._delta_logs[graph_name] = log
            self._torn_bytes_dropped += log.repair()
            # Batches at or below the compacted epoch are already folded
            # into the snapshot (the crash-between-snapshot-and-truncate
            # window leaves them in the log); replaying them would be
            # state-idempotent but bloats the overlay for nothing.
            batches = [
                b for b in log.replay(strict=False) if b.epoch > epoch
            ]
            if batches:
                overlay = (
                    graph
                    if isinstance(graph, DeltaGraph)
                    else DeltaGraph(graph)
                )
                for batch in batches:
                    overlay = overlay.apply_delta(
                        batch.inserts(), batch.deletes()
                    )
                graph = overlay
                epoch = max(epoch, batches[-1].epoch)
                replayed = len(batches)
        if graph is not entry.graph:
            self.swap_graph(graph_name, graph, epoch=epoch, source=source)
        self._recovered_batches += replayed

    # ------------------------------------------------------------------
    # Replication (leader side): log tailing + snapshot hand-off
    # ------------------------------------------------------------------
    def replication_status(self, graph_name: str) -> dict:
        """Where the leader's durable state stands for one graph.

        ``generation`` is the epoch of the last compaction (0 = never):
        log byte offsets are only meaningful *within* a generation,
        because compaction truncates the log.  ``log_bytes`` is the
        current end-of-log offset a fresh follower should tail from
        after installing the snapshot.
        """
        if self.delta_log_dir is None:
            raise ServeError(
                "replication requires a delta_log_dir (durable leader)"
            )
        entry = self.registry.entry(graph_name)
        log = self._delta_log(graph_name)
        return {
            "graph": graph_name,
            "epoch": entry.epoch,
            "generation": self._generation.get(graph_name, 0),
            "log_bytes": log.nbytes,
            "fsync": self.fsync,
        }

    def wait_for_log(
        self,
        graph_name: str,
        offset: int,
        generation: int,
        timeout: float = 10.0,
    ) -> tuple[bytes | None, int, dict]:
        """Long-poll the delta log from ``offset`` within ``generation``.

        Returns ``(data, next_offset, status)``:

        - ``data`` is raw CRC-framed log bytes (one or more whole
          frames) when new records exist — the follower appends them to
          its own log and applies the batches;
        - ``data == b""`` when the timeout elapsed with nothing new
          (the follower just polls again);
        - ``data is None`` when the cursor is invalid — generation
          mismatch (the leader compacted) or an offset past the end of
          the log (a leader that crashed and lost an unsynced tail).
          The follower must reinstall the snapshot (catch-up-then-swap)
          and restart its cursor from the fresh ``status``.
        """
        log = self._delta_log(graph_name)
        offset = max(int(offset), LOG_START)
        deadline = time.monotonic() + max(0.0, float(timeout))
        while True:
            status = self.replication_status(graph_name)
            if (
                int(generation) != status["generation"]
                or offset > status["log_bytes"]
            ):
                return None, LOG_START, status
            data, next_offset = log.read_intact(offset)
            if data:
                return data, next_offset, status
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self._draining.is_set():
                return b"", offset, status
            # Wake on commit notifications; cap the wait so a draining
            # leader releases long-pollers promptly.
            with self._repl_cond:
                self._repl_cond.wait(timeout=min(remaining, 0.5))

    def snapshot_source(self, graph_name: str) -> dict | None:
        """The snapshot a bootstrapping follower should install.

        The latest compacted snapshot when one exists, else the graph's
        original source snapshot (epoch 0), else ``None`` (a memory-only
        graph: the follower replays the log from scratch).
        """
        if self.delta_log_dir is None:
            raise ServeError(
                "replication requires a delta_log_dir (durable leader)"
            )
        compacted = self._latest_compacted(graph_name)
        if compacted is not None:
            epoch, path = compacted
            return {"path": str(path), "epoch": epoch}
        entry = self.registry.entry(graph_name)
        if entry.source and Path(entry.source).exists():
            return {"path": str(entry.source), "epoch": 0}
        return None

    # ------------------------------------------------------------------
    # Dispatch path (the batcher's thread)
    # ------------------------------------------------------------------
    def _execute_batch(self, group: Hashable, tickets: list[Ticket]) -> None:
        graph_name, _serial, kind, _batch_key = group
        # The pinned object, not a fresh registry read: a mutation
        # between admission and dispatch must not retarget this batch.
        graph = tickets[0].payload.graph
        adapter: QueryAdapter = tickets[0].payload.adapter
        # Identical concurrent queries (same cache key: the hot-root /
        # popular-source pattern, in flight before the first one could
        # populate the cache) share one lane instead of computing the
        # same result K times — the lanes they free go to distinct work.
        lanes: dict[Hashable, list[Ticket]] = {}
        for ticket in tickets:
            lanes.setdefault(ticket.payload.cache_key, []).append(ticket)
        canonicals = [dups[0].payload.canonical for dups in lanes.values()]
        programs = adapter.make_programs(canonicals)
        lane_properties, lane_active = adapter.init_lanes(graph, canonicals)
        options = adapter.engine_options(canonicals[0], self.options)
        dispatch_at = self._clock()
        enqueued_ats = [t.enqueued_at for t in tickets]
        for ticket in tickets:
            if ticket.trace is not None:
                ticket.trace.add(
                    "dispatched",
                    batch_size=len(tickets),
                    lanes=len(canonicals),
                )
        superstep_profile: list[dict] = []
        if self.telemetry is not None:
            # Engine-time attribution for traces and the slow-query log:
            # one dict per superstep, bounded so a pathological run
            # cannot balloon a log line.
            def profile_hook(stats) -> None:
                if len(superstep_profile) < 32:
                    superstep_profile.append(
                        {
                            "iteration": stats.iteration,
                            "seconds": round(stats.seconds, 6),
                            "frontier_density": round(
                                stats.frontier_density, 6
                            ),
                            "edges_processed": stats.edges_processed,
                        }
                    )

            options = options.with_(profile_hook=profile_hook)
        for ticket in tickets:
            if ticket.trace is not None:
                ticket.trace.add("engine_start")
        # Per-lane deadline tokens: duplicates share a lane, so the
        # lane runs to the *latest* duplicate's deadline (a patient
        # requester must not be cancelled by an impatient twin), and a
        # single no-deadline duplicate means the lane runs unbounded.
        lane_tokens: list[CancellationToken | None] = []
        for dups in lanes.values():
            deadlines = [t.deadline_at for t in dups]
            if any(d is None for d in deadlines):
                lane_tokens.append(None)
            else:
                lane_tokens.append(
                    CancellationToken(
                        deadline_at=max(deadlines), clock=self._clock
                    )
                )
        run = run_graph_programs_batched(
            graph, programs, lane_properties, lane_active, options,
            lane_tokens=(
                lane_tokens if any(t is not None for t in lane_tokens)
                else None
            ),
        )
        engine = _engine_summary(run)
        for ticket in tickets:
            if ticket.trace is not None:
                ticket.trace.add(
                    "engine_end",
                    supersteps=run.n_supersteps,
                    engine_seconds=round(run.total_seconds, 6),
                    profile=superstep_profile,
                )
        if self.telemetry is not None:
            self.telemetry.observe_batch(
                len(canonicals),
                run.total_seconds,
                [dispatch_at - enq for enq in enqueued_ats],
            )
        with self._lock:
            self._engine_seconds += run.total_seconds
            self._engine_supersteps += run.n_supersteps
            self._engine_edges += run.total_edges_processed
            self._cancelled_lanes += run.lanes_cancelled
            for kernel, blocks in engine["kernels"].items():
                self._kernel_totals[kernel] = (
                    self._kernel_totals.get(kernel, 0) + blocks
                )
            # Feasibility estimate for deadline admission: smooth, so
            # one outlier batch neither opens nor slams the door.
            if self._batch_seconds_ewma == 0.0:
                self._batch_seconds_ewma = run.total_seconds
            else:
                self._batch_seconds_ewma = (
                    0.7 * self._batch_seconds_ewma + 0.3 * run.total_seconds
                )
        for lane, dups in enumerate(lanes.values()):
            lane_stats = run.lane_stats[lane]
            if lane_stats.cancelled:
                # Never cache a cancelled lane: its properties are a
                # truncated run, not the query's answer.
                error = DeadlineExceededError(
                    f"query cancelled after {lane_stats.n_supersteps} "
                    f"superstep(s): {lane_stats.cancel_reason}",
                    run_stats=lane_stats,
                )
                for ticket in dups:
                    ticket.future.set_exception(error)
                continue
            # Copy the lane slice out: a view would pin the whole (K, n)
            # batch block in memory for as long as the cache holds it.
            values = np.array(adapter.extract(run, lane), copy=True)
            values.setflags(write=False)
            self.cache.put(dups[0].payload.cache_key, values)
            for ticket in dups:
                ticket.future.set_result((values, len(canonicals), engine))

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready service counters for the ``/stats`` endpoint."""
        with self._lock:
            service = {
                "uptime_seconds": time.monotonic() - self._started_monotonic,
                "started_at": self._started_at,
                "draining": self._draining.is_set(),
                "read_only": self.read_only,
                "fsync": self.fsync,
                "queries": self._queries,
                "queries_by_kind": dict(self._kind_counts),
                "errors": self._errors,
                "engine": {
                    "seconds": self._engine_seconds,
                    "supersteps": self._engine_supersteps,
                    "edges_processed": self._engine_edges,
                    "kernel_blocks": dict(self._kernel_totals),
                },
                "mutations": {
                    "recovered_batches": self._recovered_batches,
                    "batches": self._mutations,
                    "edges_inserted": self._edges_inserted,
                    "edges_deleted": self._edges_deleted,
                    "compactions": self._compactions,
                    "compact_threshold": self.compact_threshold,
                    "torn_bytes_dropped": self._torn_bytes_dropped,
                    "generations": dict(self._generation),
                    "delta_log_dir": (
                        str(self.delta_log_dir)
                        if self.delta_log_dir is not None
                        else None
                    ),
                },
                "options": {
                    "backend": self.options.backend,
                    "n_workers": self.options.n_workers,
                },
                "governance": {
                    "default_deadline_s": self.default_deadline,
                    "cancelled_lanes": self._cancelled_lanes,
                    "deadline_refused": self._deadline_refused,
                    "batch_seconds_ewma": self._batch_seconds_ewma,
                },
            }
        # Quota holds its own lock; attach outside the service lock.
        service["governance"]["quota"] = (
            self.quota.stats() if self.quota is not None else None
        )
        service["scheduler"] = self._batcher.stats()
        service["cache"] = self.cache.stats()
        graphs = self.registry.describe()
        for graph in graphs:
            graph["blocks"] = self.options.block_count(graph["n_vertices"])
        service["graphs"] = graphs
        return service

    @property
    def draining(self) -> bool:
        """True once a graceful drain has started (new work is refused)."""
        return self._draining.is_set()

    def ready(self) -> tuple[bool, str]:
        """Readiness (should a load balancer route here?): bool + reason.

        Liveness is a different question — a draining service is alive
        (it is finishing admitted work) but not ready (it admits
        nothing new).  The HTTP layer serves them on separate endpoints.
        """
        if self._draining.is_set():
            return False, "draining"
        return True, "ok"

    def begin_drain(self) -> None:
        """Stop admitting work; already-admitted requests still complete."""
        self._draining.set()
        # Release replication long-pollers promptly: followers see the
        # empty read and fail over instead of hanging on a dying leader.
        with self._repl_cond:
            self._repl_cond.notify_all()

    def close(self) -> None:
        """Graceful shutdown, in dependency order.

        1. Stop admission (new queries/mutations get
           :class:`~repro.errors.ServiceDrainingError` -> 503).
        2. Drain the micro-batcher: every admitted ticket executes and
           resolves before the dispatcher exits.
        3. fsync every delta log, so each *acknowledged* mutation is on
           disk even when the service ran with ``fsync=False``.

        Idempotent; ``__exit__`` and the SIGTERM handler both land here.
        """
        self.begin_drain()
        self._batcher.close()
        with self._logs_lock:
            logs = list(self._delta_logs.values())
        for log in logs:
            log.sync()

    def __enter__(self) -> "GraphService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _engine_summary(run: BatchRun) -> dict:
    """The per-response slice of a batch's run record (JSON-ready)."""
    return {
        "supersteps": run.n_supersteps,
        "edges_processed": run.total_edges_processed,
        "seconds": run.total_seconds,
        "backend": run.backend,
        "converged": run.converged,
        "lanes_cancelled": run.lanes_cancelled,
        "kernels": run.kernel_totals(),
    }
