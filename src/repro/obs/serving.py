"""The serving layer's metric catalog and telemetry façade.

:class:`ServeTelemetry` is the one object the serve stack shares: the
service pushes hot-path observations through it (request outcomes and
latencies, queue wait, batch wall time, achieved batch K), and a
render-time *collector* mirrors every already-maintained stats counter —
scheduler, cache, quota, engine, mutation, replication — into Prometheus
families, so ``GET /metrics`` exposes the whole system without a second
bookkeeping path.

Design rules:

- **Catalog up front.**  Every family is registered at construction,
  bound or not, so the exposition (and the docs lint,
  ``tools/check_metrics_docs.py``) always sees the complete catalog —
  a metric must not appear only after its first request.
- **Duck-typed binding.**  ``bind_service`` / ``bind_follower`` accept
  anything with the right ``stats()`` / ``status()`` shape; this module
  imports nothing from :mod:`repro.serve`, so ``repro.obs`` stays a
  leaf package usable from tests and benchmarks alone.
- **Collectors never raise.**  A scrape must not take down serving; a
  failing stats source is counted in ``repro_obs_collect_errors_total``
  and the rest of the catalog still renders.

The full catalog with label sets and types is documented in
``docs/OBSERVABILITY.md`` (enforced by the lint above).
"""

from __future__ import annotations

import logging

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.obs.tracing import SlowQueryLog, Trace

__all__ = ["ServeTelemetry"]

#: Achieved-batch-K buckets: the interesting resolution is small K
#: (was the sweep amortized at all?) up to the policy ceilings in use.
_BATCH_K_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)

#: Queue-wait buckets: sub-ms (fast path) through the multi-second
#: territory where deadline admission should have refused instead.
_QUEUE_WAIT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
)


class ServeTelemetry:
    """Every serving metric, one registry, one slow-query log.

    Constructed once per process (the CLI always builds one; embedded
    users opt in by passing it to ``GraphService(telemetry=...)``).
    ``slow_query_ms`` enables the structured slow-query log; None
    disables it (the trace is still built — logging is the only cost
    gated here).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        slow_query_ms: float | None = None,
        logger: logging.Logger | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.slow_log = (
            SlowQueryLog(slow_query_ms, logger=logger)
            if slow_query_ms is not None
            else None
        )
        self._service = None
        self._follower = None
        r = self.registry

        # -- pushed on the request path ---------------------------------
        self.requests_total = r.counter(
            "repro_requests_total",
            "Requests answered, by graph, query kind, and outcome status.",
            labels=("graph", "kind", "status"),
        )
        self.request_latency = r.histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency (admission to response).",
            buckets=DEFAULT_LATENCY_BUCKETS,
            labels=("graph", "kind"),
        )
        self.queue_wait = r.histogram(
            "repro_queue_wait_seconds",
            "Ticket wait between enqueue and batch dispatch.",
            buckets=_QUEUE_WAIT_BUCKETS,
        )
        self.batch_wall = r.histogram(
            "repro_batch_wall_seconds",
            "Wall time of one batched engine run.",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.batch_lanes = r.histogram(
            "repro_batch_lanes",
            "Achieved batch K (deduplicated lanes per engine run).",
            buckets=_BATCH_K_BUCKETS,
        )
        self.slow_queries = r.counter(
            "repro_slow_queries_total",
            "Requests slower than the --slow-query-ms threshold.",
        )

        # -- mirrored from service stats at scrape time -----------------
        self._uptime = r.gauge(
            "repro_service_uptime_seconds",
            "Seconds since service construction (monotonic clock).",
        )
        self._queries = r.counter(
            "repro_service_queries_total",
            "Queries admitted past validation, by kind.",
            labels=("kind",),
        )
        self._errors = r.counter(
            "repro_service_errors_total",
            "Queries whose future resolved with an exception.",
        )
        self._sched_submitted = r.counter(
            "repro_scheduler_submitted_total",
            "Tickets admitted into the micro-batcher.",
        )
        self._sched_shed = r.counter(
            "repro_scheduler_shed_total",
            "Tickets refused at admission because the queue was full.",
        )
        self._sched_expired = r.counter(
            "repro_scheduler_expired_total",
            "Tickets whose deadline passed while queued (never dispatched).",
        )
        self._sched_dispatches = r.counter(
            "repro_scheduler_dispatches_total",
            "Engine dispatches, by trigger path (full or timeout).",
            labels=("path",),
        )
        self._sched_lanes = r.counter(
            "repro_scheduler_lanes_dispatched_total",
            "Tickets handed to the engine across all dispatches.",
        )
        self._sched_slo = r.counter(
            "repro_scheduler_slo_dispatches_total",
            "Overdue dispatches ordered by earliest ticket deadline.",
        )
        self._sched_pending = r.gauge(
            "repro_scheduler_pending",
            "Tickets admitted but not yet dispatched (queue depth).",
        )
        self._cache_hits = r.counter(
            "repro_cache_hits_total", "Result-cache hits."
        )
        self._cache_misses = r.counter(
            "repro_cache_misses_total", "Result-cache misses."
        )
        self._cache_evictions = r.counter(
            "repro_cache_evictions_total",
            "Result-cache evictions (LRU overflow, superseded graph epochs).",
        )
        self._cache_expirations = r.counter(
            "repro_cache_expirations_total", "Result-cache TTL expirations."
        )
        self._cache_entries = r.gauge(
            "repro_cache_entries", "Result-cache current occupancy."
        )
        self._cache_hit_rate = r.gauge(
            "repro_cache_hit_rate", "Result-cache lifetime hit rate (0-1)."
        )
        self._quota_admitted = r.counter(
            "repro_quota_admitted_total",
            "Requests admitted by per-tenant quota, by tenant.",
            labels=("tenant",),
        )
        self._quota_rejected = r.counter(
            "repro_quota_rejected_total",
            "Requests refused by per-tenant quota, by tenant and reason "
            "(rate, in_flight, share).",
            labels=("tenant", "reason"),
        )
        self._quota_in_flight = r.gauge(
            "repro_quota_in_flight",
            "Requests currently admitted and unreleased, by tenant.",
            labels=("tenant",),
        )
        self._engine_seconds = r.counter(
            "repro_engine_seconds_total",
            "Wall seconds spent inside batched engine runs.",
        )
        self._engine_supersteps = r.counter(
            "repro_engine_supersteps_total",
            "Supersteps executed across all serving runs.",
        )
        self._engine_edges = r.counter(
            "repro_engine_edges_total",
            "Edges processed across all serving runs.",
        )
        self._engine_cancelled = r.counter(
            "repro_engine_cancelled_lanes_total",
            "Engine lanes cooperatively cancelled (deadline/budget).",
        )
        self._engine_kernel_blocks = r.counter(
            "repro_engine_kernel_blocks_total",
            "Per-block kernel selections across serving runs, by kernel "
            "(scalar, sparse-gather, dense-pull).",
            labels=("kernel",),
        )
        self._deadline_refused = r.counter(
            "repro_deadline_refused_total",
            "Requests refused at admission as deadline-infeasible.",
        )
        self._mutations = r.counter(
            "repro_mutations_total", "Mutation batches committed."
        )
        self._compactions = r.counter(
            "repro_compactions_total", "Delta-overlay compactions."
        )
        self._graph_epoch = r.gauge(
            "repro_graph_epoch",
            "Current epoch of each hosted graph.",
            labels=("graph",),
        )

        # -- mirrored from a replication follower -----------------------
        self._repl_lag = r.gauge(
            "repro_replication_epoch_lag",
            "Follower epoch lag behind the leader, by graph.",
            labels=("graph",),
        )
        self._repl_batches = r.counter(
            "repro_replication_batches_applied_total",
            "Replicated mutation batches applied locally.",
        )
        self._repl_snapshots = r.counter(
            "repro_replication_snapshots_installed_total",
            "Catch-up snapshot installs (bootstrap or cursor reset).",
        )
        self._repl_errors = r.counter(
            "repro_replication_errors_total",
            "Replication protocol errors (reconnects, bad frames).",
        )

        self._collect_errors = r.counter(
            "repro_obs_collect_errors_total",
            "Scrape-time collector failures (metrics kept serving).",
        )

        r.add_collector(self._collect)

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind_service(self, service) -> None:
        """Mirror ``service.stats()`` into the catalog at each scrape."""
        self._service = service

    def bind_follower(self, follower) -> None:
        """Mirror ``follower.status()`` into the catalog at each scrape."""
        self._follower = follower

    # ------------------------------------------------------------------
    # Hot-path hooks (called by GraphService)
    # ------------------------------------------------------------------
    def observe_request(
        self,
        graph: str,
        kind: str,
        status: str,
        seconds: float,
        trace: Trace | None = None,
    ) -> None:
        """Record one finished request; feed the slow-query log."""
        self.requests_total.inc(graph=graph, kind=kind, status=status)
        self.request_latency.observe(seconds, graph=graph, kind=kind)
        if self.slow_log is not None and trace is not None:
            if self.slow_log.maybe_log(
                trace, seconds * 1e3, graph=graph, kind=kind, status=status
            ):
                self.slow_queries.inc()

    def observe_batch(
        self, lanes: int, wall_seconds: float, queue_waits: list[float]
    ) -> None:
        """Record one dispatched engine batch."""
        self.batch_lanes.observe(lanes)
        self.batch_wall.observe(wall_seconds)
        for wait in queue_waits:
            self.queue_wait.observe(wait)

    # ------------------------------------------------------------------
    # Scrape-time mirror
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        try:
            if self._service is not None:
                self._collect_service(self._service.stats())
        except Exception:  # noqa: BLE001 — a scrape must not fail serving
            self._collect_errors.inc()
        try:
            if self._follower is not None:
                self._collect_follower(self._follower.status())
        except Exception:  # noqa: BLE001
            self._collect_errors.inc()

    def _collect_service(self, stats: dict) -> None:
        self._uptime.set(stats["uptime_seconds"])
        for kind, count in stats["queries_by_kind"].items():
            self._queries.set(count, kind=kind)
        self._errors.set(stats["errors"])

        sched = stats["scheduler"]
        self._sched_submitted.set(sched["submitted"])
        self._sched_shed.set(sched["shed"])
        self._sched_expired.set(sched["expired"])
        self._sched_dispatches.set(sched["full_dispatches"], path="full")
        self._sched_dispatches.set(sched["timeout_dispatches"], path="timeout")
        self._sched_lanes.set(sched["lanes_dispatched"])
        self._sched_slo.set(sched.get("slo_dispatches", 0))
        self._sched_pending.set(sched["pending"])

        cache = stats["cache"]
        self._cache_hits.set(cache["hits"])
        self._cache_misses.set(cache["misses"])
        self._cache_evictions.set(cache["evictions"])
        self._cache_expirations.set(cache["expirations"])
        self._cache_entries.set(cache["entries"])
        self._cache_hit_rate.set(cache["hit_rate"])

        quota = stats["governance"].get("quota")
        if quota is not None:
            for tenant, state in quota["tenants"].items():
                self._quota_admitted.set(state["admitted"], tenant=tenant)
                self._quota_in_flight.set(state["in_flight"], tenant=tenant)
                for reason in ("rate", "in_flight", "share"):
                    self._quota_rejected.set(
                        state[f"rejected_{reason}"],
                        tenant=tenant,
                        reason=reason,
                    )

        engine = stats["engine"]
        self._engine_seconds.set(engine["seconds"])
        self._engine_supersteps.set(engine["supersteps"])
        self._engine_edges.set(engine["edges_processed"])
        for kernel, blocks in engine.get("kernel_blocks", {}).items():
            self._engine_kernel_blocks.set(blocks, kernel=kernel)
        self._engine_cancelled.set(stats["governance"]["cancelled_lanes"])
        self._deadline_refused.set(stats["governance"]["deadline_refused"])

        self._mutations.set(stats["mutations"]["batches"])
        self._compactions.set(stats["mutations"]["compactions"])
        for graph in stats["graphs"]:
            self._graph_epoch.set(graph["epoch"], graph=graph["name"])

    def _collect_follower(self, status: dict) -> None:
        self._repl_batches.set(status["batches_applied"])
        self._repl_snapshots.set(status["snapshots_installed"])
        self._repl_errors.set(status["errors"])
        for name, state in status["graphs"].items():
            if state["lag"] is not None:
                self._repl_lag.set(state["lag"], graph=name)
