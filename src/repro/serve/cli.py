"""``repro-serve``: host graph snapshots behind the batching query service.

::

    repro-serve --graph social=soc-graph.gmsnap --port 8642
    repro-serve --graph g1=a.gmsnap --graph g2=b.gmsnap \\
        --max-batch-k 16 --max-wait-ms 2 --cache-size 1024 \\
        --backend threaded --n-workers 4

Then query it with any HTTP client::

    curl -s localhost:8642/healthz
    curl -s localhost:8642/graphs
    curl -s -X POST localhost:8642/query/bfs \\
        -d '{"graph": "social", "root": 0, "top": 10}'
    curl -s localhost:8642/stats
    curl -s localhost:8642/metrics    # Prometheus text format

Concurrent requests for the same (graph, program) coalesce into K-lane
batched engine runs (one edge sweep serves the whole batch); repeated
queries answer from the result cache.  See docs/SERVING.md.

Replication: a durable leader (``--delta-log-dir``) can be followed by
read-only replicas that bootstrap and tail it over HTTP::

    repro-serve --graph g=g.gmsnap --delta-log-dir /var/lib/repro &
    repro-serve --follow http://127.0.0.1:8642 \\
        --replica-dir /var/lib/repro-replica --port 8643

SIGTERM (and Ctrl-C) trigger a graceful drain: admission stops (new
requests get 503 + Retry-After and fail over), admitted requests finish,
delta logs are fsynced, then the process exits 0 — zero admitted
requests are lost.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.core.options import KNOWN_BACKENDS, EngineOptions
from repro.errors import ReproError
from repro.obs.serving import ServeTelemetry
from repro.serve.cache import ResultCache
from repro.serve.http import ServeHandler, make_server
from repro.serve.registry import GraphRegistry
from repro.serve.replication import ReplicationFollower
from repro.serve.quota import QuotaManager, TenantPolicy
from repro.serve.scheduler import BatchPolicy
from repro.serve.service import GraphService


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve graph queries over HTTP with dynamic micro-batching",
    )
    parser.add_argument(
        "--graph",
        action="append",
        default=[],
        metavar="NAME=SNAPSHOT",
        help="host a .gmsnap snapshot under NAME (repeatable, required)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument(
        "--max-batch-k", type=int, default=16,
        help="max concurrent queries per engine run (default 16)",
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="dispatch window for partial batches (default 2 ms)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=256,
        help="pending-query bound before 503 shedding (default 256)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=1024,
        help="result-cache entries, 0 disables (default 1024)",
    )
    parser.add_argument(
        "--cache-ttl", type=float, default=0.0,
        help="result time-to-live in seconds, 0 = no expiry (default 0)",
    )
    parser.add_argument(
        "--backend", choices=KNOWN_BACKENDS, default="serial",
        help="engine execution backend for batch runs (default serial)",
    )
    parser.add_argument(
        "--n-workers", type=int, default=1,
        help="workers for the threaded backend (default 1)",
    )
    parser.add_argument(
        "--delta-log-dir", default=None, metavar="DIR",
        help="persist mutations (POST /graphs/NAME/edges) to append-only "
             ".gmdelta logs in DIR; compacted snapshots land there too "
             "(default: mutations are memory-only)",
    )
    parser.add_argument(
        "--compact-threshold", type=float, default=0.25,
        help="overlay size (fraction of the base edge count) that "
             "triggers compaction back into a fresh snapshot "
             "(default 0.25)",
    )
    parser.add_argument(
        "--fsync", action="store_true",
        help="fsync every delta-log append before acknowledging a "
             "mutation (power-loss durability; default: flush only, "
             "which survives process crashes but not power loss)",
    )
    parser.add_argument(
        "--follow", default=None, metavar="LEADER_URL",
        help="run as a read-only replication follower of LEADER_URL "
             "(e.g. http://leader:8642); graphs are discovered and "
             "bootstrapped from the leader, --graph is not required",
    )
    parser.add_argument(
        "--replica-dir", default=None, metavar="DIR",
        help="follower state directory: leader snapshots and the local "
             "copy of the delta log land here (required with --follow)",
    )
    parser.add_argument(
        "--max-epoch-lag", type=int, default=8,
        help="follower staleness bound: reads 503 once the replica lags "
             "the leader by more than this many epochs; negative "
             "disables the guard (default 8)",
    )
    parser.add_argument(
        "--poll-timeout", type=float, default=10.0,
        help="follower long-poll duration in seconds (default 10)",
    )
    parser.add_argument(
        "--default-deadline-ms", type=float, default=0.0,
        help="deadline applied to queries that do not send one "
             "(deadline_ms / X-Deadline-Ms); past it the query is "
             "refused or cancelled at the next superstep and answered "
             "with 504 (default 0 = no implicit deadline)",
    )
    parser.add_argument(
        "--tenant-rate", type=float, default=0.0,
        help="per-tenant admission rate in queries/second (X-Tenant "
             "header; unknown tenants share the default policy); "
             "refusals get 429 + Retry-After (default 0 = no rate cap)",
    )
    parser.add_argument(
        "--tenant-burst", type=float, default=0.0,
        help="per-tenant token-bucket burst size (default 0 = one "
             "second's worth of --tenant-rate)",
    )
    parser.add_argument(
        "--tenant-max-inflight", type=int, default=0,
        help="per-tenant concurrent-request cap (default 0 = unlimited)",
    )
    parser.add_argument(
        "--tenant-queue-share", type=float, default=0.0,
        help="largest fraction of --max-queue one tenant may occupy, "
             "in (0, 1] (default 0 = unlimited)",
    )
    parser.add_argument(
        "--slow-query-ms", type=float, default=0.0,
        help="log a structured JSON trace (repro.serve.slowquery logger) "
             "for every request slower than this wall time "
             "(default 0 = slow-query log disabled; /metrics is always on)",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="re-checksum snapshot arrays while loading",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    return parser


def build_service(args: argparse.Namespace) -> GraphService:
    """Registry + service from parsed CLI arguments (shared with tests)."""
    follower_mode = getattr(args, "follow", None) is not None
    if follower_mode:
        if not getattr(args, "replica_dir", None):
            raise ReproError("--follow requires --replica-dir DIR")
        if args.graph:
            raise ReproError(
                "--graph and --follow are mutually exclusive: a follower "
                "bootstraps its graphs from the leader"
            )
    elif not args.graph:
        raise ReproError("at least one --graph NAME=SNAPSHOT is required")
    registry = GraphRegistry()
    for spec in args.graph:
        name, separator, path = spec.partition("=")
        if not separator or not name or not path:
            raise ReproError(
                f"--graph expects NAME=SNAPSHOT, got {spec!r}"
            )
        entry = registry.add_snapshot(name, path, verify=args.verify)
        print(
            f"hosting {name!r}: {entry.graph.n_vertices} vertices, "
            f"{entry.graph.n_edges} edges from {path} "
            f"({entry.load_seconds * 1e3:.1f} ms load)"
        )
    quota = None
    if (
        getattr(args, "tenant_rate", 0) > 0
        or getattr(args, "tenant_max_inflight", 0) > 0
        or getattr(args, "tenant_queue_share", 0) > 0
    ):
        quota = QuotaManager(
            default=TenantPolicy(
                rate=args.tenant_rate if args.tenant_rate > 0 else None,
                burst=(
                    args.tenant_burst if args.tenant_burst > 0 else None
                ),
                max_in_flight=(
                    args.tenant_max_inflight
                    if args.tenant_max_inflight > 0
                    else None
                ),
                max_queue_share=(
                    args.tenant_queue_share
                    if args.tenant_queue_share > 0
                    else None
                ),
            )
        )
    return GraphService(
        registry,
        options=EngineOptions(
            backend=args.backend, n_workers=args.n_workers
        ),
        policy=BatchPolicy(
            max_batch_k=args.max_batch_k,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
        ),
        cache=ResultCache(
            capacity=args.cache_size,
            ttl_seconds=args.cache_ttl if args.cache_ttl > 0 else None,
        ),
        delta_log_dir=args.delta_log_dir,
        compact_threshold=args.compact_threshold,
        fsync=getattr(args, "fsync", False),
        read_only=follower_mode,
        quota=quota,
        default_deadline=(
            args.default_deadline_ms / 1e3
            if getattr(args, "default_deadline_ms", 0) > 0
            else None
        ),
        # The CLI always serves /metrics; the slow-query log is opt-in.
        telemetry=ServeTelemetry(
            slow_query_ms=(
                args.slow_query_ms
                if getattr(args, "slow_query_ms", 0) > 0
                else None
            ),
        ),
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        service = build_service(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ServeHandler.log_requests = args.verbose
    server = make_server(service, args.host, args.port)
    follower = None
    if args.follow is not None:
        follower = ReplicationFollower(
            service,
            args.follow,
            replica_dir=args.replica_dir,
            max_epoch_lag=(
                args.max_epoch_lag if args.max_epoch_lag >= 0 else None
            ),
            poll_timeout=args.poll_timeout,
        )
        server.follower = follower
        # Epoch lag / frames applied / snapshot installs show up on
        # /metrics alongside everything else.
        service.telemetry.bind_follower(follower)
        try:
            follower.start()
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            server.server_close()
            service.close()
            return 2
    host, port = server.server_address[:2]
    role = f"follower of {args.follow}" if follower is not None else "leader"
    print(
        f"repro-serve listening on http://{host}:{port} "
        f"(K<={service.policy.max_batch_k}, "
        f"window {service.policy.max_wait_ms} ms, "
        f"queue {service.policy.max_queue}, "
        f"cache {service.cache.capacity}, "
        f"fsync {'on' if service.fsync else 'off'}, {role}); "
        f"metrics at /metrics",
        flush=True,
    )

    # Graceful drain on SIGTERM/SIGINT: stop admission first (new work
    # gets 503 and fails over), then stop accepting connections.
    # serve_forever() can't be stopped from inside its own thread, so
    # the handler fires shutdown() from a helper thread and main()
    # falls through to the drain sequence below.
    def _drain(signum, frame) -> None:
        print(f"\ndraining on signal {signum}", flush=True)
        service.begin_drain()
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    try:
        server.serve_forever()
    finally:
        # Admitted requests finish on their connection threads, then the
        # scheduler drains, then every delta log is synced — the order
        # that makes "acknowledged" mean "durable and answered".
        server.wait_idle(timeout=30.0)
        if follower is not None:
            follower.stop()
        service.close()
        server.server_close()
    print("drained; exiting", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
