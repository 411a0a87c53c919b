"""``serve_topk``, ``serve_payload`` and ``serve_mutate_mix``: over HTTP.

Untraced, ``repro-serve`` is a subprocess loaded by ``--clients``
connections; traced, the same stack runs in this process behind one
client, with traced and untraced requests alternating.
"""

from __future__ import annotations

import json
import math
import statistics
import threading
import time
from dataclasses import dataclass, field

import inputs
import layers
import probes
import serving
import verify
from harness import (
    COUNTED_OPS, GRAPH_NAME, TOP_K, WRITE_PERIOD_S, Context, Outcome,
)

#: Plans are longer than any window can consume.
PLAN_LENGTH = 16384


class ServePlan:
    """The request stream of one serve workload, from the seed."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.top = None if ctx.workload == "serve_payload" else TOP_K
        #: Mutation batches (``serve_mutate_mix`` only) and the queries
        #: re-checked once they have settled.
        self.batches, self.hot = [], []
        if ctx.workload == "serve_topk":
            plan = inputs.topk_plan(ctx.edges, ctx.seed, 4096)
            # Warm one query of each kind on roots the window never asks
            # for, so that every measured request misses the cache.
            self.requests, self.warm = plan[:-5], plan[-5:]
        elif ctx.workload == "serve_payload":
            hot, draws = inputs.payload_plan(
                ctx.roots[: inputs.N_PAYLOAD_SOURCES], ctx.seed, PLAN_LENGTH
            )
            # The hot set is filled in set-up; every measured request hits.
            self.requests, self.warm = [hot[i] for i in draws], hot
        else:
            # All 16 roots: with fewer, how costly the hot roots happen
            # to be moves the run more than the program does.  One
            # kind: BFS and SSSP half and half make the latencies
            # bimodal with the median in the gap between the modes,
            # where it jumps from run to run.
            self.hot = [("sssp", root) for root in ctx.roots]
            # Round-robin: a query repeats only after all the others, so
            # between two writes it is asked at most once and the read
            # latency is that of a miss on a mutated graph, not a mix of
            # hits and misses whose median jumps with the hit share.
            self.requests = [self.hot[i % len(self.hot)] for i in range(PLAN_LENGTH)]
            self.warm = self.hot[:2]
            self.batches = ctx.mutation_batches(
                max(1, int(ctx.seconds / WRITE_PERIOD_S))
            )

    def send(self, client, request) -> dict:
        kind, vertex = request
        return client.query(
            GRAPH_NAME, kind, inputs.query_body(kind, vertex), top=self.top
        )

    def post(self, client, batch) -> dict:
        inserts, deletes = batch
        return client.mutate(
            GRAPH_NAME, insert=inserts, delete=deletes or None
        )

    def warm_up(self, clients) -> float:
        """Set-up traffic: one pass over ``self.warm``; returns seconds."""
        records, wall, _ = serving.closed_loop(
            self.warm, len(clients), math.inf, 0,
            lambda c, request: self.send(clients[c], request),
        )
        errors = [error for _, _, error in records if error]
        if errors:
            raise RuntimeError(f"warm-up request failed: {errors[0]}")
        return wall


def make_clients(url: str, count: int) -> list:
    from repro.serve import ServeClient

    return [ServeClient(url, retries=0) for _ in range(count)]


def _first_client(url: str):
    return make_clients(url, 1)[0]


def _post_on_schedule(plan, client, begin, outcome, acknowledged) -> None:
    """Open loop: batch ``i`` is due at ``begin + i * period``."""
    for index, batch in enumerate(plan.batches):
        due = begin + index * WRITE_PERIOD_S
        time.sleep(max(0.0, due - time.perf_counter()))
        try:
            plan.post(client, batch)
        except Exception as exc:  # noqa: BLE001 — any failure is a failed write
            outcome.failures.append(f"write {index}: {type(exc).__name__}: {exc}")
            continue
        acknowledged.append(batch)
        # Timed from when it was due, so a stalled server is charged
        # for the writes queued behind the stall.
        latency = time.perf_counter() - due
        if latency > WRITE_PERIOD_S:
            outcome.failures.append(f"write {index}: {latency:.3f}s late")


def untraced(ctx: Context) -> Outcome:
    outcome = Outcome()
    plan = ServePlan(ctx)
    for round_index in range(ctx.setup_rounds):
        convert_s, snapshot = ctx.convert(round_index)
        delta_dir = ctx.workdir / f"wal-{round_index}" if plan.batches else None
        server = serving.ServerProcess(
            snapshot, ctx.workdir, ctx.env, delta_log_dir=delta_dir
        )
        try:
            start_s = server.wait_ready(_first_client)
            outcome.setup_rounds_s.append(convert_s + start_s)
            if round_index == ctx.setup_rounds - 1:
                clients = make_clients(server.url, ctx.clients)
                outcome.warmup_s = plan.warm_up(clients)
                _measure(ctx, plan, server, clients, outcome)
        finally:
            if server.stop() != 0:
                outcome.failures.append(
                    f"repro-serve exited {server.process.returncode} on SIGTERM"
                )
    return outcome


def _measure(ctx, plan, server, clients, outcome: Outcome) -> None:
    """The measured window of an untraced run, then verification."""
    readers, writer, acknowledged = clients, None, []
    cpu_begin = server.cpu_seconds()
    if plan.batches:
        # One connection writes on a schedule, the others read.
        readers = clients[1:] or clients
        writer = threading.Thread(
            target=_post_on_schedule,
            args=(plan, clients[0], time.perf_counter(), outcome, acknowledged),
        )
        writer.start()
    records, wall, sample = serving.closed_loop(
        plan.requests, len(readers), ctx.seconds, ctx.seed,
        lambda c, request: plan.send(readers[c], request),
    )
    if writer is not None:
        writer.join()
    outcome.cpu_s = server.cpu_seconds() - cpu_begin
    outcome.peak_rss_mb = server.peak_rss_mb()
    outcome.window_s = wall
    outcome.attempted = len(records) + len(plan.batches)
    outcome.latencies_ms = [ms for _, ms, error in records if error is None]
    outcome.failures += [error for _, _, error in records if error]
    begin = time.perf_counter()
    if plan.batches:
        verify.after_mutations(ctx, plan.hot, clients[0], acknowledged, outcome)
    else:
        verify.sampled_responses(ctx, sample, outcome)
    ctx.verify_s = time.perf_counter() - begin


def traced(ctx: Context, tracer) -> Outcome:
    outcome = Outcome()
    layer = outcome.layer
    plan = ServePlan(ctx)
    layer.update(layers.ingest_and_load(ctx))
    snapshot = ctx.snapshot_path(0)

    # The shipped subprocess, for what only it can show: start-up time,
    # the HTTP floor and the /metrics scrape.
    server = serving.ServerProcess(snapshot, ctx.workdir, ctx.env)
    try:
        layer["serve.start_s"] = server.wait_ready(_first_client)
        layer["serve.warmup_s"] = plan.warm_up(make_clients(server.url, 1))
        ctx.server_url = server.url
        values, notes = probes.run(ctx, (probes.http_floor, probes.metrics_scrape))
        layer.update(values)
        outcome.notes.update(notes)
    finally:
        if server.stop() != 0:
            outcome.failures.append("repro-serve exited non-zero on SIGTERM")

    delta_dir = ctx.workdir / "wal-traced" if plan.batches else None
    try:
        hosted = serving.InProcessServer(snapshot, delta_log_dir=delta_dir)
    except serving.TargetGone as gone:
        # Only the subprocess half ran: its warm-up requests all succeeded.
        outcome.notes["trace target in-process repro-serve"] = str(gone)
        outcome.attempted = len(plan.warm)
        return outcome
    try:
        ctx.service = hosted.service
        client = _first_client(hosted.url)
        plan.warm_up([client])
        acknowledged = _traced_window(ctx, plan, client, tracer, outcome)
        values, notes = probes.run(ctx, (probes.service_codec,))
        layer.update(values)
        outcome.notes.update(notes)
        if delta_dir is not None:
            log_bytes = sum(f.stat().st_size for f in delta_dir.glob("*.gmdelta"))
            layer["store.delta_log.bytes_per_mutation"] = log_bytes / sum(
                len(inserts) + len(deletes) for inserts, deletes in acknowledged
            )
    finally:
        hosted.stop()
    return outcome


@dataclass
class _Window:
    """What the single traced client saw."""

    acknowledged: list = field(default_factory=list)
    write_ms: list = field(default_factory=list)
    after_write_ms: list = field(default_factory=list)
    traced_ms: list = field(default_factory=list)
    untraced_ms: list = field(default_factory=list)
    overhead_ms: list = field(default_factory=list)
    #: Replies to the first COUNTED_OPS requests of the plan, asked
    #: before the window opens with no write in flight, so that their
    #: engine counts repeat exactly.
    counted: list = field(default_factory=list)
    sample: list = field(default_factory=list)
    #: Client-observed seconds of the traced operations, writes included.
    observed_s: float = 0.0
    begin: float = 0.0


def _traced_window(ctx, plan, client, tracer, outcome: Outcome) -> list:
    """One client; a write when one is due, else the next read."""
    window = _Window()
    if plan.batches:
        # The counted requests see the graph after exactly one batch.
        plan.post(client, plan.batches[0])
        window.acknowledged.append(plan.batches[0])
    window.counted = [
        plan.send(client, request) for request in plan.requests[:COUNTED_OPS]
    ]
    before = client.stats()
    window.begin = time.perf_counter()
    just_wrote = False
    while time.perf_counter() - window.begin < ctx.seconds / 2:
        index = COUNTED_OPS + len(outcome.latencies_ms)
        tracer.enabled = layers.traced_turn(index)
        written = len(window.acknowledged)
        due = window.begin + (written - 1) * WRITE_PERIOD_S
        begin = time.perf_counter()
        if written < len(plan.batches) and begin >= due:
            plan.post(client, plan.batches[written])
            window.acknowledged.append(plan.batches[written])
            window.write_ms.append(1e3 * (time.perf_counter() - due))
            window.observed_s += tracer.enabled * (time.perf_counter() - begin)
            just_wrote = True
            continue
        request = plan.requests[index]
        reply = plan.send(client, request)
        latency = 1e3 * (time.perf_counter() - begin)
        outcome.latencies_ms.append(latency)
        (window.traced_ms if tracer.enabled else window.untraced_ms).append(latency)
        window.observed_s += tracer.enabled * latency / 1e3
        window.overhead_ms.append(latency - reply["latency_ms"])
        if just_wrote:
            window.after_write_ms.append(latency)
            just_wrote = False
        if len(window.sample) < serving.SAMPLE_SIZE:
            window.sample.append((request, reply))
    tracer.enabled = True
    outcome.window_s = time.perf_counter() - window.begin
    outcome.attempted = (
        COUNTED_OPS + len(outcome.latencies_ms) + len(window.acknowledged)
    )
    outcome.layer.update(
        _stats_delta_metrics(before, client.stats(), outcome.window_s)
    )
    outcome.layer.update(_window_metrics(window, tracer))
    begin = time.perf_counter()
    if plan.batches:
        verify.after_mutations(ctx, plan.hot, client, window.acknowledged, outcome)
    else:
        verify.sampled_responses(ctx, window.sample, outcome)
    ctx.verify_s = time.perf_counter() - begin
    return window.acknowledged


def _window_metrics(window: _Window, tracer) -> dict:
    """Per-layer metrics from the replies and spans of the traced window."""
    engine = [reply["engine"] for reply in window.counted]
    metrics = {
        "serve.http.overhead_ms": statistics.median(window.overhead_ms),
        "serve.http.response_bytes_per_op": statistics.fmean(
            len(json.dumps(reply)) for reply in window.counted
        ),
        # Cache hits carry an empty engine record.
        "core.engine.supersteps": sum(e.get("supersteps", 0) for e in engine),
        "core.engine.edges_processed": sum(
            e.get("edges_processed", 0) for e in engine
        ),
        **layers.kernel_blocks([e.get("kernels", {}) for e in engine]),
        **layers.budget(
            tracer, window.begin, window.traced_ms, window.untraced_ms,
            window.observed_s,
        ),
    }

    def span_seconds(layer: str) -> float:
        return sum(
            s["end"] - s["start"] for s in tracer.spans
            if s["start"] >= window.begin and s["layer"] == layer
        )

    engine_s = span_seconds("core.engine")
    if engine_s:
        metrics["core.engine.driver_overhead_share"] = (
            1.0 - span_seconds("core.superstep") / engine_s
        )
    if window.write_ms:
        late = sum(ms > 1e3 * WRITE_PERIOD_S for ms in window.write_ms)
        metrics.update({
            "serve.mutate_p50_ms": statistics.median(window.write_ms),
            "serve.mutate_late_share": late / len(window.write_ms),
            "dynamic.first_query_after_mutation_ms": statistics.median(
                window.after_write_ms
            ),
        })
    return metrics


def _stats_delta_metrics(before: dict, after: dict, window_s: float) -> dict:
    """Scheduler, cache and engine counters of the window, from ``/stats``."""

    def delta(section: str, key: str):
        return after[section][key] - before[section][key]

    def waited_ms(stats: dict) -> float:
        scheduler = stats["scheduler"]
        return scheduler["mean_queue_wait_ms"] * scheduler["lanes_dispatched"]

    dispatches = delta("scheduler", "dispatches")
    lanes = delta("scheduler", "lanes_dispatched")
    lookups = delta("cache", "hits") + delta("cache", "misses")
    engine_s = delta("engine", "seconds")
    return {
        "serve.scheduler.mean_batch_k": lanes / dispatches if dispatches else 0.0,
        "serve.scheduler.timeout_dispatch_share": (
            delta("scheduler", "timeout_dispatches") / dispatches
            if dispatches else 0.0
        ),
        "serve.scheduler.queue_wait_ms": (
            (waited_ms(after) - waited_ms(before)) / lanes if lanes else 0.0
        ),
        "serve.engine_busy_share": engine_s / window_s,
        "serve.cache.hit_ratio": delta("cache", "hits") / lookups if lookups else 0.0,
        "core.engine.edges_per_s": (
            delta("engine", "edges_processed") / engine_s if engine_s else 0.0
        ),
    }
