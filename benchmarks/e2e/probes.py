"""Per-layer probes: small timed calls into one layer's public API.

A probe is independent of the workload's traffic; it runs in the traced
run only, on the inputs of that run.  Targets are imported inside each
probe, so when a later change removes one the probe's metrics become
``null`` with a note instead of breaking the benchmark.
"""

from __future__ import annotations

import json
import statistics
import time
import urllib.request

import numpy as np

from harness import GRAPH_NAME


def _seconds(call) -> float:
    begin = time.perf_counter()
    call()
    return time.perf_counter() - begin


def _median_seconds(call, repeats: int) -> float:
    return statistics.median(_seconds(call) for _ in range(repeats))


def calibration(ctx) -> dict:
    """The benchmark's own machine probe: a fixed NumPy sort + gather."""
    rng = np.random.default_rng(0)
    keys = rng.random(1 << 20)

    def work() -> None:
        order = np.argsort(keys, kind="stable")
        np.add.reduceat(keys[order], np.arange(0, keys.shape[0], 64))

    return {"bench.calibration_s": _median_seconds(work, 3)}


def graph_io_parse(ctx) -> dict:
    """``read_edge_list``: the in-memory baseline ingest is compared to."""
    from repro.graph import read_edge_list

    seconds = _seconds(lambda: read_edge_list(ctx.tsv, weighted=True))
    return {"graph.io.parse_edges_per_s": ctx.edges.n_edges / seconds}


def first_run(ctx) -> dict:
    """What the first run on a freshly loaded snapshot pays on top."""
    from repro.algorithms import run_bfs
    from repro.store import load_snapshot

    graph = load_snapshot(ctx.snapshot_path(0))
    cold = _seconds(lambda: run_bfs(graph, ctx.roots[0]))
    steady = _median_seconds(lambda: run_bfs(graph, ctx.roots[0]), ctx.repeats)
    return {"core.engine.first_run_extra_ms": 1e3 * (cold - steady)}


def engine_lanes(ctx) -> dict:
    """K=1 batched vs sequential, and what K=16 lanes amortise (BFS)."""
    from repro.algorithms import bfs_multi_source, run_bfs

    graph, roots = ctx.graph, ctx.roots
    run_bfs(graph, roots[0])
    bfs_multi_source(graph, roots[:1])
    sequential = [
        _median_seconds(lambda r=r: run_bfs(graph, r), ctx.repeats) for r in roots
    ]
    one_lane = _median_seconds(
        lambda: bfs_multi_source(graph, roots[:1]), ctx.repeats
    )
    all_lanes = _median_seconds(lambda: bfs_multi_source(graph, roots), ctx.repeats)
    return {
        "core.engine.k1_batched_vs_seq_ratio": one_lane / sequential[0],
        "core.engine.batch_amortisation": sum(sequential) / all_lanes,
    }


def threaded_speedup(ctx) -> dict:
    """PageRank, serial over ``backend="threaded", n_workers=2``."""
    from repro.algorithms import run_pagerank
    from repro.core import EngineOptions

    graph = ctx.graph
    threaded = EngineOptions(backend="threaded", n_workers=2)
    run_pagerank(graph, max_iterations=2, options=threaded)
    serial_s = _median_seconds(
        lambda: run_pagerank(graph, max_iterations=10), ctx.repeats
    )
    threaded_s = _median_seconds(
        lambda: run_pagerank(graph, max_iterations=10, options=threaded),
        ctx.repeats,
    )
    return {"exec.threaded2_speedup": serial_s / threaded_s}


def apply_delta(ctx) -> dict:
    """``DeltaGraph.apply_delta`` of one mutate-mix sized batch."""
    from repro.dynamic import DeltaGraph

    def columns(rows, width):
        table = np.array(rows, dtype=np.int64).reshape(-1, width)
        return tuple(table[:, i] for i in range(width))

    (first_inserts, _), (inserts, deletes) = ctx.mutation_batches(2)
    overlay = DeltaGraph(ctx.graph).apply_delta(columns(first_inserts, 3))
    # The steady-state batch: inserts plus deletes of earlier inserts.
    # Overlays are persistent, so the same call can be timed repeatedly.
    seconds = _median_seconds(
        lambda: overlay.apply_delta(columns(inserts, 3), columns(deletes, 2)),
        ctx.repeats,
    )
    return {"dynamic.apply_delta_ms": 1e3 * seconds}


def service_codec(ctx) -> dict:
    """Response encode (server side) and decode (client side) alone."""
    service = ctx.service
    result = service.query(GRAPH_NAME, "bfs", {"root": ctx.roots[0]})
    full = _median_seconds(lambda: result.to_dict(), ctx.repeats * 3)
    top10 = _median_seconds(
        lambda: result.to_dict(top=10, order="min"), ctx.repeats * 3
    )
    body = json.dumps(result.to_dict()).encode()
    decode = _median_seconds(lambda: json.loads(body), ctx.repeats * 3)
    return {
        "serve.service.encode_ms_full": 1e3 * full,
        "serve.service.encode_ms_top10": 1e3 * top10,
        "serve.client.decode_ms": 1e3 * decode,
    }


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.read()


def http_floor(ctx) -> dict:
    """GET /healthz: what any request pays before the service runs."""
    url = ctx.server_url + "/healthz"
    _get(url)
    return {
        "serve.http.floor_ms": 1e3
        * _median_seconds(lambda: _get(url), ctx.repeats * 10)
    }


def metrics_scrape(ctx) -> dict:
    """GET /metrics: the cost and size of one Prometheus scrape."""
    url = ctx.server_url + "/metrics"
    size = len(_get(url))
    return {
        "obs.metrics_scrape_ms": 1e3 * _median_seconds(lambda: _get(url), ctx.repeats),
        "obs.metrics_bytes": size,
    }


#: Probes every traced run makes; the serve workloads add the others
#: where a server is up.
COMMON = (
    calibration, graph_io_parse, first_run, engine_lanes, threaded_speedup,
    apply_delta,
)
#: Metric names per probe, for the null-with-note record when one fails.
NAMES = {
    calibration: ("bench.calibration_s",),
    graph_io_parse: ("graph.io.parse_edges_per_s",),
    first_run: ("core.engine.first_run_extra_ms",),
    engine_lanes: (
        "core.engine.k1_batched_vs_seq_ratio",
        "core.engine.batch_amortisation",
    ),
    threaded_speedup: ("exec.threaded2_speedup",),
    apply_delta: ("dynamic.apply_delta_ms",),
    service_codec: (
        "serve.service.encode_ms_full",
        "serve.service.encode_ms_top10",
        "serve.client.decode_ms",
    ),
    http_floor: ("serve.http.floor_ms",),
    metrics_scrape: ("obs.metrics_scrape_ms", "obs.metrics_bytes"),
}


def run(ctx, probes) -> tuple[dict, dict]:
    """Run ``probes``; returns ``(values, notes)``, null for the gone."""
    values: dict = {}
    notes: dict = {}
    for probe in probes:
        try:
            values.update(probe(ctx))
        except (ImportError, AttributeError, TypeError) as exc:
            for name in NAMES[probe]:
                values[name] = None
                notes[name] = f"probe target gone: {type(exc).__name__}: {exc}"
    return values, notes
