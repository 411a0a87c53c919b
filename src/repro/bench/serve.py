"""Serving benchmark: closed-loop concurrent load against the query service.

Measures what :mod:`repro.serve` adds on top of the batched engine: a
pool of closed-loop clients (each issues its next query the moment the
previous one resolves) drives a :class:`~repro.serve.service.GraphService`
with a mixed BFS / SSSP / personalized-PageRank workload, in three
configurations over the same request stream:

- ``unbatched``         — the no-batching baseline: one engine, each
  request served by its own *sequential* single-query run
  (``run_bfs``-style, exactly what a server built before ``repro.serve``
  would do), requests serialized K=1-per-dispatch.  This matches the
  baseline convention of ``bench_batch`` (sequential = one
  ``run_graph_program`` per query),
- ``unbatched_service`` — the full service with ``max_batch_k=1``, cache
  off: still one query per engine run, but through the scheduler (both
  unbatched rows are one-lane runs of the same engine; the difference is
  the scheduler's overhead with nothing to batch),
- ``batched``           — ``max_batch_k=K``, cache off: the
  micro-batching scheduler coalesces concurrent same-kind requests into
  K-lane sweeps,
- ``instrumented``      — the ``batched`` configuration with the full
  observability stack attached (:class:`~repro.obs.serving.ServeTelemetry`:
  per-request metrics, traces, the engine profile hook).  Its only
  purpose is the overhead ratio: instrumented throughput must stay
  within 5% of plain ``batched`` throughput,
- ``cached``            — batching plus the result cache, on a workload
  with repeated queries (hot roots / popular personalization vertices).

Each phase reports throughput, p50/p99 latency and the achieved mean
batch size; every response of every uncached phase is compared bitwise
against an independently computed sequential reference, so the speedups
are at equal correctness by construction.  The acceptance targets
(full-scale record, scale >= 16: batched >= 3x the unbatched baseline's
throughput; instrumented >= 0.95x batched) are embedded in the emitted
``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.algorithms.adapters import get_adapter
from repro.bench.calibrate import machine_calibration
from repro.core.options import EngineOptions
from repro.errors import BenchmarkError
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import symmetrize
from repro.obs.serving import ServeTelemetry
from repro.serve.cache import ResultCache
from repro.serve.registry import GraphRegistry
from repro.serve.scheduler import BatchPolicy
from repro.serve.service import GraphService

#: The acceptance bar for the full-scale record (scale >= 16).
THROUGHPUT_TARGET = 3.0
ACCEPTANCE_SCALE = 16

#: Instrumented throughput must stay within 5% of plain batched
#: throughput: observability that taxes the hot path is a regression.
OVERHEAD_TARGET_RATIO = 0.95

#: (graph name, query kind) per workload slot; the mix cycles through
#: all three engine-backed query kinds.
_KINDS = (("sym", "bfs"), ("sym", "sssp"), ("dir", "ppr"))


def _top_degree(graph, count: int) -> list[int]:
    return [int(v) for v in np.argsort(graph.out_degrees())[-count:][::-1]]


def _build_workload(
    graphs: dict, per_kind: int, pr_iterations: int, *, repeats: int = 1,
    seed: int = 0,
) -> list[tuple[str, str, dict]]:
    """A mixed request stream: ``per_kind`` distinct queries per kind,
    each issued ``repeats`` times, deterministically interleaved."""
    requests: list[tuple[str, str, dict]] = []
    for graph_name, kind in _KINDS:
        pool = _top_degree(graphs[graph_name], per_kind)
        for vertex in pool:
            if kind == "bfs":
                params = {"root": vertex}
            elif kind == "sssp":
                params = {"source": vertex}
            else:
                params = {"source": vertex, "iterations": pr_iterations}
            requests.extend([(graph_name, kind, params)] * repeats)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def _compute_references(
    graphs: dict, workload, options: EngineOptions
) -> dict:
    """Canonical-key -> sequential result vector, one run per distinct
    query (also warms every matrix view both measurement paths use)."""
    references: dict = {}
    for graph_name, kind, params in workload:
        adapter = get_adapter(kind)
        graph = graphs[graph_name]
        canonical = adapter.canonicalize(graph, dict(params))
        key = (graph_name, kind, tuple(sorted(canonical.items())))
        if key not in references:
            references[key] = adapter.run_reference(graph, canonical, options)
    return references


def _closed_loop(workload, n_clients: int, serve_one) -> tuple[float, np.ndarray, np.ndarray]:
    """Run ``serve_one(request) -> cached?`` from ``n_clients`` closed-loop
    threads; returns (wall seconds, per-request latencies, cached flags)."""
    latencies = np.zeros(len(workload))
    cached_flags = np.zeros(len(workload), dtype=bool)
    next_index = [0]
    index_lock = threading.Lock()

    def client() -> None:
        while True:
            with index_lock:
                i = next_index[0]
                if i >= len(workload):
                    return
                next_index[0] = i + 1
            t0 = time.perf_counter()
            cached_flags[i] = serve_one(workload[i])
            latencies[i] = time.perf_counter() - t0

    threads = [
        threading.Thread(target=client, name=f"bench-client-{c}")
        for c in range(n_clients)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - t0, latencies, cached_flags


def _phase_cell(workload, wall, latencies, cached_flags, parity_checked):
    latencies_ms = latencies * 1e3
    return {
        "seconds": wall,
        "requests": len(workload),
        "throughput_qps": len(workload) / wall if wall else 0.0,
        "p50_ms": float(np.percentile(latencies_ms, 50)),
        "p99_ms": float(np.percentile(latencies_ms, 99)),
        "mean_latency_ms": float(latencies_ms.mean()),
        "cached_responses": int(cached_flags.sum()),
        "parity_checked": parity_checked,
    }


def _raise_on_mismatch(mismatches: list[str]) -> None:
    if mismatches:
        raise BenchmarkError(
            f"{len(mismatches)} responses diverged from their sequential "
            f"reference: {mismatches[:3]}"
        )


def _drive(
    service: GraphService,
    workload,
    n_clients: int,
    *,
    references: dict | None = None,
) -> dict:
    """Closed-loop phase against the query service; returns its cell.

    With ``references`` every response is compared bitwise against its
    sequential reference; any mismatch raises (the record would be
    meaningless at unequal correctness).
    """
    mismatches: list[str] = []

    def serve_one(request) -> bool:
        graph_name, kind, params = request
        result = service.query(graph_name, kind, params)
        if references is not None and not result.cached:
            key = (graph_name, kind, tuple(sorted(result.params.items())))
            if not np.array_equal(result.values, references[key]):
                mismatches.append(f"{kind} {result.params}")
        return result.cached

    wall, latencies, cached_flags = _closed_loop(
        workload, n_clients, serve_one
    )
    _raise_on_mismatch(mismatches)
    scheduler = service.stats()["scheduler"]
    cell = _phase_cell(
        workload, wall, latencies, cached_flags,
        len(workload) if references is not None else 0,
    )
    cell.update(
        mean_batch_k=scheduler["mean_batch_k"],
        max_batch_k_seen=scheduler["max_batch_k_seen"],
        dispatches=scheduler["dispatches"],
        full_dispatches=scheduler["full_dispatches"],
        timeout_dispatches=scheduler["timeout_dispatches"],
    )
    return cell


def _drive_unbatched_baseline(
    graphs: dict,
    workload,
    n_clients: int,
    options: EngineOptions,
    references: dict,
) -> dict:
    """The no-batching baseline: a server with one engine and no
    scheduler, answering each request with a sequential single-query run
    (``bench_batch``'s baseline convention, lifted into the same
    closed-loop concurrent harness).  One engine run at a time — exactly
    the K=1-per-dispatch serialization the batching scheduler replaces.
    """
    engine_lock = threading.Lock()
    mismatches: list[str] = []

    def serve_one(request) -> bool:
        graph_name, kind, params = request
        adapter = get_adapter(kind)
        graph = graphs[graph_name]
        canonical = adapter.canonicalize(graph, dict(params))
        with engine_lock:
            values = adapter.run_reference(graph, canonical, options)
        key = (graph_name, kind, tuple(sorted(canonical.items())))
        if not np.array_equal(values, references[key]):
            mismatches.append(f"{kind} {canonical}")
        return False

    wall, latencies, cached_flags = _closed_loop(
        workload, n_clients, serve_one
    )
    _raise_on_mismatch(mismatches)
    cell = _phase_cell(workload, wall, latencies, cached_flags, len(workload))
    cell.update(
        mean_batch_k=1.0,
        max_batch_k_seen=1,
        dispatches=len(workload),
        full_dispatches=0,
        timeout_dispatches=len(workload),
    )
    return cell


def _warm_batched_path(
    graphs: dict, n_lanes: int, pr_iterations: int, options: EngineOptions
) -> None:
    """One K-lane run per (graph, kind): builds the SpMM kernels' lazily
    derived per-block caches so the timed phases all start warm."""
    from repro.algorithms.batched import (
        bfs_multi_source,
        pagerank_personalized_batch,
        sssp_landmarks,
    )

    bfs_pool = _top_degree(graphs["sym"], n_lanes)
    ppr_pool = _top_degree(graphs["dir"], n_lanes)
    bfs_multi_source(graphs["sym"], bfs_pool, options=options)
    sssp_landmarks(graphs["sym"], bfs_pool, options=options)
    pagerank_personalized_batch(
        graphs["dir"], ppr_pool, max_iterations=pr_iterations, options=options
    )


def _service(
    registry: GraphRegistry,
    *,
    max_batch_k: int,
    max_wait_ms: float,
    n_clients: int,
    cache_capacity: int,
    telemetry: ServeTelemetry | None = None,
) -> GraphService:
    return GraphService(
        registry,
        policy=BatchPolicy(
            max_batch_k=max_batch_k,
            max_wait_ms=max_wait_ms,
            # The closed loop must never shed: admission control is
            # benchmarked implicitly as zero shed events.
            max_queue=max(256, 4 * n_clients),
        ),
        cache=ResultCache(capacity=cache_capacity),
        telemetry=telemetry,
    )


def bench_serve(
    scale: int = 16,
    edge_factor: int = 16,
    n_lanes: int = 16,
    pr_iterations: int = 10,
    per_kind: int = 32,
    n_clients: int = 48,
    cache_repeats: int = 4,
    max_wait_ms: float = 2.0,
    seed: int = 0,
) -> dict:
    """Run the three-phase serving comparison; returns the record."""
    rmat = rmat_graph(
        scale=scale, edge_factor=edge_factor, seed=seed, weighted=True
    )
    graphs = {"dir": rmat, "sym": symmetrize(rmat)}
    registry = GraphRegistry()
    for name, graph in graphs.items():
        registry.add_graph(name, graph)

    options = EngineOptions()
    workload = _build_workload(graphs, per_kind, pr_iterations, seed=seed)
    references = _compute_references(graphs, workload, options)
    # Warm the batched kernels' per-block caches (dst_sorted_cols etc.)
    # the same way the reference pass warmed the sequential path —
    # bench_batch warms both sides too; a real server warms at startup.
    _warm_batched_path(graphs, n_lanes, pr_iterations, options)

    record: dict = {
        "meta": {
            "benchmark": "bench_serve",
            "scale": scale,
            "edge_factor": edge_factor,
            "n_vertices": rmat.n_vertices,
            "n_edges": rmat.n_edges,
            "n_lanes": n_lanes,
            "pr_iterations": pr_iterations,
            "per_kind": per_kind,
            "n_requests": len(workload),
            "n_clients": n_clients,
            "cache_repeats": cache_repeats,
            "max_wait_ms": max_wait_ms,
            "cpu_count": os.cpu_count(),
            "calibration_seconds": machine_calibration(),
        }
    }

    record["unbatched"] = _drive_unbatched_baseline(
        graphs, workload, n_clients, options, references
    )
    with _service(
        registry, max_batch_k=1, max_wait_ms=0.0, n_clients=n_clients,
        cache_capacity=0,
    ) as service:
        record["unbatched_service"] = _drive(
            service, workload, n_clients, references=references
        )
    with _service(
        registry, max_batch_k=n_lanes, max_wait_ms=max_wait_ms,
        n_clients=n_clients, cache_capacity=0,
    ) as service:
        record["batched"] = _drive(
            service, workload, n_clients, references=references
        )
    # Same configuration and request stream as ``batched``, but with the
    # full observability stack live: every request traced and recorded
    # into the Prometheus registry, every superstep reported through the
    # profile hook.  The record's overhead ratio is the acceptance bar
    # for "observability is effectively free on the hot path".
    with _service(
        registry, max_batch_k=n_lanes, max_wait_ms=max_wait_ms,
        n_clients=n_clients, cache_capacity=0,
        telemetry=ServeTelemetry(),
    ) as service:
        record["instrumented"] = _drive(
            service, workload, n_clients, references=references
        )

    cached_workload = _build_workload(
        graphs, n_lanes, pr_iterations, repeats=cache_repeats, seed=seed + 1
    )
    with _service(
        registry, max_batch_k=n_lanes, max_wait_ms=max_wait_ms,
        n_clients=n_clients, cache_capacity=4 * 3 * n_lanes,
    ) as service:
        cell = _drive(service, cached_workload, n_clients)
        cache_stats = service.cache.stats()
    cell["hit_rate"] = cache_stats["hit_rate"]
    cell["hits"] = cache_stats["hits"]
    cell["misses"] = cache_stats["misses"]
    record["cached"] = cell

    def _ratio(numerator: str, denominator: str) -> float:
        base = record[denominator]["throughput_qps"]
        return record[numerator]["throughput_qps"] / base if base else 0.0

    speedup = _ratio("batched", "unbatched")
    record["speedup"] = {
        "batched_vs_unbatched": speedup,
        "batched_vs_unbatched_service": _ratio(
            "batched", "unbatched_service"
        ),
        "unbatched_service_vs_unbatched": _ratio(
            "unbatched_service", "unbatched"
        ),
    }
    overhead_ratio = _ratio("instrumented", "batched")
    record["overhead"] = {
        "instrumented_throughput_ratio": overhead_ratio,
    }
    record["acceptance"] = {
        "target_throughput_ratio": THROUGHPUT_TARGET,
        "at_acceptance_scale": scale >= ACCEPTANCE_SCALE,
        "meets_target": speedup >= THROUGHPUT_TARGET,
        "overhead_target_ratio": OVERHEAD_TARGET_RATIO,
        "meets_overhead_target": overhead_ratio >= OVERHEAD_TARGET_RATIO,
    }
    return record


def write_serve_record(record: dict, path: str | Path) -> Path:
    """Write the benchmark record as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=False) + "\n")
    return path


def summarize(record: dict) -> str:
    """Human-readable digest of one benchmark record."""
    meta = record["meta"]
    lines = [
        f"R-MAT scale {meta['scale']} ({meta['n_vertices']} vertices, "
        f"{meta['n_edges']} edges); {meta['n_clients']} clients, "
        f"K<={meta['n_lanes']}, window {meta['max_wait_ms']} ms",
        "",
        f"{'phase':<17} {'req':>5} {'s':>8} {'qps':>8} {'p50 ms':>8} "
        f"{'p99 ms':>9} {'mean K':>7} {'hit rate':>9}",
    ]
    phases = (
        "unbatched", "unbatched_service", "batched", "instrumented", "cached"
    )
    for phase in phases:
        cell = record[phase]
        hit_rate = f"{cell['hit_rate']:>8.0%}" if "hit_rate" in cell else (
            " " * 8 + "-"
        )
        lines.append(
            f"{phase:<17} {cell['requests']:>5} {cell['seconds']:>8.3f} "
            f"{cell['throughput_qps']:>8.1f} {cell['p50_ms']:>8.1f} "
            f"{cell['p99_ms']:>9.1f} {cell['mean_batch_k']:>7.2f} {hit_rate}"
        )
    speedup = record["speedup"]["batched_vs_unbatched"]
    lines.append(
        f"\nbatched vs unbatched throughput: {speedup:.2f}x "
        f"(vs K=1 service: "
        f"{record['speedup']['batched_vs_unbatched_service']:.2f}x)"
    )
    if "overhead" in record:
        ratio = record["overhead"]["instrumented_throughput_ratio"]
        lines.append(
            f"observability overhead: instrumented at {ratio:.1%} of "
            f"batched throughput"
        )
    acc = record["acceptance"]
    if acc["at_acceptance_scale"]:
        status = "PASS" if acc["meets_target"] else "FAIL"
        lines.append(
            f"acceptance (>= {acc['target_throughput_ratio']:.0f}x at "
            f"scale >= {ACCEPTANCE_SCALE}): {status}"
        )
    return "\n".join(lines)
