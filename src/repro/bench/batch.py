"""Batched multi-frontier benchmark: K lanes in one run vs K one-lane runs.

Measures the amortization the K-lane engine exists for: serving K BFS
roots and K personalized-PageRank sources through
``run_graph_programs_batched`` (one edge sweep per superstep) against
the same K queries run back-to-back through ``run_graph_program``.
Both sides are the *same* engine and kernel — the sequential side is K
one-lane runs — with identical options, the same Graph500 R-MAT graph
and the same query set (the K highest-degree vertices, so every lane
does real work), so the ratio is exactly what sharing the sweep buys.

Edges/sec is defined over *useful lane edges* — the total edges the K
one-lane runs process — for both sides, so the speedup equals the
wall-clock ratio for the same delivered work.  The acceptance bar,
recorded in the emitted ``BENCH_batch.json``, is that batching never
loses (>= 1x) on either workload.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.algorithms.batched import bfs_multi_source, pagerank_personalized_batch
from repro.algorithms.bfs import run_bfs
from repro.algorithms.pagerank import run_personalized_pagerank
from repro.bench.calibrate import machine_calibration
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import symmetrize

#: The acceptance bar for the full-scale record (scale 16, K = 16):
#: batching never loses to K one-lane runs.
SPEEDUP_TARGET = 1.0
ACCEPTANCE_SCALE = 16


def _top_degree_roots(graph, k: int) -> list[int]:
    return [int(v) for v in np.argsort(graph.out_degrees())[-k:][::-1]]


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best_seconds, best_result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        if seconds < best_seconds:
            best_seconds, best_result = seconds, result
    return best_seconds, best_result


def _workload_cell(name, sequential_fn, batched_fn, repeats):
    """Time one workload pair; returns the record cell."""
    # Warm-up builds matrix views, kernel caches and workspaces so both
    # sides measure steady-state serving cost.
    sequential_fn()
    batched_fn()
    seq_seconds, seq_results = _best_of(sequential_fn, repeats)
    bat_seconds, bat_result = _best_of(batched_fn, repeats)
    lane_edges = sum(r.stats.total_edges_processed for r in seq_results)
    cell = {
        "sequential": {
            "seconds": seq_seconds,
            "lane_edges": lane_edges,
            "edges_per_sec": lane_edges / seq_seconds if seq_seconds else 0.0,
        },
        "batched": {
            "seconds": bat_seconds,
            "supersteps": bat_result.run.n_supersteps,
            "shared_edges": bat_result.run.total_edges_processed,
            "edges_per_sec": lane_edges / bat_seconds if bat_seconds else 0.0,
            "kernels": bat_result.run.kernel_totals(),
        },
        "speedup": seq_seconds / bat_seconds if bat_seconds else 0.0,
        # Edge sweeps actually shared: sequential lane edges per batched
        # swept edge (the amortization factor the SpMM path delivers).
        "sweep_amortization": (
            lane_edges / bat_result.run.total_edges_processed
            if bat_result.run.total_edges_processed
            else 0.0
        ),
    }
    return cell, bat_result


def bench_batch(
    scale: int = 16,
    edge_factor: int = 16,
    n_lanes: int = 16,
    pr_iterations: int = 10,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Run the batched-vs-sequential comparison; returns the record."""
    graph = rmat_graph(scale=scale, edge_factor=edge_factor, seed=seed)
    sym = symmetrize(graph)
    roots = _top_degree_roots(sym, n_lanes)
    ppr_sources = _top_degree_roots(graph, n_lanes)

    record: dict = {
        "meta": {
            "benchmark": "bench_batch",
            "scale": scale,
            "edge_factor": edge_factor,
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
            "n_lanes": n_lanes,
            "pr_iterations": pr_iterations,
            "repeats": repeats,
            "cpu_count": os.cpu_count(),
            "bfs_roots": roots,
            "ppr_sources": ppr_sources,
            "calibration_seconds": machine_calibration(),
        }
    }

    record["bfs"], bfs_result = _workload_cell(
        "bfs",
        lambda: [run_bfs(sym, r) for r in roots],
        lambda: bfs_multi_source(sym, roots),
        repeats,
    )
    # Parity spot-check rides along with every benchmark run: lane 0
    # must equal its sequential run bitwise or the record is invalid.
    ref = run_bfs(sym, roots[0])
    if not np.array_equal(ref.distances, bfs_result.lane(0)):
        raise AssertionError("batched BFS lane 0 diverged from sequential")

    def _seq_ppr():
        results = []
        for s in ppr_sources:
            results.append(
                run_personalized_pagerank(
                    graph, s, max_iterations=pr_iterations
                )
            )
        return results

    record["ppr"], ppr_result = _workload_cell(
        "ppr",
        _seq_ppr,
        lambda: pagerank_personalized_batch(
            graph, ppr_sources, max_iterations=pr_iterations
        ),
        repeats,
    )
    ref = run_personalized_pagerank(
        graph, ppr_sources[0], max_iterations=pr_iterations
    )
    if not np.array_equal(ref.ranks, ppr_result.lane(0)):
        raise AssertionError("batched PPR lane 0 diverged from sequential")

    record["speedup"] = {
        "bfs_batch_vs_sequential": record["bfs"]["speedup"],
        "ppr_batch_vs_sequential": record["ppr"]["speedup"],
    }
    record["acceptance"] = {
        "target_speedup": SPEEDUP_TARGET,
        "at_acceptance_scale": scale >= ACCEPTANCE_SCALE,
        "bfs_meets_target": record["bfs"]["speedup"] >= SPEEDUP_TARGET,
        "ppr_meets_target": record["ppr"]["speedup"] >= SPEEDUP_TARGET,
    }
    return record


def write_batch_record(record: dict, path: str | Path) -> Path:
    """Write the benchmark record as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=False) + "\n")
    return path


def summarize(record: dict) -> str:
    """Human-readable digest of one benchmark record."""
    meta = record["meta"]
    lines = [
        f"R-MAT scale {meta['scale']} ({meta['n_vertices']} vertices, "
        f"{meta['n_edges']} edges), K={meta['n_lanes']} lanes",
        "",
        f"{'workload':<6} {'seq s':>8} {'batch s':>8} {'speedup':>8} "
        f"{'amortize':>9} {'batch Medges/s':>15}",
    ]
    for name in ("bfs", "ppr"):
        cell = record[name]
        lines.append(
            f"{name:<6} {cell['sequential']['seconds']:>8.3f} "
            f"{cell['batched']['seconds']:>8.3f} {cell['speedup']:>7.2f}x "
            f"{cell['sweep_amortization']:>8.2f}x "
            f"{cell['batched']['edges_per_sec'] / 1e6:>15.2f}"
        )
    acc = record["acceptance"]
    if acc["at_acceptance_scale"]:
        status = (
            "PASS"
            if acc["bfs_meets_target"] and acc["ppr_meets_target"]
            else "FAIL"
        )
        lines.append(
            f"\nacceptance (>= {acc['target_speedup']:.0f}x at scale "
            f">= {ACCEPTANCE_SCALE}): {status}"
        )
    return "\n".join(lines)
