"""Ingest/snapshot benchmark: cold parse vs streaming ingest vs mmap load.

Quantifies what ``repro.store`` buys on the loading path the paper calls
out as dominating end-to-end time:

- ``cold``            — the pre-snapshot path: parse the text edge list
  (``read_edge_list``) and build the engine's partitioned DCSC out view
  from scratch.
- ``ingest``          — one streaming conversion of the same file into a
  ``.gmsnap`` snapshot (bounded memory; reported with its peak
  per-partition edge count).
- ``snapshot_load``   — ``load_snapshot``: mmap the container and hand
  the engine zero-copy views; this is what every warm start pays.
- ``parallel``        — the same conversion at each worker count in
  ``worker_counts``: per-pass seconds, edges/s, aggregated counters, and
  a byte-level ``filecmp`` of every snapshot against the single-process
  one (the ``.gmsnap`` must be identical for any worker count).

A parity check runs PageRank on the cold-parsed and snapshot-loaded
graphs and records the maximum absolute rank difference (must be 0.0:
mmap views feed the same kernels the in-memory arrays do), plus a
``pagerank_bitwise`` flag (1.0 = bitwise-equal ranks).

:func:`acceptance_check` evaluates the record against the contract:
parity flags are unconditional; the parallel speedup bar only applies
on machines with enough cores to express one.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.algorithms.pagerank import PageRankProgram, init_pagerank
from repro.bench.calibrate import machine_calibration
from repro.core.engine import run_graph_program
from repro.core.options import EngineOptions
from repro.graph.generators.rmat import rmat_graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.store import close_snapshots, ingest_edge_list, load_snapshot


def _pagerank_vector(graph, iterations: int) -> np.ndarray:
    program = PageRankProgram()
    init_pagerank(graph, program)
    run_graph_program(
        graph, program, EngineOptions(max_iterations=iterations)
    )
    return graph.vertex_properties.data.copy()


def bench_ingest(
    scale: int = 16,
    edge_factor: int = 16,
    n_partitions: int = 8,
    chunk_edges: int = 1 << 18,
    repeats: int = 3,
    pr_iterations: int = 3,
    seed: int = 0,
    work_dir: str | Path | None = None,
    worker_counts: tuple[int, ...] = (1, 2, 4),
) -> dict:
    """Run the loading-path comparison; returns the JSON-ready record."""
    import shutil
    import tempfile

    owns_work_dir = work_dir is None
    work_dir = (
        Path(tempfile.mkdtemp(prefix="bench_ingest_"))
        if work_dir is None
        else Path(work_dir)
    )
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _bench_ingest_in(
            work_dir,
            scale=scale,
            edge_factor=edge_factor,
            n_partitions=n_partitions,
            chunk_edges=chunk_edges,
            repeats=repeats,
            pr_iterations=pr_iterations,
            seed=seed,
            worker_counts=worker_counts,
        )
    finally:
        close_snapshots()  # release the mmap before deleting its file
        if owns_work_dir:
            shutil.rmtree(work_dir, ignore_errors=True)


def _bench_ingest_in(
    work_dir: Path,
    *,
    scale: int,
    edge_factor: int,
    n_partitions: int,
    chunk_edges: int,
    repeats: int,
    pr_iterations: int,
    seed: int,
    worker_counts: tuple[int, ...],
) -> dict:
    graph = rmat_graph(scale=scale, edge_factor=edge_factor, seed=seed)
    edge_path = work_dir / "graph.tsv"
    write_edge_list(graph, edge_path, weighted=False)
    snapshot_path = work_dir / "graph.gmsnap"

    record: dict = {
        "meta": {
            "benchmark": "bench_ingest",
            "scale": scale,
            "edge_factor": edge_factor,
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
            "n_partitions": n_partitions,
            "chunk_edges": chunk_edges,
            "repeats": repeats,
            "worker_counts": [int(w) for w in worker_counts],
            "cpu_count": os.cpu_count(),
            "edge_list_bytes": edge_path.stat().st_size,
            "calibration_seconds": machine_calibration(),
        }
    }

    # -- cold: text parse + DCSC build, best of `repeats` ---------------
    best_parse = best_build = float("inf")
    cold_graph = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        parsed = read_edge_list(edge_path, weighted=False)
        t1 = time.perf_counter()
        parsed.out_partitions(n_partitions)
        t2 = time.perf_counter()
        if (t2 - t0) < (best_parse + best_build):
            best_parse, best_build = t1 - t0, t2 - t1
        cold_graph = parsed
    record["cold"] = {
        "parse_seconds": best_parse,
        "build_seconds": best_build,
        "total_seconds": best_parse + best_build,
    }

    # -- streaming ingest (single-process conversion: the baseline) -----
    report = ingest_edge_list(
        edge_path,
        snapshot_path,
        n_partitions=n_partitions,
        chunk_edges=chunk_edges,
        workers=1,
    )
    record["ingest"] = _ingest_section(report)

    # -- parallel ingest: same conversion at each worker count ----------
    import filecmp

    parallel: dict = {"runs": {}}
    bytes_identical = True
    counters_equal = True
    for count in worker_counts:
        out_path = work_dir / f"graph.w{count}.gmsnap"
        run = ingest_edge_list(
            edge_path,
            out_path,
            n_partitions=n_partitions,
            chunk_edges=chunk_edges,
            workers=count,
        )
        parallel["runs"][f"w{count}"] = _ingest_section(run)
        bytes_identical &= filecmp.cmp(snapshot_path, out_path, shallow=False)
        counters_equal &= (
            run.chunks == report.chunks
            and run.peak_partition_edges == report.peak_partition_edges
            and run.n_edges == report.n_edges
            and run.n_edges_raw == report.n_edges_raw
        )
        out_path.unlink()
    single = parallel["runs"].get("w1", record["ingest"])
    best_workers, best_run = max(
        parallel["runs"].items(), key=lambda kv: kv[1]["edges_per_sec"]
    )
    parallel["best_workers"] = int(best_workers[1:])
    parallel["speedup_best_vs_single"] = (
        best_run["edges_per_sec"] / single["edges_per_sec"]
        if single["edges_per_sec"]
        else 0.0
    )
    parallel["counters_equal"] = 1.0 if counters_equal else 0.0
    record["parallel"] = parallel

    # -- snapshot load: mmap + view adoption, best of `repeats` ---------
    best_load = float("inf")
    snap_graph = None
    for _ in range(max(1, repeats)):
        close_snapshots()  # drop the reader cache: each load pays mmap+manifest
        t0 = time.perf_counter()
        snap_graph = load_snapshot(snapshot_path)
        best_load = min(best_load, time.perf_counter() - t0)
    record["snapshot_load"] = {"seconds": best_load, "mmap": True}
    record["speedup"] = {
        "snapshot_vs_cold": (
            record["cold"]["total_seconds"] / best_load if best_load else 0.0
        )
    }

    # -- parity: identical PageRank through both loading paths ----------
    cold_ranks = _pagerank_vector(cold_graph, pr_iterations)
    snap_ranks = _pagerank_vector(snap_graph, pr_iterations)
    record["parity"] = {
        "pagerank_iterations": pr_iterations,
        "max_abs_diff": float(np.max(np.abs(cold_ranks - snap_ranks)))
        if cold_ranks.size
        else 0.0,
        "pagerank_bitwise": 1.0 if np.array_equal(cold_ranks, snap_ranks) else 0.0,
        "parallel_bytes_identical": 1.0 if bytes_identical else 0.0,
    }
    return record


def _ingest_section(report) -> dict:
    """One ingest run's JSON-ready timings and counters."""
    return {
        "total_seconds": report.total_seconds,
        "parse_seconds": report.parse_seconds,
        "route_seconds": report.route_seconds,
        "finalize_seconds": report.finalize_seconds,
        "workers": report.workers,
        "chunks": report.chunks,
        "peak_partition_edges": report.peak_partition_edges,
        "snapshot_bytes": report.snapshot_bytes,
        "edges_per_sec": (
            report.n_edges_raw / report.total_seconds
            if report.total_seconds
            else 0.0
        ),
    }


def acceptance_check(record: dict) -> list[str]:
    """Contract failures in one benchmark record (empty list = pass).

    Parity must hold everywhere.  The parallel speedup bar only applies
    where the machine can express one: >= 4 CPUs and a 4-worker run in
    the record, at scale >= 16 (small graphs are dominated by pool
    startup).  Records from few-core machines still carry honest
    parallel numbers; they just aren't held to the multi-core bar.
    """
    failures: list[str] = []
    parity = record["parity"]
    if parity["max_abs_diff"] != 0.0:
        failures.append(
            f"pagerank parity broken: max|diff| = {parity['max_abs_diff']}"
        )
    if parity.get("pagerank_bitwise") != 1.0:
        failures.append("snapshot PageRank is not bitwise-equal to cold parse")
    if parity.get("parallel_bytes_identical") != 1.0:
        failures.append("snapshot bytes differ across worker counts")
    parallel = record.get("parallel", {})
    if parallel.get("counters_equal") != 1.0:
        failures.append("IngestReport counters differ across worker counts")
    meta = record["meta"]
    cpu_count = meta.get("cpu_count") or 1
    if (
        cpu_count >= 4
        and meta.get("scale", 0) >= 16
        and "w4" in parallel.get("runs", {})
    ):
        single = parallel["runs"].get("w1", record["ingest"])
        four = parallel["runs"]["w4"]
        speedup = (
            four["edges_per_sec"] / single["edges_per_sec"]
            if single["edges_per_sec"]
            else 0.0
        )
        if speedup < 4.0:
            failures.append(
                f"4-worker ingest speedup {speedup:.2f}x < 4x "
                f"on a {cpu_count}-core machine"
            )
    return failures


def write_ingest_record(record: dict, path: str | Path) -> Path:
    """Write the benchmark record as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=False) + "\n")
    return path


def summarize_ingest(record: dict) -> str:
    """Human-readable digest of one benchmark record."""
    meta = record["meta"]
    lines = [
        f"R-MAT scale {meta['scale']} ({meta['n_vertices']} vertices, "
        f"{meta['n_edges']} edges), edge list "
        f"{meta['edge_list_bytes'] / 1e6:.1f} MB",
        "",
        f"cold parse+build   {record['cold']['total_seconds']:>9.3f} s "
        f"(parse {record['cold']['parse_seconds']:.3f} + build "
        f"{record['cold']['build_seconds']:.3f})",
        f"streaming ingest   {record['ingest']['total_seconds']:>9.3f} s "
        f"(peak partition {record['ingest']['peak_partition_edges']} edges, "
        f"{record['ingest']['snapshot_bytes'] / 1e6:.1f} MB snapshot)",
        f"snapshot mmap load {record['snapshot_load']['seconds']:>9.5f} s "
        f"-> {record['speedup']['snapshot_vs_cold']:.0f}x faster than cold",
    ]
    parallel = record.get("parallel")
    if parallel:
        lines.append("")
        for key, run in parallel["runs"].items():
            lines.append(
                f"parallel ingest {key:>3}: {run['total_seconds']:>8.3f} s "
                f"({run['edges_per_sec'] / 1e3:,.0f}k edges/s; parse "
                f"{run['parse_seconds']:.2f} route {run['route_seconds']:.2f} "
                f"finalize {run['finalize_seconds']:.2f})"
            )
        lines.append(
            f"best {parallel['speedup_best_vs_single']:.2f}x at "
            f"{parallel['best_workers']} workers; snapshots byte-identical: "
            f"{record['parity']['parallel_bytes_identical'] == 1.0}"
        )
    lines += [
        "",
        f"pagerank parity max|diff| = {record['parity']['max_abs_diff']}",
    ]
    return "\n".join(lines)
