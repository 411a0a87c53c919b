"""Backend comparison benchmark: serial vs threaded SpMV.

Measures what the execution backends buy on the engine's hottest path.
Every timed run owns its state, as the server's runs do: it builds its
superstep vectors and, under ``threaded``, opens and shuts its pool
inside the timed region.

- ``serial``   — every block in the calling thread: the baseline
  "serial fused path".
- ``threaded`` — a thread pool over the GIL-releasing block kernels.

Workloads follow the paper's evaluation: PageRank (fixed iterations,
reported per-iteration) and BFS (run to quiescence) on a Graph500 R-MAT
graph.

One more section, ``crossover_sweep``, is the measurement behind the
kernel selector's one constant (``DENSE_PULL_CROSSOVER``): the traversal
queries timed at K=1 and K=16 over a grid of
``EngineOptions.dense_pull_crossover`` values, next to what an edge
costs in each block kernel, overall and per lane kernel (see
docs/KERNELS.md, "Selection thresholds").
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.algorithms.batched import bfs_multi_source, sssp_landmarks
from repro.algorithms.bfs import BFSProgram, init_bfs, run_bfs
from repro.algorithms.pagerank import PageRankProgram, init_pagerank
from repro.algorithms.sssp import SSSPProgram, run_sssp
from repro.bench.calibrate import machine_calibration
from repro.core import ckernels
from repro.core.engine import run_graph_program
from repro.core.options import EngineOptions
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import symmetrize, with_random_weights

#: ``dense_pull_crossover`` values the selector sweep times.  The ends
#: force one kernel on every partial frontier: 1e-9 never pulls, 1e9
#: always does.
CROSSOVER_GRID = (1e-9, 1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 48.0, 1e9)
#: Lane counts of the sweep: a single query and the serving batch width.
SWEEP_LANES = (1, 16)
#: Blocks below this many swept edges are left out of the per-edge
#: costs: their time is NumPy's fixed per-call cost, not edge work.
MIN_COSTED_EDGES = 4096


def _default_workers() -> int:
    return max(2, min(8, os.cpu_count() or 2))


def backend_configs(n_workers: int) -> list[tuple[str, EngineOptions]]:
    """The measured ladder, cheapest schedule first: ``(name, options)``."""
    return [
        ("serial", EngineOptions()),
        ("threaded", EngineOptions(backend="threaded", n_workers=n_workers)),
    ]


def _time_config(
    graph, program, init, options: EngineOptions, max_iterations: int,
    repeats: int,
) -> dict:
    """Best-of-``repeats`` timing of one (program, options) cell."""
    run_options = options.with_(max_iterations=max_iterations)
    # Warm-up: build the graph's lazily cached matrix views and groupings
    # so the measured runs see steady state.
    init(graph)
    run_graph_program(graph, program, run_options)
    best = None
    for _ in range(repeats):
        init(graph)
        t0 = time.perf_counter()
        stats = run_graph_program(graph, program, run_options)
        seconds = time.perf_counter() - t0
        cell = {
            "seconds": seconds,
            "supersteps": stats.n_supersteps,
            "seconds_per_iteration": (
                seconds / stats.n_supersteps if stats.n_supersteps else 0.0
            ),
            "edges_processed": stats.total_edges_processed,
            "edges_per_sec": (
                stats.total_edges_processed / seconds if seconds else 0.0
            ),
            "backend": stats.backend,
            "kernels": stats.kernel_totals(),
        }
        if best is None or cell["seconds"] < best["seconds"]:
            best = cell
    return best


def _traversals(graph, weighted, roots, n_lanes: int, options: EngineOptions):
    """BFS then SSSP from ``roots``: K one-lane runs or one K-lane run.

    Returns every run's ``RunStats`` (the K-lane runs contribute their
    lane-0 stats, whose supersteps carry the shared sweeps), keyed by
    the program's lane kernel: BFS is ``min-plus-c``, SSSP ``min-plus``.
    """
    bfs, sssp = BFSProgram.lane_kernel.name, SSSPProgram.lane_kernel.name
    if n_lanes == 1:
        return {
            bfs: [run_bfs(graph, r, options=options).stats for r in roots[:4]],
            sssp: [
                run_sssp(weighted, r, options=options).stats for r in roots[:4]
            ],
        }
    lanes = roots[:n_lanes]
    return {
        bfs: [bfs_multi_source(graph, lanes, options=options).run.lane_stats[0]],
        sssp: [sssp_landmarks(weighted, lanes, options=options).run.lane_stats[0]],
    }


def _kernel_edge_cost(all_stats, kernel: str) -> dict | None:
    """ns per swept edge of one block kernel, over blocks big enough
    that edge work, not call overhead, is what was timed."""
    work = [
        w
        for stats in all_stats
        for iteration in stats.iterations
        for w in iteration.partition_work
        if w.kernel == kernel and w.edges >= MIN_COSTED_EDGES
    ]
    edges = sum(w.edges for w in work)
    if not edges:
        return None  # smoke scales: no block is that big
    return {
        "ns_per_edge": 1e9 * sum(w.seconds for w in work) / edges,
        "edges": edges,
    }


def crossover_sweep(graph, roots: list[int], repeats: int) -> dict:
    """Time the traversal queries across ``CROSSOVER_GRID`` at each lane
    count, and cost an edge in each kernel where that kernel is forced."""
    weighted = with_random_weights(graph, seed=3)
    section: dict = {
        "grid": list(CROSSOVER_GRID),
        "roots": roots,
        "default": EngineOptions().dense_pull_crossover,
    }
    forced = {"sparse-gather": CROSSOVER_GRID[0], "dense-pull": CROSSOVER_GRID[-1]}
    for n_lanes in SWEEP_LANES:
        seconds = []
        for crossover in CROSSOVER_GRID:
            options = EngineOptions(dense_pull_crossover=crossover)
            _traversals(graph, weighted, roots, n_lanes, options)  # warm-up
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                _traversals(graph, weighted, roots, n_lanes, options)
                best = min(best, time.perf_counter() - t0)
            seconds.append(best)
        costs = {}
        lane_costs: dict = {}
        for kernel, crossover in forced.items():
            options = EngineOptions(
                dense_pull_crossover=crossover, record_partition_stats=True
            )
            runs = _traversals(graph, weighted, roots, n_lanes, options)
            cost = _kernel_edge_cost(
                [stats for stats_list in runs.values() for stats in stats_list],
                kernel,
            )
            if cost is not None:
                costs[kernel] = cost
            for lane_kernel, stats_list in runs.items():
                cost = _kernel_edge_cost(stats_list, kernel)
                if cost is not None:
                    lane_costs.setdefault(lane_kernel, {})[kernel] = cost
        section[f"k{n_lanes}"] = {
            "seconds": seconds,
            "best_crossover": CROSSOVER_GRID[int(np.argmin(seconds))],
            "kernel_costs": costs,
            "lane_kernel_costs": lane_costs,
        }
    return section


def bench_backends(
    scale: int = 16,
    edge_factor: int = 16,
    pr_iterations: int = 5,
    repeats: int = 3,
    n_workers: int | None = None,
    seed: int = 0,
) -> dict:
    """Run the full backend comparison; returns the JSON-ready record."""
    if n_workers is None:
        n_workers = _default_workers()
    graph = rmat_graph(scale=scale, edge_factor=edge_factor, seed=seed)
    sym = symmetrize(graph)
    # Graph500-style root selection: a vertex that actually has edges
    # (small scales can leave low-numbered vertices isolated).
    out_deg = np.zeros(sym.n_vertices, dtype=np.int64)
    np.add.at(out_deg, sym.edges.rows, 1)
    bfs_root = int(out_deg.argmax())
    configs = backend_configs(n_workers)

    record: dict = {
        "meta": {
            "benchmark": "bench_backends",
            "scale": scale,
            "edge_factor": edge_factor,
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
            "pr_iterations": pr_iterations,
            "repeats": repeats,
            "n_workers": n_workers,
            "cpu_count": os.cpu_count(),
            # Fixed-workload machine speed probe: lets the CI regression
            # gate rescale this record's absolute times onto another
            # host before applying its tolerance.
            "calibration_seconds": machine_calibration(),
            # Whether the lane sweeps ran compiled, and if not why.
            "ckernels": {
                key: ckernels.status()[key] for key in ("loaded", "reason")
            },
        },
        "pagerank": {},
        "bfs": {},
    }

    for name, options in configs:
        program = PageRankProgram()
        record["pagerank"][name] = _time_config(
            graph,
            program,
            lambda g, p=program: init_pagerank(g, p),
            options,
            max_iterations=pr_iterations,
            repeats=repeats,
        )

    record["meta"]["bfs_root"] = bfs_root
    for name, options in configs:
        record["bfs"][name] = _time_config(
            sym,
            BFSProgram(),
            lambda g: init_bfs(g, bfs_root),
            options,
            max_iterations=-1,
            repeats=repeats,
        )

    # Roots with edges, hubs first (every one reaches the giant component).
    sweep_roots = [int(v) for v in np.argsort(-out_deg)[: max(SWEEP_LANES)]]
    record["crossover_sweep"] = crossover_sweep(sym, sweep_roots, repeats)

    serial = record["pagerank"]["serial"]["seconds_per_iteration"]
    record["pagerank_speedup_vs_serial"] = {
        name: (
            serial / cell["seconds_per_iteration"]
            if cell["seconds_per_iteration"]
            else 0.0
        )
        for name, cell in record["pagerank"].items()
    }
    speedup = record["pagerank_speedup_vs_serial"]["threaded"]
    record["winner"] = {
        "pagerank_parallel_backend": "threaded",
        "pagerank_speedup": speedup,
        "beats_serial_fused": speedup > 1.0,
    }
    return record


def write_backend_record(record: dict, path: str | Path) -> Path:
    """Write the benchmark record as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=False) + "\n")
    return path


def summarize(record: dict) -> str:
    """Human-readable digest of one benchmark record."""
    lines = [
        f"R-MAT scale {record['meta']['scale']} "
        f"({record['meta']['n_vertices']} vertices, "
        f"{record['meta']['n_edges']} edges), "
        f"{record['meta']['n_workers']} workers",
        "C kernels: "
        + (
            "loaded"
            if record["meta"]["ckernels"]["loaded"]
            else f"NumPy fold ({record['meta']['ckernels']['reason']})"
        ),
        "",
        f"{'config':<18} {'PR s/iter':>10} {'PR Medges/s':>12} {'BFS s':>8}",
    ]
    for name in record["pagerank"]:
        pr = record["pagerank"][name]
        bfs = record["bfs"][name]
        lines.append(
            f"{name:<18} {pr['seconds_per_iteration']:>10.4f} "
            f"{pr['edges_per_sec'] / 1e6:>12.2f} {bfs['seconds']:>8.4f}"
        )
    lines += [
        "",
        f"winner: {record['winner']['pagerank_parallel_backend']} "
        f"({record['winner']['pagerank_speedup']:.2f}x vs serial fused)",
    ]
    sweep = record["crossover_sweep"]
    lines += ["", "dense_pull_crossover sweep, BFS+SSSP seconds "
              f"(default {sweep['default']:g}):",
              "  crossover " + " ".join(f"{c:>7g}" for c in sweep["grid"])]
    for n_lanes in SWEEP_LANES:
        cell = sweep[f"k{n_lanes}"]
        costs = ", ".join(
            f"{kernel} {cost['ns_per_edge']:.1f} ns/edge"
            for kernel, cost in cell["kernel_costs"].items()
        )
        lines += [
            f"  K={n_lanes:<7} " + " ".join(f"{s:>7.3f}" for s in cell["seconds"]),
            f"            best {cell['best_crossover']:g}; {costs}",
        ]
    return "\n".join(lines)
