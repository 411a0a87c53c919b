"""The analytics passes of the two library workloads.

One *pass* is the operation of ``offline_analytics`` (five sequential
algorithms, the paper's use) and of ``batch_analytics`` (three K=16
batched algorithms, the README's "serve K users with one edge sweep").
Both call the library API exactly as the README quickstarts do, with
default options.  The same runner serves the untraced child process
(:mod:`library_child`) and the traced in-process run.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from inputs import PAGERANK_ITERATIONS, PPR_ITERATIONS
from repro import algorithms


def steps(workload: str, graph, roots: list[int], pass_index: int):
    """``(name, result key, thunk)`` for each algorithm of one pass.

    Sequential passes walk the roots (pass ``i`` uses root ``i mod K``);
    batched passes serve all K roots every time.  The key names what a
    result depends on, so repeats can be compared bit for bit.
    """
    if workload == "offline_analytics":
        root = roots[pass_index % len(roots)]
        return [
            ("pagerank", "pagerank", lambda: algorithms.run_pagerank(
                graph, max_iterations=PAGERANK_ITERATIONS)),
            ("bfs", f"bfs:{root}", lambda: algorithms.run_bfs(graph, root)),
            ("sssp", f"sssp:{root}", lambda: algorithms.run_sssp(graph, root)),
            ("cc", "cc", lambda: algorithms.run_connected_components(graph)),
            ("ppr", f"ppr:{root}", lambda: algorithms.run_personalized_pagerank(
                graph, root, max_iterations=PPR_ITERATIONS)),
        ]
    return [
        ("ppr_batch16", "ppr_batch", lambda: algorithms.pagerank_personalized_batch(
            graph, roots, max_iterations=PPR_ITERATIONS)),
        ("bfs_batch16", "bfs_batch", lambda: algorithms.bfs_multi_source(
            graph, roots)),
        ("sssp_batch16", "sssp_batch", lambda: algorithms.sssp_landmarks(
            graph, roots)),
    ]


def result_values(result) -> np.ndarray:
    """The user-facing vector(s) of any algorithm result object."""
    for attribute in ("ranks", "distances", "labels", "values"):
        if hasattr(result, attribute):
            return np.asarray(getattr(result, attribute))
    raise TypeError(f"no result vector on {type(result).__name__}")


def engine_record(result) -> dict:
    """Engine counters of one run, from ``RunStats`` or ``BatchRun``."""
    stats = getattr(result, "stats", None) or result.run
    return {
        "supersteps": int(stats.n_supersteps),
        "edges": int(stats.total_edges_processed),
        "seconds": float(stats.total_seconds),
        "superstep_seconds": float(sum(it.seconds for it in stats.iterations)),
        "kernels": {k: int(v) for k, v in stats.kernel_totals().items()},
    }


class PassRunner:
    """Runs passes, keeps first results, checks repeats bit for bit."""

    def __init__(self, workload: str, graph, roots: list[int], tracer=None):
        self.workload, self.graph, self.roots = workload, graph, roots
        self._tracer = tracer
        #: First result per key, verified against the oracle afterwards.
        self.first: dict[str, np.ndarray] = {}
        #: Later results that were not bitwise equal to the first.
        self.repeat_mismatches = 0
        self.step_seconds: dict[str, list[float]] = {}
        self.engine: list[dict] = []
        self._passes = 0

    def run_pass(self) -> float:
        """One operation; returns its wall seconds."""
        begin = time.perf_counter()
        for name, key, thunk in steps(
            self.workload, self.graph, self.roots, self._passes
        ):
            span = (
                self._tracer.span(f"algorithms.{name}", "algorithms", request=key)
                if self._tracer
                else nullcontext()
            )
            step_begin = time.perf_counter()
            with span:
                result = thunk()
            self.step_seconds.setdefault(name, []).append(
                time.perf_counter() - step_begin
            )
            self.engine.append({"step": name, **engine_record(result)})
            values = result_values(result)
            if key not in self.first:
                self.first[key] = values.copy()
            elif not np.array_equal(self.first[key], values):
                self.repeat_mismatches += 1
        self._passes += 1
        return time.perf_counter() - begin
