"""Governance benchmark: runaway containment, cancellation cost, fairness.

Measures what the PR's governance layer claims, in four phases over one
R-MAT graph pair:

- ``cancel``   — co-batched runaway containment through the service: half
  the lanes of one K-lane personalized-PageRank batch carry deadlines
  they cannot meet, half run unbounded.  Records how far past its
  deadline each cancelled lane ran, **in units of its own superstep
  durations** (cooperative cancellation is superstep-granular by
  construction, so the overrun must be bounded by ~2 supersteps), and
  verifies the surviving lanes bitwise against sequential runs — a
  cancelled neighbor must not perturb co-batched results.
- ``budget``   — a token ``superstep_budget=B`` run must stop *exactly*
  at superstep B with results bitwise identical to a plain
  ``max_iterations=B`` run (cancellation is deterministic, not "roughly
  there").
- ``overhead`` — the cost of governance when it never fires: identical
  sequential runs with no token vs. an un-expiring deadline token.  The
  per-superstep token check must be perf-neutral
  (``plain_vs_token`` ~ 1.0).
- ``fairness`` — closed-loop flood containment: a flooding tenant fires
  far above its token-bucket rate while well-behaved tenants run a
  fixed workload on the same service.  Every well-behaved request must
  succeed (bitwise-checked), and the flood must actually be shed.

The emitted ``BENCH_governance.json`` carries hard floors (budget
exactness, survivor parity, superstep-granular overruns) plus the
perf-neutrality ratio, gated in CI by ``check_regression``.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from pathlib import Path

import numpy as np

from repro.algorithms.bfs import run_bfs
from repro.algorithms.pagerank import run_personalized_pagerank
from repro.bench.calibrate import machine_calibration
from repro.core.cancellation import CancellationToken
from repro.core.options import EngineOptions
from repro.errors import BenchmarkError, DeadlineExceededError, QuotaExceededError
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import symmetrize
from repro.serve.cache import ResultCache
from repro.serve.quota import QuotaManager, TenantPolicy
from repro.serve.registry import GraphRegistry
from repro.serve.scheduler import BatchPolicy
from repro.serve.service import GraphService

#: Scheduler noise allowance on top of the two-superstep overrun bound,
#: milliseconds — a GIL hand-off between the boundary that notices and
#: the clock read must not fail the granularity claim.
OVERRUN_SLACK_MS = 5.0

_OVERRUN_RE = re.compile(r"\(([\d.]+) ms past\)")


def _overrun_ms(reason: str) -> float:
    match = _OVERRUN_RE.search(reason or "")
    if not match:
        raise BenchmarkError(f"unparseable cancel reason: {reason!r}")
    return float(match.group(1))


def _top_degree(graph, count: int) -> list[int]:
    return [int(v) for v in np.argsort(graph.out_degrees())[-count:][::-1]]


# ----------------------------------------------------------------------
# Phase 1: co-batched deadline cancellation through the service
# ----------------------------------------------------------------------
def _cancel_phase(
    rmat,
    registry: GraphRegistry,
    *,
    n_lanes: int,
    cancel_iterations: int,
    runaway_deadline: float,
) -> dict:
    """Half runaway / half unbounded lanes in one batch; returns the cell."""
    from concurrent.futures import ThreadPoolExecutor

    pool_vertices = _top_degree(rmat, n_lanes)
    n_good = n_lanes // 2
    good_sources = pool_vertices[:n_good]
    runaway_sources = pool_vertices[n_good:]

    policy = BatchPolicy(max_batch_k=n_lanes, max_wait_ms=5_000.0)
    t0 = time.perf_counter()
    with GraphService(
        registry, policy=policy, cache=ResultCache(capacity=0)
    ) as service:
        with ThreadPoolExecutor(n_lanes) as pool:
            good = [
                pool.submit(
                    service.query, "dir", "ppr",
                    {"source": s, "iterations": cancel_iterations},
                )
                for s in good_sources
            ]
            runaway = [
                pool.submit(
                    service.query, "dir", "ppr",
                    {"source": s, "iterations": cancel_iterations},
                    deadline=runaway_deadline,
                )
                for s in runaway_sources
            ]
            survivors = [f.result(timeout=600) for f in good]
            failures = []
            for future in runaway:
                try:
                    future.result(timeout=600)
                except DeadlineExceededError as exc:
                    failures.append(exc)
                else:
                    raise BenchmarkError(
                        f"a runaway lane (deadline {runaway_deadline}s, "
                        f"{cancel_iterations} supersteps) finished instead "
                        f"of being cancelled; raise cancel_iterations or "
                        f"lower the deadline"
                    )
        governance = service.stats()["governance"]
    wall = time.perf_counter() - t0

    # Survivors: bitwise against each query run alone.
    bitwise_ok = 0
    for source, result in zip(good_sources, survivors):
        reference = run_personalized_pagerank(
            rmat, source, max_iterations=cancel_iterations
        )
        bitwise_ok += int(np.array_equal(result.values, reference.ranks))

    # Runaways: cancelled at the engine, at superstep granularity.
    engine_cancelled = 0
    within_bound = 0
    overruns_supersteps: list[float] = []
    for failure in failures:
        stats = failure.run_stats
        if stats is None or not stats.cancelled:
            continue  # expired in the queue: contained, but not engine-timed
        engine_cancelled += 1
        overrun = _overrun_ms(stats.cancel_reason)
        superstep_ms = [
            1e3 * it.seconds for it in stats.iterations if it.seconds > 0
        ]
        if not superstep_ms:
            raise BenchmarkError("cancelled lane recorded no supersteps")
        bound = 2.0 * max(superstep_ms) + OVERRUN_SLACK_MS
        within_bound += int(overrun <= bound)
        mean_step = sum(superstep_ms) / len(superstep_ms)
        overruns_supersteps.append(overrun / mean_step if mean_step else 0.0)
    if not engine_cancelled:
        raise BenchmarkError(
            "no runaway lane reached the engine before its deadline — "
            "the cancellation-granularity phase measured nothing; raise "
            "runaway_deadline"
        )

    return {
        "seconds": wall,
        "lanes": n_lanes,
        "iterations": cancel_iterations,
        "runaway_deadline_s": runaway_deadline,
        "survivor_lanes": len(survivors),
        "survivor_bitwise": bitwise_ok / max(1, len(survivors)),
        "cancelled_lanes": governance["cancelled_lanes"],
        "engine_cancelled": engine_cancelled,
        "within_two_supersteps": within_bound / engine_cancelled,
        "mean_overrun_supersteps": (
            sum(overruns_supersteps) / len(overruns_supersteps)
        ),
        "max_overrun_supersteps": max(overruns_supersteps),
    }


# ----------------------------------------------------------------------
# Phase 2: superstep-budget exactness (engine level)
# ----------------------------------------------------------------------
def _budget_phase(
    rmat, *, budget: int, cancel_iterations: int, n_sources: int
) -> dict:
    """Budget-B token runs vs plain ``max_iterations=B`` runs, bitwise."""
    sources = _top_degree(rmat, n_sources)
    exact = 0
    t0 = time.perf_counter()
    for source in sources:
        token = CancellationToken(superstep_budget=budget)
        governed = run_personalized_pagerank(
            rmat, source,
            max_iterations=cancel_iterations,
            options=EngineOptions(token=token),
        )
        if not governed.stats.cancelled:
            raise BenchmarkError(
                f"budget token never fired (budget {budget} vs "
                f"{cancel_iterations} iterations)"
            )
        plain = run_personalized_pagerank(
            rmat, source, max_iterations=budget
        )
        exact += int(
            governed.stats.n_supersteps == budget
            and np.array_equal(governed.ranks, plain.ranks)
        )
    return {
        "seconds": time.perf_counter() - t0,
        "budget": budget,
        "runs": len(sources),
        "budget_exact": exact / len(sources),
    }


# ----------------------------------------------------------------------
# Phase 3: governance overhead when it never fires
# ----------------------------------------------------------------------
def _overhead_phase(rmat, *, pr_iterations: int, n_runs: int) -> dict:
    """Identical runs, no token vs un-expiring token; ratio ~ 1.0."""
    sources = _top_degree(rmat, n_runs)
    # Warm both paths (matrix views, property allocation) before timing.
    run_personalized_pagerank(rmat, sources[0], max_iterations=2)

    t0 = time.perf_counter()
    for source in sources:
        run_personalized_pagerank(
            rmat, source, max_iterations=pr_iterations
        )
    plain_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    for source in sources:
        token = CancellationToken(timeout=3_600.0)
        run_personalized_pagerank(
            rmat, source,
            max_iterations=pr_iterations,
            options=EngineOptions(token=token),
        )
    token_seconds = time.perf_counter() - t0

    return {
        "plain_seconds": plain_seconds,
        "token_seconds": token_seconds,
        "runs": n_runs,
        "iterations": pr_iterations,
        "plain_vs_token": (
            plain_seconds / token_seconds if token_seconds else 0.0
        ),
    }


# ----------------------------------------------------------------------
# Phase 4: closed-loop flood fairness under per-tenant quotas
# ----------------------------------------------------------------------
def _fairness_phase(
    rmat_sym,
    registry: GraphRegistry,
    *,
    n_lanes: int,
    good_requests: int,
    flood_requests: int,
    flood_rate: float,
) -> dict:
    """Flooding tenant vs well-behaved tenants on one quota'd service."""
    roots = _top_degree(rmat_sym, 8)
    references = {
        root: run_bfs(rmat_sym, root).distances for root in roots
    }
    quota = QuotaManager(
        per_tenant={"flood": TenantPolicy(rate=flood_rate, burst=4)},
    )
    policy = BatchPolicy(
        max_batch_k=n_lanes, max_wait_ms=2.0,
        max_queue=max(256, 4 * (good_requests + flood_requests)),
    )
    good_outcomes = {"ok": 0, "failed": 0, "mismatch": 0}
    flood_outcomes = {"ok": 0, "shed": 0, "other": 0}
    counts_lock = threading.Lock()

    t0 = time.perf_counter()
    with GraphService(
        registry, policy=policy, quota=quota, cache=ResultCache(capacity=0)
    ) as service:

        def flood(n: int) -> None:
            for i in range(n):
                try:
                    service.query(
                        "sym", "bfs", {"root": roots[i % len(roots)]},
                        tenant="flood", deadline=30.0,
                    )
                    outcome = "ok"
                except QuotaExceededError:
                    outcome = "shed"
                except Exception:
                    outcome = "other"
                with counts_lock:
                    flood_outcomes[outcome] += 1

        def well_behaved(tenant: str, n: int) -> None:
            for i in range(n):
                root = roots[i % len(roots)]
                try:
                    result = service.query(
                        "sym", "bfs", {"root": root},
                        tenant=tenant, deadline=30.0,
                    )
                except Exception:
                    outcome = "failed"
                else:
                    outcome = (
                        "ok"
                        if np.array_equal(result.values, references[root])
                        else "mismatch"
                    )
                with counts_lock:
                    good_outcomes[outcome] += 1

        threads = [
            threading.Thread(target=flood, args=(flood_requests // 2,)),
            threading.Thread(target=flood, args=(flood_requests // 2,)),
            threading.Thread(
                target=well_behaved, args=("alice", good_requests // 2)
            ),
            threading.Thread(
                target=well_behaved, args=("bob", good_requests // 2)
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tenants = service.stats()["governance"]["quota"]["tenants"]
    wall = time.perf_counter() - t0

    flood_total = sum(flood_outcomes.values())
    good_total = sum(good_outcomes.values())
    return {
        "seconds": wall,
        "good": dict(
            good_outcomes,
            requests=good_total,
        ),
        "flood": dict(
            flood_outcomes,
            requests=flood_total,
            rate_limit=flood_rate,
        ),
        "good_success_rate": good_outcomes["ok"] / max(1, good_total),
        "flood_rejected_fraction": (
            flood_outcomes["shed"] / max(1, flood_total)
        ),
        "tenants": tenants,
    }


def bench_governance(
    scale: int = 14,
    edge_factor: int = 16,
    n_lanes: int = 8,
    cancel_iterations: int = 1000,
    runaway_deadline: float = 0.05,
    budget: int = 10,
    budget_runs: int = 3,
    pr_iterations: int = 30,
    overhead_runs: int = 6,
    good_requests: int = 40,
    flood_requests: int = 200,
    flood_rate: float = 20.0,
    seed: int = 0,
) -> dict:
    """Run the four governance phases; returns the record."""
    rmat = rmat_graph(
        scale=scale, edge_factor=edge_factor, seed=seed, weighted=True
    )
    rmat_sym = symmetrize(rmat)
    registry = GraphRegistry()
    registry.add_graph("dir", rmat)
    registry.add_graph("sym", rmat_sym)

    record: dict = {
        "meta": {
            "benchmark": "bench_governance",
            "scale": scale,
            "edge_factor": edge_factor,
            "n_vertices": rmat.n_vertices,
            "n_edges": rmat.n_edges,
            "n_lanes": n_lanes,
            "cancel_iterations": cancel_iterations,
            "runaway_deadline_s": runaway_deadline,
            "pr_iterations": pr_iterations,
            "good_requests": good_requests,
            "flood_requests": flood_requests,
            "cpu_count": os.cpu_count(),
            "calibration_seconds": machine_calibration(),
        }
    }

    record["cancel"] = _cancel_phase(
        rmat, registry,
        n_lanes=n_lanes,
        cancel_iterations=cancel_iterations,
        runaway_deadline=runaway_deadline,
    )
    record["budget"] = _budget_phase(
        rmat,
        budget=budget,
        cancel_iterations=cancel_iterations,
        n_sources=budget_runs,
    )
    record["overhead"] = _overhead_phase(
        rmat, pr_iterations=pr_iterations, n_runs=overhead_runs
    )
    record["fairness"] = _fairness_phase(
        rmat_sym, registry,
        n_lanes=n_lanes,
        good_requests=good_requests,
        flood_requests=flood_requests,
        flood_rate=flood_rate,
    )
    record["parity"] = {
        "survivor_bitwise": record["cancel"]["survivor_bitwise"],
    }
    record["acceptance"] = {
        "budget_exact": record["budget"]["budget_exact"] == 1.0,
        "survivor_bitwise": record["cancel"]["survivor_bitwise"] == 1.0,
        "within_two_supersteps": (
            record["cancel"]["within_two_supersteps"] == 1.0
        ),
        "good_success_rate_ok": (
            record["fairness"]["good_success_rate"] >= 0.95
        ),
        "flood_shed": record["fairness"]["flood_rejected_fraction"] >= 0.05,
        "token_overhead_ok": record["overhead"]["plain_vs_token"] >= 0.75,
    }
    record["acceptance"]["meets_target"] = all(record["acceptance"].values())
    return record


def write_governance_record(record: dict, path: str | Path) -> Path:
    """Write the benchmark record as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=False) + "\n")
    return path


def summarize(record: dict) -> str:
    """Human-readable digest of one governance record."""
    meta = record["meta"]
    cancel = record["cancel"]
    budget = record["budget"]
    overhead = record["overhead"]
    fairness = record["fairness"]
    lines = [
        f"R-MAT scale {meta['scale']} ({meta['n_vertices']} vertices, "
        f"{meta['n_edges']} edges); K={meta['n_lanes']}, runaway deadline "
        f"{meta['runaway_deadline_s'] * 1e3:.0f} ms",
        "",
        f"cancel:   {cancel['engine_cancelled']}/{cancel['lanes'] // 2} "
        f"runaway lanes engine-cancelled; overrun mean "
        f"{cancel['mean_overrun_supersteps']:.2f} / max "
        f"{cancel['max_overrun_supersteps']:.2f} supersteps; survivors "
        f"bitwise {cancel['survivor_bitwise']:.0%}",
        f"budget:   {budget['runs']} budget-{budget['budget']} runs, "
        f"exact {budget['budget_exact']:.0%}",
        f"overhead: plain {overhead['plain_seconds']:.3f}s vs token "
        f"{overhead['token_seconds']:.3f}s "
        f"(ratio {overhead['plain_vs_token']:.2f}x)",
        f"fairness: good {fairness['good_success_rate']:.0%} of "
        f"{fairness['good']['requests']} ok; flood shed "
        f"{fairness['flood_rejected_fraction']:.0%} of "
        f"{fairness['flood']['requests']}",
    ]
    acc = record["acceptance"]
    status = "PASS" if acc["meets_target"] else "FAIL"
    failed = [k for k, v in acc.items() if k != "meets_target" and not v]
    lines.append(
        f"\nacceptance: {status}"
        + (f" (failed: {', '.join(failed)})" if failed else "")
    )
    return "\n".join(lines)
