"""CI perf-regression gate: compare a benchmark record against a baseline.

Replaces the upload-only CI step: after the smoke benchmark runs, this
script compares the fresh ``BENCH_*.json`` record against the committed
baseline under ``benchmarks/baselines/`` and exits non-zero when any
timed metric regressed by more than the tolerance (default 30%).

Cross-machine comparability: every record embeds a
``meta.calibration_seconds`` probe (one fixed NumPy workload, see
``repro.bench.calibrate``).  Baseline times are rescaled by the ratio of
the two probes before the tolerance applies, so a slower CI runner does
not read as a regression and a faster one does not hide a real slowdown.

Metric kinds:

- ``time``  — lower is better; fail when
  ``current > baseline * calibration_factor * (1 + tolerance)``.
- ``ratio`` — machine-independent, higher is better (speedups,
  amortization factors); fail when
  ``current < baseline / (1 + tolerance)``.  A ratio may also carry an
  absolute floor (acceptance criteria like "mmap load >= 5x cold
  parse") that fails regardless of the baseline.
- ``floor`` — higher is better, checked ONLY against its absolute
  floor in ``RATIO_FLOORS``, never against the baseline.  Used for
  ratios derived from very short smoke timings (the batch speedups):
  a baseline-relative bound on a ratio of ~10 ms measurements would
  re-impose the full baseline value as a hard bar with no noise floor.

Usage::

    python benchmarks/check_regression.py \\
        --current BENCH_backends.json \\
        --baseline benchmarks/baselines/BENCH_backends.json \\
        [--tolerance 0.30] [--update]

``--update`` rewrites the baseline from the current record (for
intentional performance-profile changes; commit the result).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

#: Maximum per-metric slowdown before the gate fails (30%).
DEFAULT_TOLERANCE = 0.30
#: Absolute slack added to every time limit: sub-10ms smoke timings on
#: shared CI runners jitter by more than 30%, and a 5ms grace keeps the
#: gate meaningful for real workloads without tripping on scheduler
#: noise (a true regression at that magnitude is invisible anyway).
NOISE_FLOOR_SECONDS = 0.005
#: Record-configuration keys that must match between current and
#: baseline: comparing different workload shapes is a usage error, not
#: a regression.
CONFIG_KEYS = (
    "benchmark",
    "scale",
    "edge_factor",
    "pr_iterations",
    "n_partitions",
    "n_lanes",
    "strategy",
    "worker_counts",
    "per_kind",
    "n_clients",
    "delta_fraction",
    "serve_iterations",
    "batches",
    "batch_edges",
    "cancel_iterations",
    "good_requests",
    "flood_requests",
)
#: Calibration ratios are clamped here: beyond this the hosts are too
#: different for time scaling to mean anything, and a corrupt probe
#: must not scale a real regression into the tolerance band.
CALIBRATION_CLAMP = (0.25, 4.0)

#: Absolute floors on ratio metrics (acceptance criteria, not baselines).
#: The batch-speedup floors assert "batching never loses": K lanes in
#: one run are never slower than the same K queries as K one-lane runs
#: of the same engine (the sequential side of ``bench_batch``).
RATIO_FLOORS = {
    "speedup.snapshot_vs_cold": 5.0,
    "speedup.bfs_batch_vs_sequential": 1.0,
    "speedup.ppr_batch_vs_sequential": 1.0,
    # Serving gate: micro-batching must clearly beat the K=1-per-request
    # baseline even on small CI smoke runs (the 3x acceptance bar is
    # asserted by the committed full-scale BENCH_serve.json), the
    # scheduler must actually form multi-lane batches under concurrent
    # load, and the repeat-heavy workload must hit the result cache.
    "speedup.batched_vs_unbatched": 1.5,
    "batched.mean_batch_k": 2.0,
    "cached.hit_rate": 0.25,
    # Dynamic-graph gate: the delta overlay must beat full recompute
    # even at CI smoke scales (the >= 5x BFS acceptance bar applies to
    # the committed full-scale record, asserted by bench_dynamic's own
    # acceptance block at scale >= 16), and — regression-tested hard —
    # overlay responses must stay BITWISE identical to a from-scratch
    # rebuild, with the warm-started PageRank inside its error budget.
    "speedup.bfs_incremental_vs_full": 1.5,
    "speedup.pagerank_incremental_vs_full": 1.15,
    "parity.bfs_bitwise": 1.0,
    "parity.pagerank_bitwise": 1.0,
    "parity.pagerank_warm_error_ok": 1.0,
    # Replication gate: a follower that tails the full mutation history
    # must answer reads bitwise identically to the leader, and the
    # crash-recovered service must match too — any divergence fails
    # regardless of timing.
    "parity.follower_bitwise": 1.0,
    # Governance gate: cancellation must be deterministic and contained
    # — a budget-B token run bitwise equals a plain max_iterations=B
    # run, lanes that survive a cancelled co-batched neighbor stay
    # bitwise identical to sequential runs, and every engine-cancelled
    # runaway stops within ~2 of its own superstep durations past the
    # deadline.  The fairness floors assert the flood is actually shed
    # while well-behaved tenants all complete; the overhead floor
    # asserts an un-expiring token is perf-neutral (>= 0.75 tolerates
    # smoke-run timing noise on a ~1.0 ratio).
    "budget.budget_exact": 1.0,
    "parity.survivor_bitwise": 1.0,
    "cancel.within_two_supersteps": 1.0,
    "fairness.good_success_rate": 0.95,
    "fairness.flood_rejected_fraction": 0.05,
    "overhead.plain_vs_token": 0.75,
    # Parallel-ingest gate: every worker count must write the identical
    # snapshot bytes with identical aggregated counters, and the
    # snapshot must compute bitwise-identical PageRank to the in-memory
    # reader — hard floors.  The best-vs-single speedup floor only
    # asserts parallelism is not counterproductive on a small CI runner
    # (the >= 4x acceptance bar applies to full-scale multi-core
    # records, asserted by repro.bench.ingest.acceptance_check).
    "parallel.speedup_best_vs_single": 0.3,
    "parallel.counters_equal": 1.0,
    "parity.parallel_bytes_identical": 1.0,
    # Observability gate: the instrumented serving phase (metrics +
    # traces + profile hook live) must hold most of plain batched
    # throughput even on short CI smoke runs.  The 0.95 acceptance bar
    # applies to the committed full-scale BENCH_serve.json (asserted by
    # bench_serve's own acceptance block); 0.75 here tolerates the
    # timing noise of ~0.1 s smoke phases (observed spread 0.81-1.02
    # across repeated runs) while still catching a hot-path regression
    # such as lock contention, which costs far more than 25%.
    "overhead.instrumented_throughput_ratio": 0.75,
}


def _dig(record: dict, dotted: str):
    node = record
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def extract_metrics(record: dict) -> dict[str, tuple[float, str]]:
    """``{metric_name: (value, kind)}`` for one benchmark record."""
    benchmark = _dig(record, "meta.benchmark")
    metrics: dict[str, tuple[float, str]] = {}
    if benchmark == "bench_backends":
        for workload, field in (
            ("pagerank", "seconds_per_iteration"),
            ("bfs", "seconds"),
        ):
            for config, cell in (record.get(workload) or {}).items():
                metrics[f"{workload}.{config}.{field}"] = (
                    float(cell[field]),
                    "time",
                )
    elif benchmark == "bench_ingest":
        for name in (
            "cold.total_seconds",
            "ingest.total_seconds",
            "snapshot_load.seconds",
        ):
            value = _dig(record, name)
            if value is not None:
                metrics[name] = (float(value), "time")
        for key, run in (_dig(record, "parallel.runs") or {}).items():
            metrics[f"parallel.runs.{key}.total_seconds"] = (
                float(run["total_seconds"]),
                "time",
            )
        speedup = _dig(record, "speedup.snapshot_vs_cold")
        if speedup is not None:
            metrics["speedup.snapshot_vs_cold"] = (float(speedup), "ratio")
        # Parallel-ingest invariants are floor-only (see RATIO_FLOORS):
        # the identity flags are boolean-like hard floors, and the
        # speedup is a ratio of short smoke timings whose component
        # wall-times are already gated above.
        for name in (
            "parallel.speedup_best_vs_single",
            "parallel.counters_equal",
            "parity.parallel_bytes_identical",
            "parity.pagerank_bitwise",
        ):
            value = _dig(record, name)
            if value is not None:
                metrics[name] = (float(value), "floor")
    elif benchmark == "bench_batch":
        for workload in ("bfs", "ppr"):
            for side in ("sequential", "batched"):
                value = _dig(record, f"{workload}.{side}.seconds")
                if value is not None:
                    metrics[f"{workload}.{side}.seconds"] = (
                        float(value),
                        "time",
                    )
            speedup = _dig(record, f"speedup.{workload}_batch_vs_sequential")
            if speedup is not None:
                # Floor-only: a timing-derived ratio of ~10 ms smoke
                # runs is too noisy for baseline-relative bounds (the
                # component times above are themselves gated, with the
                # additive noise floor applied).
                metrics[f"speedup.{workload}_batch_vs_sequential"] = (
                    float(speedup),
                    "floor",
                )
            amortization = _dig(record, f"{workload}.sweep_amortization")
            if amortization is not None:
                metrics[f"{workload}.sweep_amortization"] = (
                    float(amortization),
                    "ratio",
                )
    elif benchmark == "bench_dynamic":
        for name in (
            "bfs.full.seconds",
            "bfs.incremental.seconds",
            "pagerank.full.seconds",
            "pagerank.incremental.seconds",
            "mutation.apply_and_merge_views_seconds",
        ):
            value = _dig(record, name)
            if value is not None:
                metrics[name] = (float(value), "time")
        # Short-timing-derived ratios are floor-only (see bench_batch);
        # the parity booleans are hard floors at 1.0 — any drift from
        # bitwise parity or the warm-start error budget fails the gate.
        for name in (
            "speedup.bfs_incremental_vs_full",
            "speedup.pagerank_incremental_vs_full",
            "parity.bfs_bitwise",
            "parity.pagerank_bitwise",
            "parity.pagerank_warm_error_ok",
        ):
            value = _dig(record, name)
            if value is not None:
                metrics[name] = (float(value), "floor")
    elif benchmark == "bench_replication":
        for name in (
            "bootstrap.seconds",
            "lag.mean_seconds",
            "catchup.seconds",
            "recovery.seconds",
        ):
            value = _dig(record, name)
            if value is not None:
                metrics[name] = (float(value), "time")
        # Bitwise parity of follower + recovered reads is a hard floor.
        value = _dig(record, "parity.follower_bitwise")
        if value is not None:
            metrics["parity.follower_bitwise"] = (float(value), "floor")
    elif benchmark == "bench_serve":
        # The instrumented phase is deliberately absent from the wall-time
        # checks: its regression signal is the throughput ratio against the
        # batched phase (floor below), and a separate time bound would
        # double-count the same noise batched.seconds already gates.
        for phase in (
            "unbatched", "unbatched_service", "batched", "cached",
        ):
            value = _dig(record, f"{phase}.seconds")
            if value is not None:
                metrics[f"{phase}.seconds"] = (float(value), "time")
        # Throughput-derived ratios of short concurrent smoke runs are
        # floor-only, like the batch speedups (see the module docstring);
        # the phase wall-times above get the baseline-relative treatment.
        for name in (
            "speedup.batched_vs_unbatched",
            "batched.mean_batch_k",
            "cached.hit_rate",
            "overhead.instrumented_throughput_ratio",
        ):
            value = _dig(record, name)
            if value is not None:
                metrics[name] = (float(value), "floor")
    elif benchmark == "bench_governance":
        for name in (
            "cancel.seconds",
            "budget.seconds",
            "overhead.plain_seconds",
            "overhead.token_seconds",
            "fairness.seconds",
        ):
            value = _dig(record, name)
            if value is not None:
                metrics[name] = (float(value), "time")
        # The governance invariants are machine-independent hard floors
        # (see RATIO_FLOORS): cancellation exactness and survivor parity
        # at 1.0, flood shedding and well-behaved success rates, and the
        # token perf-neutrality ratio — all floor-only because every one
        # is either a boolean-like parity or a ratio of short smoke
        # timings.
        for name in (
            "budget.budget_exact",
            "parity.survivor_bitwise",
            "cancel.within_two_supersteps",
            "fairness.good_success_rate",
            "fairness.flood_rejected_fraction",
            "overhead.plain_vs_token",
        ):
            value = _dig(record, name)
            if value is not None:
                metrics[name] = (float(value), "floor")
    else:
        raise ValueError(f"unknown benchmark kind {benchmark!r}")
    return metrics


def calibration_factor(current: dict, baseline: dict) -> float:
    """How much slower the current host is than the baseline host."""
    cur = _dig(current, "meta.calibration_seconds")
    base = _dig(baseline, "meta.calibration_seconds")
    if not cur or not base:
        return 1.0
    low, high = CALIBRATION_CLAMP
    return min(high, max(low, float(cur) / float(base)))


def config_mismatch(current: dict, baseline: dict) -> list[str]:
    """Configuration keys whose values differ between the two records."""
    return [
        key
        for key in CONFIG_KEYS
        if _dig(current, f"meta.{key}") != _dig(baseline, f"meta.{key}")
    ]


def compare(
    current: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[dict]:
    """Evaluate every shared metric; returns one finding per metric."""
    factor = calibration_factor(current, baseline)
    current_metrics = extract_metrics(current)
    baseline_metrics = extract_metrics(baseline)
    findings = []
    for name, (value, kind) in sorted(current_metrics.items()):
        base_entry = baseline_metrics.get(name)
        if base_entry is None:
            findings.append(
                {"metric": name, "status": "new", "current": value}
            )
            continue
        base_value, _ = base_entry
        if kind == "time":
            limit = base_value * factor * (1.0 + tolerance) + NOISE_FLOOR_SECONDS
            status = "fail" if value > limit else "ok"
            findings.append(
                {
                    "metric": name,
                    "status": status,
                    "current": value,
                    "baseline": base_value,
                    "limit": limit,
                    "kind": kind,
                }
            )
        else:
            floor = RATIO_FLOORS.get(name)
            if kind == "floor":
                limit = floor if floor is not None else 0.0
                status = "fail" if floor is not None and value < floor else "ok"
                findings.append(
                    {
                        "metric": name,
                        "status": status,
                        "current": value,
                        "baseline": base_value,
                        "limit": limit,
                        "kind": kind,
                    }
                )
                continue
            limit = base_value / (1.0 + tolerance)
            status = "ok"
            if value < limit:
                status = "fail"
            if floor is not None and value < floor:
                status = "fail"
                limit = max(limit, floor)
            findings.append(
                {
                    "metric": name,
                    "status": status,
                    "current": value,
                    "baseline": base_value,
                    "limit": limit,
                    "kind": kind,
                }
            )
    for name in sorted(set(baseline_metrics) - set(current_metrics)):
        findings.append({"metric": name, "status": "missing"})
    return findings


def _format_finding(finding: dict, factor: float) -> str:
    status = finding["status"].upper()
    if finding["status"] in ("new", "missing"):
        return f"  [{status:<4}] {finding['metric']}"
    direction = "<=" if finding["kind"] == "time" else ">="
    return (
        f"  [{status:<4}] {finding['metric']}: {finding['current']:.6g} "
        f"(baseline {finding['baseline']:.6g}, must be {direction} "
        f"{finding['limit']:.6g}, calibration x{factor:.2f})"
    )


def check_pair(
    current_path: Path,
    baseline_path: Path,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[bool, str]:
    """Compare one record pair; returns (passed, report_text)."""
    current = json.loads(Path(current_path).read_text())
    baseline = json.loads(Path(baseline_path).read_text())
    mismatched = config_mismatch(current, baseline)
    if mismatched:
        raise ValueError(
            f"record configurations differ on {mismatched}; regenerate the "
            f"baseline with the same benchmark parameters (--update)"
        )
    factor = calibration_factor(current, baseline)
    findings = compare(current, baseline, tolerance)
    failed = [f for f in findings if f["status"] in ("fail", "missing")]
    lines = [
        f"{current_path} vs {baseline_path} "
        f"(tolerance {tolerance:.0%}, calibration x{factor:.2f}):"
    ]
    lines += [_format_finding(f, factor) for f in findings]
    lines.append(
        f"  => {'REGRESSION' if failed else 'PASS'} "
        f"({len(findings) - len(failed)}/{len(findings)} metrics within bounds)"
    )
    return not failed, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", type=Path, required=True,
                        help="freshly produced BENCH_*.json record")
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed baseline record to compare against")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional slowdown (default 0.30)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current record")
    args = parser.parse_args(argv)

    if not args.current.exists():
        print(f"error: current record {args.current} not found", file=sys.stderr)
        return 2
    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(args.current, args.baseline)
        print(f"baseline updated: {args.baseline}")
        return 0
    if not args.baseline.exists():
        print(f"error: baseline {args.baseline} not found "
              f"(run with --update to create it)", file=sys.stderr)
        return 2
    try:
        passed, report = check_pair(args.current, args.baseline, args.tolerance)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
