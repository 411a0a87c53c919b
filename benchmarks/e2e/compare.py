#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds of BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.json B.json [--per-layer]

``A`` (the parent) and ``B`` (the change) are documents written by
``run.py --workload all --json FILE``.  Take the two sets alternately
(``--json`` extends an existing document): the box's speed drifts, and
sets taken one after the other measure the drift.  For every end-to-end
metric on every workload the medians are compared: ``B`` regresses when
it is worse than ``A`` by more than the metric's bound.  A row whose own
run-to-run spread (interquartile range over median, on either side) is
wider than the bound is ``unresolved``, not ``ok``: the runs cannot tell.
Timings only count for runs that worked: a workload or metric that ``A``
has and ``B`` lacks, a different number of runs, a run of ``B`` that is
not ``correct`` and more ``failed`` operations in ``B`` than in ``A``
each fail the comparison, whatever the medians say.  Exit status 1 on
any of those or when any row regresses.  ``--per-layer`` also lists the
per-layer metrics, which have no bound and never fail the comparison.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def collect(document: dict, trace: int) -> dict:
    """``{(workload, metric): [values]}`` of the runs with this ``trace``."""
    values: dict = {}
    for run in document["runs"]:
        if run["trace"] != trace:
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def health(a: dict, b: dict, traces: tuple) -> list[str]:
    """Why ``B`` fails whatever its timings: runs missing, wrong or failed."""

    def by_workload(document: dict) -> dict:
        table: dict = {}
        for run in document["runs"]:
            if run["trace"] in traces:
                table.setdefault((run["workload"], run["trace"]), []).append(run)
        return table

    problems = []
    b_runs = by_workload(b)
    for (workload, trace), runs in sorted(by_workload(a).items()):
        others = b_runs.get((workload, trace), [])
        label = f"{workload} (trace {trace})"
        if len(others) != len(runs):
            problems.append(f"{label}: A has {len(runs)} run(s), B has {len(others)}")
        wrong = sum(not run["correct"] for run in others)
        if wrong:
            problems.append(f"{label}: {wrong} run(s) of B are not correct")
        a_failed = sum(run["failed"] for run in runs)
        b_failed = sum(run["failed"] for run in others)
        if b_failed > a_failed:
            problems.append(
                f"{label}: {b_failed} failed operation(s) in B, {a_failed} in A"
            )
    return problems


def verdict(worse: float, own_spread: float, bound) -> str:
    if bound is None:
        return "-"
    if own_spread > bound:
        return "unresolved"
    return "REGRESSION" if worse > bound else "ok"


def compare(a: dict, b: dict, metrics: list[dict]) -> list[dict]:
    rows = []
    for (workload, name), a_values in sorted(a.items()):
        spec = next((m for m in metrics if m["name"] == name), None)
        if spec is None:
            continue
        b_values = b.get((workload, name), [])
        a_median = statistics.median(a_values)
        row = {
            "workload": workload, "metric": name, "unit": spec["unit"],
            "a": a_median, "bound": spec.get("bound"),
            "runs": (len(a_values), len(b_values)),
        }
        if b_values:
            b_median = statistics.median(b_values)
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (b_median - a_median) / abs(a_median) if a_median else 0.0
            own = max(spread(a_values), spread(b_values))
            row.update(b=b_median, worse=worse, spread=own,
                       verdict=verdict(worse, own, row["bound"]))
        else:
            # Gone from B: a failure, not a row to leave out.
            row.update(b=math.nan, worse=math.nan, spread=spread(a_values),
                       verdict="REGRESSION")
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="runs of the parent commit")
    parser.add_argument("b", help="runs of the change")
    parser.add_argument("--per-layer", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    rows = compare(collect(a, 0), collect(b, 0), spec["end_to_end"])
    if args.per_layer:
        rows += compare(collect(a, 1), collect(b, 1), spec["per_layer"])
    problems = health(a, b, (0, 1) if args.per_layer else (0,))
    print(
        f"{'workload':18s} {'metric':38s} {'A median':>12s} {'B median':>12s} "
        f"{'worse':>8s} {'spread':>7s} {'bound':>6s} runs  verdict"
    )
    for row in rows:
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        print(
            f"{row['workload']:18s} {row['metric']:38s} {row['a']:12.6g} "
            f"{row['b']:12.6g} {row['worse']:+8.3f} {row['spread']:7.3f} "
            f"{bound:>6s} {row['runs'][0]}/{row['runs'][1]}   {row['verdict']}"
        )
    for problem in problems:
        print(f"FAILED {problem}")
    regressions = sum(row["verdict"] == "REGRESSION" for row in rows)
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(
        f"{regressions} regression(s), {unresolved} unresolved row(s), "
        f"{len(problems)} failed check(s)"
    )
    return 1 if regressions or problems else 0


if __name__ == "__main__":
    sys.exit(main())
