#!/usr/bin/env python3
"""End-to-end benchmark: from a text edge list to the HTTP reply.

    python3 benchmarks/e2e/run.py --workload NAME|all [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR]

One run generates a seeded R-MAT edge list, converts it with
``repro-convert``, then either runs analytics through the library API
in a child process or serves queries from ``repro-serve`` (a real
subprocess) to ``ServeClient`` over sockets, and checks what came back
against a scipy oracle.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` repeats the workload with one client
and the serve stack in-process, records spans around the product's
public API and reports the per-layer metrics.  Every metric is printed
as ``name value unit``; the last line of stdout is one JSON object.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def machine_meta(ctx) -> dict:
    import numpy

    try:
        import numba  # noqa: F401
        numba_available = True
    except ImportError:
        numba_available = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_available": numba_available,
        "scale": ctx.scale,
        "n_edges": ctx.edges.n_edges,
        "clients": 1 if ctx.args.trace else ctx.clients,
        "seconds": ctx.seconds,
        "setup_rounds": ctx.setup_rounds,
    }


def workload_module(ctx):
    import workload_library
    import workload_serve
    from inputs import LIBRARY_WORKLOADS

    return workload_library if ctx.workload in LIBRARY_WORKLOADS else workload_serve


def traced_run(ctx):
    """The workload under the tracer, then the workload-independent probes."""
    import layers
    import probes
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        outcome = workload_module(ctx).traced(ctx, tracer)
        tracer.enabled = False
        values, notes = probes.run(ctx, probes.COMMON)
    finally:
        tracer.uninstall()
    outcome.layer.update(values)
    outcome.notes.update(notes)
    for target, reason in tracer.missing.items():
        outcome.notes[f"trace target {target}"] = reason
    outcome.layer.update(
        layers.computed_traffic(
            ctx, outcome.layer.get("core.engine.edges_per_s") or 0.0
        )
    )
    tracer.write(ctx.out / f"trace-{ctx.workload}.json")
    return outcome


def metric_values(ctx, outcome, spec: dict) -> dict:
    """Map an outcome onto the metric names of ``BENCHMARK.json``."""
    latencies = sorted(outcome.latencies_ms)
    operations = len(latencies)
    if not ctx.args.trace:
        # A run in which every operation failed still reports (and exits
        # 1): no operation completed inside the window, so the window is
        # the latency and all the CPU is charged to one operation.
        measured = {
            "setup_s": statistics.median(outcome.setup_rounds_s) + outcome.warmup_s,
            "ops_per_s": operations / outcome.window_s,
            "latency_p50_ms": (
                statistics.median(latencies) if latencies else 1e3 * outcome.window_s
            ),
            "cpu_s_per_op": outcome.cpu_s / max(1, operations),
            "peak_rss_mb": outcome.peak_rss_mb,
        }
        return {m["name"]: measured[m["name"]] for m in spec["end_to_end"]}
    measured = {
        **outcome.layer,
        # Demoted from the end-to-end set: only two of the five
        # workloads have the >= 200 samples a p95 needs.
        "client.latency_p95_ms": (
            latencies[min(operations - 1, int(0.95 * operations))]
            if latencies else None
        ),
        "client.latency_samples": operations,
        "bench.generate_s": ctx.generate_s,
        "bench.verify_s": ctx.verify_s,
    }
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        values[name] = measured.get(name)
        if values[name] is None:
            outcome.notes.setdefault(name, "layer not exercised by this workload")
    return values


def report(ctx, outcome, spec: dict) -> int:
    values = metric_values(ctx, outcome, spec)
    group = "per_layer" if ctx.args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    failed = min(len(outcome.failures), outcome.attempted)
    correct = not outcome.failures
    print(
        f"# {ctx.workload} seed={ctx.seed} scale={ctx.scale} "
        f"clients={1 if ctx.args.trace else ctx.clients} trace={ctx.args.trace} "
        f"operations={len(outcome.latencies_ms)} window={outcome.window_s:.2f}s "
        f"attempted={outcome.attempted} failed={failed}"
    )
    for name, value in values.items():
        shown = "null" if value is None else f"{value:.6g}"
        note = f"  # {outcome.notes[name]}" if name in outcome.notes else ""
        print(f"{name} {shown} {units[name]}{note}")
    for key, note in outcome.notes.items():
        if key not in values:
            print(f"NOTE {key}: {note}")
    for failure in outcome.failures[:10]:
        print(f"FAILED {failure}")
    document = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "trace": ctx.args.trace,
        "meta": machine_meta(ctx),
        "operations": len(outcome.latencies_ms),
        "window_s": outcome.window_s,
        "latencies_ms": [round(ms, 3) for ms in outcome.latencies_ms],
        "setup_rounds_s": outcome.setup_rounds_s,
        "warmup_s": outcome.warmup_s,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "failures": outcome.failures[:50],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
        "notes": outcome.notes,
    }
    (ctx.out / f"result-{ctx.workload}-trace{ctx.args.trace}.json").write_text(
        json.dumps(document, indent=1)
    )
    # The result line carries numbers only: a per-layer metric this
    # workload does not exercise reads 0 there, and null with the reason
    # in the lines above and in the result document.
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": 0 if value is None else value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


def run_one(args, spec: dict) -> int:
    from harness import Context

    ctx = Context(args)
    try:
        ctx.prepare()
        outcome = traced_run(ctx) if args.trace else workload_module(ctx).untraced(ctx)
        return report(ctx, outcome, spec)
    finally:
        ctx.cleanup()


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh child process; one combined document."""
    from harness import CHILD_TIMEOUT_S

    # An existing --json document is extended, so that two sets can be
    # taken alternately (A, B, A, B, ...) and see the same machine states.
    target = Path(args.json) if args.json else None
    runs = json.loads(target.read_text())["runs"] if target and target.exists() else []
    status = 0
    for repeat in range(args.repeats):
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1) if args.trace else (0,):
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", args.out, "--clients", str(args.clients),
                ]
                command += ["--smoke"] if args.smoke else []
                child = subprocess.run(
                    command, stdout=subprocess.PIPE, text=True,
                    timeout=CHILD_TIMEOUT_S,
                )
                lines = child.stdout.strip().splitlines()
                status = status or child.returncode
                if lines and lines[-1].startswith("{"):
                    result = json.loads(lines.pop())
                else:
                    # The child crashed before its result line: the run
                    # is recorded as failed, so compare.py sees it.
                    status = status or 1
                    result = {"correct": False, "attempted": 0, "failed": 0,
                              "metrics": {}}
                print("\n".join(lines), flush=True)
                runs.append({
                    "workload": workload, "seed": args.seed,
                    "trace": trace, "repeat": repeat, **result,
                })
    document = {"benchmark": spec["command"], "runs": runs}
    if target:
        target.write_text(json.dumps(document, indent=1))
    print(json.dumps(document))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced single-client run (with 'all': both)")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="result documents, span files and scratch space")
    parser.add_argument("--clients", type=int, default=2,
                        help="client threads = connections (default 2 = nproc here)")
    parser.add_argument("--smoke", action="store_true",
                        help="scale-10 graph, 1 s window, one set-up round")
    parser.add_argument("--repeats", type=int, default=1, help="with --workload all")
    parser.add_argument("--json", default=None,
                        help="with --workload all: write the combined document "
                        "here, after the runs it already holds")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="self-test: flip one oracle value; the run must fail")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark "
              "measures the product's source and builds nothing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in (*names, "all"):
        parser.error(f"--workload must be one of {names} or 'all'")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    Path(args.out).mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
