"""``offline_analytics`` and ``batch_analytics``: the library API, no server.

Untraced, the passes run in :mod:`library_child` (a fresh process per
set-up round); traced, they run here, under the tracer, with traced and
untraced passes alternating.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

import layers
import verify
from harness import CHILD_TIMEOUT_S, HERE, Context, Outcome

STEPS_PER_PASS = {"offline_analytics": 5, "batch_analytics": 3}


def _spawn_child(ctx: Context, snapshot, *, setup_only: bool):
    results = ctx.workdir / "results.npz"
    command = [
        sys.executable, str(HERE / "library_child.py"),
        "--workload", ctx.workload, "--snapshot", str(snapshot),
        "--roots", ",".join(str(r) for r in ctx.roots),
        "--seconds", str(ctx.seconds), "--results", str(results),
    ]
    if setup_only:
        command.append("--setup-only")
    child = subprocess.Popen(command, env=ctx.env, stdout=subprocess.PIPE, text=True)
    return child, results


def _read_message(child: subprocess.Popen, key: str) -> dict:
    line = child.stdout.readline()
    if not line:
        raise RuntimeError(f"library child exited with {child.wait()} before {key!r}")
    return json.loads(line)[key]


def _count_checks(ctx: Context, outcome: Outcome, repeat_mismatches: int) -> None:
    # Every algorithm run (warm-up pass included) is verified exactly
    # once: the first of its kind by the oracle, repeats bit for bit.
    outcome.failures += [verify.REPEAT_DIFFERS] * repeat_mismatches
    outcome.attempted = (len(outcome.latencies_ms) + 1) * STEPS_PER_PASS[ctx.workload]


def untraced(ctx: Context) -> Outcome:
    outcome = Outcome()
    for round_index in range(ctx.setup_rounds):
        last = round_index == ctx.setup_rounds - 1
        convert_s, snapshot = ctx.convert(round_index)
        begin = time.perf_counter()
        child, results_path = _spawn_child(ctx, snapshot, setup_only=not last)
        try:
            _read_message(child, "loaded")
            outcome.setup_rounds_s.append(convert_s + time.perf_counter() - begin)
            if last:
                outcome.warmup_s = _read_message(child, "ready")["warmup_s"]
                done = _read_message(child, "done")
        finally:
            if child.wait(timeout=CHILD_TIMEOUT_S) != 0:
                outcome.failures.append("library child exited non-zero")
            child.stdout.close()
    outcome.latencies_ms = [1e3 * s for s in done["latencies_s"]]
    outcome.window_s = done["window_s"]
    outcome.cpu_s = done["cpu_s"]
    outcome.peak_rss_mb = done["peak_rss_mb"]
    begin = time.perf_counter()
    with np.load(results_path) as results:
        outcome.failures += verify.library_results(ctx, dict(results))
    _count_checks(ctx, outcome, done["repeat_mismatches"])
    ctx.verify_s = time.perf_counter() - begin
    return outcome


def traced(ctx: Context, tracer) -> Outcome:
    from passes import PassRunner

    outcome = Outcome()
    layer = outcome.layer
    layer.update(layers.ingest_and_load(ctx))
    runner = PassRunner(ctx.workload, ctx.graph, ctx.roots, tracer)
    runner.run_pass()
    warm_runs = len(runner.engine)
    window_begin = time.perf_counter()
    traced_ms, untraced_ms = [], []
    while time.perf_counter() - window_begin < ctx.seconds / 2:
        tracer.enabled = layers.traced_turn(len(outcome.latencies_ms))
        latency = 1e3 * runner.run_pass()
        (traced_ms if tracer.enabled else untraced_ms).append(latency)
        outcome.latencies_ms.append(latency)
    tracer.enabled = True
    outcome.window_s = time.perf_counter() - window_begin

    runs = runner.engine[warm_runs:]
    # Counts come from the first pass of the window: a fixed prefix
    # repeats exactly, the number of passes in a timed window does not.
    first_pass = runs[: STEPS_PER_PASS[ctx.workload]]
    engine_s = sum(r["seconds"] for r in runs)
    for name, seconds in runner.step_seconds.items():
        layer[f"algorithms.{name}_s"] = statistics.median(seconds)
    layer.update({
        "core.engine.supersteps": sum(r["supersteps"] for r in first_pass),
        "core.engine.edges_processed": sum(r["edges"] for r in first_pass),
        "core.engine.edges_per_s": sum(r["edges"] for r in runs) / engine_s,
        "core.engine.driver_overhead_share": 1.0
        - sum(r["superstep_seconds"] for r in runs) / engine_s,
    })
    layer.update(layers.kernel_blocks([r["kernels"] for r in first_pass]))
    layer.update(
        layers.budget(
            tracer, window_begin, traced_ms, untraced_ms, sum(traced_ms) / 1e3
        )
    )
    begin = time.perf_counter()
    outcome.failures += verify.library_results(ctx, runner.first)
    _count_checks(ctx, outcome, runner.repeat_mismatches)
    ctx.verify_s = time.perf_counter() - begin
    return outcome
