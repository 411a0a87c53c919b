"""Per-layer metrics the traced runs share, whatever the workload."""

from __future__ import annotations

import statistics
import time

import tracing
from harness import KERNELS, Context


def ingest_and_load(ctx: Context) -> dict:
    """Convert and load in-process (under the tracer); the store metrics.

    ``ingest_file`` returns the ``IngestReport`` the CLI only prints to
    two decimals; one more conversion through the CLI gives what the
    subprocess adds on top (interpreter start, imports, pool spawn).
    """
    from repro.store import ingest_file, load_snapshot

    report = ingest_file(ctx.tsv, ctx.snapshot_path(0), weighted=True)
    cli_wall, _ = ctx.convert(1)
    begin = time.perf_counter()
    ctx.graph = load_snapshot(ctx.snapshot_path(0))
    load_s = time.perf_counter() - begin
    return {
        "store.ingest.parse_s": report.parse_seconds,
        "store.ingest.route_s": report.route_seconds,
        "store.ingest.finalize_s": report.finalize_seconds,
        "store.ingest.edges_per_s": report.n_edges / report.total_seconds,
        "store.ingest.cli_overhead_s": cli_wall - report.total_seconds,
        "store.snapshot.bytes_per_edge": report.snapshot_bytes / report.n_edges,
        "store.snapshot.load_ms": 1e3 * load_s,
    }


def kernel_blocks(per_run: list[dict]) -> dict:
    """``core.kernels.blocks_<kernel>`` summed over ``kernel_totals()``."""
    blocks = {f"core.kernels.blocks_{kernel}": 0 for kernel in KERNELS}
    for totals in per_run:
        for kernel, count in totals.items():
            name = f"core.kernels.blocks_{kernel}"
            blocks[name] = blocks.get(name, 0) + count
    return blocks


def computed_traffic(ctx: Context, edges_per_s: float) -> dict:
    """Bytes per processed edge, *computed* from dtypes, not measured:
    the kernels read one index and one value per edge and move one
    message and one partial result (float64 each)."""
    coo = ctx.graph.edges
    bytes_per_edge = coo.rows.dtype.itemsize + coo.vals.dtype.itemsize + 2 * 8
    return {
        "core.spmv.computed_bytes_per_edge": bytes_per_edge,
        "core.spmv.computed_gbytes_per_s": bytes_per_edge * edges_per_s / 1e9,
    }


def traced_turn(index: int) -> bool:
    """Is operation ``index`` of a traced window recorded?

    Traced and untraced operations alternate in pairs, so that plans
    which alternate two kinds of request put both kinds on both sides.
    """
    return (index // 2) % 2 == 0


def budget(tracer, window_begin: float, traced_ms, untraced_ms, observed_s) -> dict:
    """Self time per layer and operation, how much of the ``observed_s``
    the client saw the spans cover, and what the tracer itself costs
    (traced and untraced operations alternate).

    ``observed_s`` is taken around the very call the outermost span
    wraps, so ``trace.unattributed_share`` is near 0 while that wrapper
    is installed and only guards the instrument (it jumps when the
    outermost target is gone).  What no span covers inside a request --
    sockets, HTTP parsing, JSON on both sides, the thread hand-off -- is
    the self time of ``serve.client``: that budget line is the residual.
    """
    spans = [s for s in tracer.spans if s["start"] >= window_begin]
    operations = max(1, len(traced_ms))
    metrics = {
        f"budget.{layer}_ms_per_op": 1e3 * seconds / operations
        for layer, seconds in tracing.self_seconds_by_layer(spans).items()
    }
    metrics["trace.unattributed_share"] = (
        max(0.0, 1.0 - tracing.root_seconds(spans) / observed_s)
        if observed_s else 0.0
    )
    metrics["trace.overhead_share"] = (
        statistics.median(traced_ms) / statistics.median(untraced_ms) - 1.0
        if traced_ms and untraced_ms
        else 0.0
    )
    return metrics
