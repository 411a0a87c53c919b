"""Checking the program's outputs against the oracle, outside timed windows."""

from __future__ import annotations

import inputs
import oracle as oracle_module
from harness import GRAPH_NAME, TOP_K, Context, Outcome

#: How ``top=k`` ranks each query kind (distances: nearest first).
ORDER = {"bfs": "min", "sssp": "min", "ppr": "max"}
REPEAT_DIFFERS = "repeat differs bitwise from the first result"


def library_results(ctx: Context, results: dict) -> list[str]:
    """The first result of every (algorithm, root) of the passes."""
    failures = []
    for key, values in results.items():
        step, _, vertex = key.partition(":")
        kind = step.removesuffix("_batch")
        params = (
            {"iterations": inputs.PPR_ITERATIONS} if kind == "ppr" else {}
        )
        if step == "pagerank":
            problem = oracle_module.check_vector(
                values, ctx.oracle.pagerank(inputs.PAGERANK_ITERATIONS)
            )
        elif step == "cc":
            problem = oracle_module.check_partition(values, ctx.oracle.components())
        elif step.endswith("_batch"):
            lanes = (
                (lane, oracle_module.check_vector(
                    values[lane], ctx.oracle.reference(kind, root, **params)))
                for lane, root in enumerate(ctx.roots)
            )
            problem = next(
                (f"lane {lane}: {p}" for lane, p in lanes if p is not None), None
            )
        else:
            problem = oracle_module.check_vector(
                values, ctx.oracle.reference(kind, int(vertex), **params)
            )
        if problem is not None:
            failures.append(f"{key}: {problem}")
    return failures


def response(ctx: Context, request, reply: dict, the_oracle=None) -> str | None:
    """One serve reply (``top`` list or full vector); None when right."""
    kind, vertex = request
    want = (the_oracle or ctx.oracle).reference(kind, vertex)
    if "top" in reply:
        problem = oracle_module.check_top(reply["top"], want, TOP_K, ORDER[kind])
    else:
        problem = oracle_module.check_vector(
            oracle_module.from_json_values(reply["values"]), want
        )
    return None if problem is None else f"{kind}({vertex}): {problem}"


def sampled_responses(ctx: Context, sample, outcome: Outcome) -> None:
    outcome.failures += filter(
        None, (response(ctx, request, reply) for request, reply in sample)
    )


def after_mutations(ctx: Context, hot, client, acknowledged, outcome: Outcome):
    """Re-query the hot roots in full; oracle = base + acknowledged batches.

    Reads inside the window race the writes, so the epoch each one saw
    is unknown; correctness is judged on the settled graph instead.
    """
    final = oracle_module.Oracle(inputs.apply_batches(ctx.edges, acknowledged))
    final.corruption = ctx.oracle.corruption
    for kind, vertex in hot:
        outcome.attempted += 1
        try:
            reply = client.query(
                GRAPH_NAME, kind, inputs.query_body(kind, vertex)
            )
        except Exception as exc:  # noqa: BLE001 — any failure is a failed check
            outcome.failures.append(f"re-query {kind}({vertex}): {exc}")
            continue
        problem = response(ctx, (kind, vertex), reply, final)
        if problem:
            outcome.failures.append(f"after mutations: {problem}")
