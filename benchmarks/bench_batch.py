"""Batched multi-frontier comparison: K lanes in one run vs K one-lane runs.

Emits ``BENCH_batch.json`` (repo root by default) recording wall-clock,
edges/sec and speedup for batched K-lane BFS and personalized PageRank
against the same K queries run one at a time through the same engine,
on a Graph500 R-MAT graph.  The acceptance claim is that batching never
loses (>= 1x) on either workload.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_batch.py [--scale 16] [--out PATH]

or as a pytest smoke test (small scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.batch import bench_batch, summarize, write_batch_record

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_batch.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=16,
                        help="R-MAT scale (2**scale vertices)")
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--lanes", type=int, default=16,
                        help="number of concurrent queries (K)")
    parser.add_argument("--iterations", type=int, default=10,
                        help="personalized PageRank supersteps")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    record = bench_batch(
        scale=args.scale,
        edge_factor=args.edge_factor,
        n_lanes=args.lanes,
        pr_iterations=args.iterations,
        repeats=args.repeats,
    )
    path = write_batch_record(record, args.out)
    print(summarize(record))
    print(f"\nwrote {path}")
    return 0


def test_batch_bench_smoke(tmp_path):
    """Smoke run at a small scale: the record must be complete, every
    lane's parity is checked inside bench_batch, and batching must not
    lose to K one-lane runs even at toy sizes."""
    record = bench_batch(scale=10, edge_factor=8, n_lanes=8,
                         pr_iterations=5, repeats=1)
    out = write_batch_record(record, tmp_path / "BENCH_batch.json")
    assert out.exists()
    for workload in ("bfs", "ppr"):
        cell = record[workload]
        assert cell["sequential"]["lane_edges"] > 0
        assert cell["batched"]["shared_edges"] > 0
        assert cell["sweep_amortization"] > 1.0
        assert cell["speedup"] > 1.0
    assert not record["acceptance"]["at_acceptance_scale"]


if __name__ == "__main__":
    sys.exit(main())
