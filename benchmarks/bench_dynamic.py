"""Dynamic-graph benchmark: 1% edge delta, incremental vs full recompute.

Emits ``BENCH_dynamic.json`` (repo root by default) recording, for a
snapshot-backed R-MAT graph: mutation micro-costs (apply / view merge /
log append), full-recompute vs incremental BFS and PageRank times (with
and without snapshot regeneration on the full side), residual
warm-start PageRank quality, and the bitwise-parity checks against a
from-scratch rebuild.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_dynamic.py [--scale 16] [--out PATH]

or as a pytest smoke test (small scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_dynamic.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.dynamic import (
    bench_dynamic,
    summarize_dynamic,
    write_dynamic_record,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_dynamic.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=16,
                        help="R-MAT scale (2**scale vertices)")
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--delta-fraction", type=float, default=0.01,
                        help="mutation size as a fraction of the edge count")
    parser.add_argument("--partitions", type=int, default=8)
    parser.add_argument("--serve-iterations", type=int, default=30,
                        help="fixed PageRank iteration budget (serving mode)")
    parser.add_argument("--warm-tolerance", type=float, default=1e-9)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    record = bench_dynamic(
        scale=args.scale,
        edge_factor=args.edge_factor,
        delta_fraction=args.delta_fraction,
        n_partitions=args.partitions,
        serve_iterations=args.serve_iterations,
        warm_tolerance=args.warm_tolerance,
        repeats=args.repeats,
        seed=args.seed,
    )
    path = write_dynamic_record(record, args.out)
    print(summarize_dynamic(record))
    print(f"\nwrote {path}")
    return 0


def test_dynamic_bench_smoke(tmp_path):
    """Small-scale smoke run asserting the machine-independent invariants:
    overlay responses bitwise identical to a from-scratch rebuild, the
    incremental paths never lose to full recompute, and the warm-started
    PageRank lands within its error budget."""
    record = bench_dynamic(
        scale=10, edge_factor=8, repeats=2, serve_iterations=5,
        warm_tolerance=1e-8, work_dir=tmp_path,
    )
    out = write_dynamic_record(record, tmp_path / "BENCH_dynamic.json")
    assert out.exists()
    assert record["parity"]["bfs_bitwise"] == 1.0
    assert record["parity"]["pagerank_bitwise"] == 1.0
    assert record["parity"]["pagerank_warm_error_ok"] == 1.0
    assert record["speedup"]["bfs_incremental_vs_full"] > 1.0
    assert record["speedup"]["pagerank_incremental_vs_full"] > 1.0
    assert record["bfs"]["incremental"]["strategy"] == "incremental"
    assert record["meta"]["calibration_seconds"] > 0.0


if __name__ == "__main__":
    sys.exit(main())
