"""Backend comparison: serial vs threaded SpMV execution.

Emits ``BENCH_backends.json`` (repo root by default) recording PageRank
time-per-iteration and BFS wall-clock for every execution backend on a
Graph500 R-MAT graph, and the ``dense_pull_crossover`` sweep that sets
the kernel selector's constant.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_backends.py [--scale 16] [--out PATH]

or as a pytest smoke test (small scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_backends.py --benchmark-only
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.backends import bench_backends, summarize, write_backend_record

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_backends.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=16,
                        help="R-MAT scale (2**scale vertices)")
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--iterations", type=int, default=5,
                        help="PageRank supersteps per run")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for the threaded backend")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    record = bench_backends(
        scale=args.scale,
        edge_factor=args.edge_factor,
        pr_iterations=args.iterations,
        repeats=args.repeats,
        n_workers=args.workers,
    )
    path = write_backend_record(record, args.out)
    print(summarize(record))
    print(f"\nwrote {path}")
    return 0


def test_backend_bench_smoke(tmp_path):
    """Smoke run at a small scale: the record must be complete."""
    record = bench_backends(scale=10, edge_factor=8, pr_iterations=3, repeats=1)
    out = write_backend_record(record, tmp_path / "BENCH_backends.json")
    assert out.exists()
    for workload in ("pagerank", "bfs"):
        for config in ("serial", "threaded"):
            assert record[workload][config]["edges_processed"] > 0
    assert record["winner"]["pagerank_parallel_backend"] == "threaded"
    sweep = record["crossover_sweep"]
    for lanes in ("k1", "k16"):
        assert len(sweep[lanes]["seconds"]) == len(sweep["grid"])


if __name__ == "__main__":
    sys.exit(main())
