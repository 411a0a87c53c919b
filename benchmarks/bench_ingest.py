"""Loading-path benchmark: cold text parse vs snapshot mmap load.

Emits ``BENCH_ingest.json`` (repo root by default) recording cold
parse+build, streaming-ingest (single-process and at each worker count,
with a byte-identity parity flag), and snapshot-mmap-load times on a
Graph500 R-MAT graph.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_ingest.py [--scale 16] [--out PATH]

or as a pytest smoke test (small scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_ingest.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.ingest import (
    acceptance_check,
    bench_ingest,
    summarize_ingest,
    write_ingest_record,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_ingest.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=16,
                        help="R-MAT scale (2**scale vertices)")
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--partitions", type=int, default=8)
    parser.add_argument("--chunk-edges", type=int, default=1 << 18)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--worker-counts", type=int, nargs="+",
                        default=(1, 2, 4),
                        help="ingest worker counts for the parallel section")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    record = bench_ingest(
        scale=args.scale,
        edge_factor=args.edge_factor,
        n_partitions=args.partitions,
        chunk_edges=args.chunk_edges,
        repeats=args.repeats,
        worker_counts=tuple(args.worker_counts),
    )
    path = write_ingest_record(record, args.out)
    print(summarize_ingest(record))
    failures = acceptance_check(record)
    for failure in failures:
        print(f"ACCEPTANCE FAILURE: {failure}")
    print(f"\nwrote {path}")
    return 1 if failures else 0


def test_ingest_bench_smoke(tmp_path):
    """Small-scale smoke run asserting the machine-independent invariants:
    mmap load beats cold parse by >= 5x, both paths compute identical
    PageRank vectors, and every worker count produces the same snapshot
    bytes and counters."""
    record = bench_ingest(
        scale=10, edge_factor=8, repeats=2, pr_iterations=2,
        work_dir=tmp_path, worker_counts=(1, 2),
    )
    out = write_ingest_record(record, tmp_path / "BENCH_ingest.json")
    assert out.exists()
    assert record["speedup"]["snapshot_vs_cold"] >= 5.0
    assert record["parity"]["max_abs_diff"] == 0.0
    assert record["parity"]["pagerank_bitwise"] == 1.0
    assert record["parity"]["parallel_bytes_identical"] == 1.0
    assert record["parallel"]["counters_equal"] == 1.0
    assert set(record["parallel"]["runs"]) == {"w1", "w2"}
    assert record["ingest"]["peak_partition_edges"] <= record["meta"]["n_edges"]
    assert record["meta"]["calibration_seconds"] > 0.0
    # The multi-core speedup bar must not fire at smoke scale.
    assert acceptance_check(record) == []


if __name__ == "__main__":
    sys.exit(main())
