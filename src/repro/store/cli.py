"""``repro-convert``: convert, inspect and verify graph snapshots.

::

    repro-convert convert graph.tsv graph.gmsnap --partitions 8
    repro-convert convert ratings.mtx.gz ratings.gmsnap --include-caches
    repro-convert info graph.gmsnap
    repro-convert verify graph.gmsnap

``convert`` runs the bounded-memory streaming ingest
(:mod:`repro.store.ingest`); ``info`` prints the manifest summary
without touching array data; ``verify`` re-checksums every array.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import IOFormatError
from repro.store.ingest import DEFAULT_CHUNK_EDGES, ingest_file
from repro.store.snapshot import open_snapshot, snapshot_info


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-convert",
        description="Convert graph text formats to .gmsnap snapshots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser(
        "convert", help="stream a text graph file into a snapshot"
    )
    convert.add_argument("source", help="edge list or MatrixMarket file (.gz ok)")
    convert.add_argument("snapshot", help="output .gmsnap path")
    convert.add_argument(
        "--format",
        choices=("auto", "edgelist", "mtx"),
        default="auto",
        help="input format (default: sniff suffix/banner)",
    )
    convert.add_argument(
        "--weighted",
        action="store_true",
        help="edge list has a third weight column",
    )
    convert.add_argument(
        "--comment", default="#", help="edge-list comment prefix (default '#')"
    )
    convert.add_argument(
        "--n-vertices",
        type=int,
        default=None,
        help="explicit vertex count (edge lists; default: max id + 1)",
    )
    convert.add_argument(
        "--partitions",
        type=int,
        default=None,
        help="DCSC row partitions for the stored out view (default: the "
        "block count the default engine asks for, one per 65,536 "
        "vertices)",
    )
    convert.add_argument(
        "--chunk-edges",
        type=int,
        default=DEFAULT_CHUNK_EDGES,
        help="edges parsed per streaming chunk",
    )
    convert.add_argument(
        "--include-caches",
        action="store_true",
        help="embed per-block kernel caches (larger file, zero warm-up)",
    )
    convert.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes for the parse/route/finalize passes "
        "(default: CPU count; output bytes do not depend on this)",
    )
    convert.add_argument(
        "--temp-dir",
        default=None,
        help="directory for spill/shard scratch files "
        "(default: system temp dir)",
    )

    info = sub.add_parser("info", help="print a snapshot's manifest summary")
    info.add_argument("snapshot")
    info.add_argument("--json", action="store_true", help="machine-readable")

    verify = sub.add_parser("verify", help="re-checksum every stored array")
    verify.add_argument("snapshot")
    return parser


def _cmd_convert(args: argparse.Namespace) -> int:
    report = ingest_file(
        args.source,
        args.snapshot,
        format=args.format,
        weighted=args.weighted,
        comment=args.comment,
        n_vertices=args.n_vertices,
        n_partitions=args.partitions,
        chunk_edges=args.chunk_edges,
        include_caches=args.include_caches,
        workers=args.workers,
        temp_dir=args.temp_dir,
    )
    print(
        f"{report.source} -> {report.snapshot}\n"
        f"  {report.n_vertices} vertices, {report.n_edges} edges "
        f"({report.n_edges_raw} raw), {report.n_partitions} partitions, "
        f"{report.workers} workers\n"
        f"  parse {report.parse_seconds:.2f}s + route "
        f"{report.route_seconds:.2f}s + finalize "
        f"{report.finalize_seconds:.2f}s; peak partition "
        f"{report.peak_partition_edges} edges; "
        f"{report.snapshot_bytes / 1e6:.1f} MB"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    summary = snapshot_info(args.snapshot)
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    graph = summary["graph"] or {}
    print(f"{summary['path']}: kind={summary['kind']}")
    print(
        f"  graph: {graph.get('n_vertices')} vertices, "
        f"{graph.get('n_edges')} edges"
    )
    for view in summary["views"]:
        caches = " +kernel-caches" if view["cached_kernels"] else ""
        print(f"  view: {view['direction']} x{view['n_partitions']}{caches}")
    print(f"  {summary['arrays']} arrays, {summary['file_bytes']} bytes")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reader = open_snapshot(args.snapshot)
    try:
        reader.verify()
    except IOFormatError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {len(reader.arrays_index)} arrays verified")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "convert":
            return _cmd_convert(args)
        if args.command == "info":
            return _cmd_info(args)
        return _cmd_verify(args)
    except (IOFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
