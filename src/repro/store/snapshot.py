"""Graph snapshots: persist the engine's sparse-matrix representation.

GraphMat-style systems spend most of their end-to-end time re-deriving
the partitioned DCSC representation from text edge lists on every run.
A snapshot inverts that: the *representation itself* — the COO edge
triples plus any number of partitioned DCSC views — is stored as aligned
raw buffers in a ``.gmsnap`` container (:mod:`repro.store.format`), and
:func:`load_snapshot` rebuilds a ready-to-run :class:`Graph` from mmap
views in O(header + n_vertices) time with zero edge-array copies.

Every block of one snapshot shares a single file mapping per process
(:func:`open_snapshot` caches readers by resolved path).

Snapshots optionally embed each block's derived kernel caches
(``col_expanded`` / ``dst_groups``) so even the fused dense-pull path
starts without an O(edges) warm-up allocation (``include_caches=True``;
costs ~2x file size).
"""

from __future__ import annotations

from pathlib import Path

from repro.core.options import DEFAULT_OPTIONS
from repro.errors import IOFormatError
from repro.graph.graph import Graph
from repro.matrix.coo import COOMatrix
from repro.matrix.dcsc import DCSCMatrix
from repro.matrix.partition import PartitionedMatrix
from repro.store.format import SnapshotReader, SnapshotWriter

#: Suffix conventionally used for snapshot files.
SNAPSHOT_SUFFIX = ".gmsnap"

_VALID_DIRECTIONS = ("out", "in")

# One reader per resolved path per process: all blocks of a snapshot
# share a single mmap.
# Keyed by (size, mtime) too: writers replace files atomically, so a
# re-saved snapshot must not serve views of the unlinked old mapping.
_OPEN_READERS: dict[str, tuple[tuple[int, int], SnapshotReader]] = {}


def open_snapshot(path: str | Path, *, mmap: bool = True) -> SnapshotReader:
    """A (cached) reader for ``path``; one mmap per path per process."""
    resolved = Path(path).resolve()
    key = str(resolved)
    stat = resolved.stat()
    signature = (int(stat.st_size), int(stat.st_mtime_ns))
    cached = _OPEN_READERS.get(key)
    if cached is not None:
        cached_signature, reader = cached
        if cached_signature == signature and reader.mmap == mmap:
            return reader
    reader = SnapshotReader(resolved, mmap=mmap)
    _OPEN_READERS[key] = (signature, reader)
    return reader


def close_snapshots() -> None:
    """Drop the per-process reader cache (tests / long-lived servers)."""
    _OPEN_READERS.clear()


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def _write_block(
    writer: SnapshotWriter,
    prefix: str,
    block: DCSCMatrix,
    include_caches: bool,
) -> dict:
    entry = {
        "row_range": [int(block.row_range[0]), int(block.row_range[1])],
        "jc": writer.add_array(f"{prefix}/jc", block.jc),
        "cp": writer.add_array(f"{prefix}/cp", block.cp),
        "ir": writer.add_array(f"{prefix}/ir", block.ir),
        "num": writer.add_array(f"{prefix}/num", block.num),
    }
    if include_caches:
        block.warm_caches()
        order, group_starts, unique_rows = block.dst_groups()
        entry["caches"] = {
            "col_expanded": writer.add_array(
                f"{prefix}/cache/col_expanded", block.col_expanded()
            ),
            "order": writer.add_array(f"{prefix}/cache/order", order),
            "group_starts": writer.add_array(
                f"{prefix}/cache/group_starts", group_starts
            ),
            "unique_rows": writer.add_array(
                f"{prefix}/cache/unique_rows", unique_rows
            ),
        }
    return entry


def _write_view(
    writer: SnapshotWriter,
    view_index: int,
    direction: str,
    n_partitions: int,
    partitions: PartitionedMatrix,
    include_caches: bool,
) -> dict:
    blocks = [
        _write_block(
            writer, f"views/{view_index}/blocks/{p}", block, include_caches
        )
        for p, block in enumerate(partitions.blocks)
    ]
    return {
        "direction": direction,
        "n_partitions": int(n_partitions),
        "shape": [int(partitions.shape[0]), int(partitions.shape[1])],
        "blocks": blocks,
    }


def save_snapshot(
    graph: Graph,
    path: str | Path,
    *,
    n_partitions: int | None = None,
    directions: tuple[str, ...] = ("out",),
    include_caches: bool = False,
    meta: dict | None = None,
) -> Path:
    """Snapshot ``graph`` (edges + requested partitioned views) to ``path``.

    ``n_partitions`` should match the block count of the engine options
    the graph will run under so :func:`load_snapshot` pre-seeds exactly
    the view cache entry ``run_graph_program`` asks for.  The default
    mirrors ``DEFAULT_OPTIONS``: its ``block_count(graph.n_vertices)``
    (one block up to 65,536 vertices).
    """
    if n_partitions is None:
        n_partitions = DEFAULT_OPTIONS.block_count(graph.n_vertices)
    for direction in directions:
        if direction not in _VALID_DIRECTIONS:
            raise IOFormatError(
                f"unknown view direction {direction!r}; "
                f"expected one of {_VALID_DIRECTIONS}"
            )
    path = Path(path)
    coo = graph.edges
    with SnapshotWriter(path) as writer:
        document = {
            "kind": "graph",
            "meta": meta or {},
            "graph": {
                "n_vertices": int(graph.n_vertices),
                "n_edges": int(graph.n_edges),
            },
            "edges": {
                "rows": writer.add_array("edges/rows", coo.rows),
                "cols": writer.add_array("edges/cols", coo.cols),
                "vals": writer.add_array("edges/vals", coo.vals),
            },
            "views": [],
        }
        for view_index, direction in enumerate(directions):
            partitions = (
                graph.out_partitions(n_partitions)
                if direction == "out"
                else graph.in_partitions(n_partitions)
            )
            document["views"].append(
                _write_view(
                    writer,
                    view_index,
                    direction,
                    n_partitions,
                    partitions,
                    include_caches,
                )
            )
        return writer.close(document)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def _load_block(
    reader: SnapshotReader, entry: dict, shape: tuple[int, int]
) -> DCSCMatrix:
    block = DCSCMatrix(
        shape,
        reader.array(entry["jc"]),
        reader.array(entry["cp"]),
        reader.array(entry["ir"]),
        reader.array(entry["num"]),
        row_range=tuple(entry["row_range"]),
        validate=False,
    )
    caches = entry.get("caches")
    if caches is not None:
        block.install_caches(
            reader.array(caches["col_expanded"]),
            (
                reader.array(caches["order"]),
                reader.array(caches["group_starts"]),
                reader.array(caches["unique_rows"]),
            ),
        )
    return block


def _load_view(reader: SnapshotReader, view_doc: dict) -> PartitionedMatrix:
    shape = tuple(view_doc["shape"])
    blocks = [_load_block(reader, entry, shape) for entry in view_doc["blocks"]]
    partitions = PartitionedMatrix(shape, blocks)
    partitions.snapshot_path = str(reader.path)
    return partitions


def load_snapshot(
    path: str | Path, *, mmap: bool = True, verify: bool = False
) -> Graph:
    """Rebuild a :class:`Graph` from a snapshot in O(header + vertices).

    The edge COO arrays and every DCSC block array are zero-copy views
    of one read-only file mapping (``mmap=True``).  The O(nnz)
    bounds/invariant scans are skipped: writes are atomic (a snapshot is
    either complete or absent), the reader rejects arrays extending past
    the file, and content integrity is the checksums' job — pass
    ``verify=True`` (or run ``repro-convert verify``) to re-check every
    CRC-32 before trusting a file that crossed an unreliable transport.
    The snapshot's partitioned views are installed into the Graph's view
    cache under their block count, so an engine run with matching
    options starts without touching the edge arrays at all.  A view
    document's unknown keys (older files name how their rows were cut)
    are ignored: results do not depend on where rows are cut.
    """
    reader = open_snapshot(path, mmap=mmap)
    if verify:
        reader.verify()
    document = reader.document
    if document.get("kind") != "graph":
        raise IOFormatError(
            f"{path}: snapshot holds {document.get('kind')!r}, not a graph"
        )
    n = int(document["graph"]["n_vertices"])
    edges_doc = document["edges"]
    coo = COOMatrix(
        (n, n),
        reader.array(edges_doc["rows"]),
        reader.array(edges_doc["cols"]),
        reader.array(edges_doc["vals"]),
        validate=False,
    )
    graph = Graph(coo)
    graph.snapshot_path = str(reader.path)
    for view_doc in document["views"]:
        graph.adopt_partitions(
            view_doc["direction"],
            int(view_doc["n_partitions"]),
            _load_view(reader, view_doc),
        )
    return graph


def snapshot_info(path: str | Path) -> dict:
    """Human-oriented summary of a snapshot (used by ``repro-convert info``)."""
    reader = open_snapshot(path, mmap=True)
    document = reader.document
    views = [
        {
            "direction": v["direction"],
            "n_partitions": v["n_partitions"],
            "blocks": len(v["blocks"]),
            "cached_kernels": any("caches" in b for b in v["blocks"]),
        }
        for v in document["views"]
    ]
    return {
        "path": str(reader.path),
        "kind": document.get("kind"),
        "graph": document.get("graph"),
        "views": views,
        "arrays": len(reader.arrays_index),
        "file_bytes": reader.total_bytes(),
        "meta": document.get("meta", {}),
    }
