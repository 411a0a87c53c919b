"""Persistent graph storage: the ``.gmsnap`` snapshot subsystem.

Re-running a GraphMat workload should not re-pay text parsing and DCSC
construction.  This package persists the engine's sparse-matrix
representation itself:

- :mod:`repro.store.format` — the versioned binary container (aligned
  raw arrays + JSON manifest, CRC-32 checksums, atomic writes),
- :mod:`repro.store.snapshot` — Graph-level save/load; loads are mmap
  views with zero edge copies and pre-seeded partition caches,
- :mod:`repro.store.ingest` — bounded-memory streaming conversion of
  edge lists / MatrixMarket (gzip ok) into snapshots,
- :mod:`repro.store.delta_log` — append-only mutation logs for hosted
  graphs (``.gmdelta``): durable deltas over an immutable snapshot,
  replayable into a :class:`~repro.dynamic.DeltaGraph`, compacted back
  into a fresh snapshot past a size threshold,
- :mod:`repro.store.cli` — the ``repro-convert`` command.

See ``docs/FORMATS.md`` for the on-disk layout.
"""

from __future__ import annotations

from repro.store.delta_log import (
    DELTA_LOG_MAGIC,
    DELTA_LOG_SUFFIX,
    DeltaLog,
    LoggedBatch,
    compact_delta_graph,
)
from repro.store.format import (
    ALIGNMENT,
    FORMAT_VERSION,
    MAGIC,
    SnapshotReader,
    SnapshotWriter,
    read_document,
)
from repro.store.ingest import (
    DEFAULT_CHUNK_EDGES,
    IngestReport,
    ingest_edge_list,
    ingest_file,
    ingest_mtx,
    sniff_format,
)
from repro.store.snapshot import (
    SNAPSHOT_SUFFIX,
    close_snapshots,
    load_snapshot,
    open_snapshot,
    save_snapshot,
    snapshot_info,
)

__all__ = [
    "ALIGNMENT",
    "DEFAULT_CHUNK_EDGES",
    "DELTA_LOG_MAGIC",
    "DELTA_LOG_SUFFIX",
    "DeltaLog",
    "FORMAT_VERSION",
    "LoggedBatch",
    "compact_delta_graph",
    "IngestReport",
    "MAGIC",
    "SNAPSHOT_SUFFIX",
    "SnapshotReader",
    "SnapshotWriter",
    "close_snapshots",
    "ingest_edge_list",
    "ingest_file",
    "ingest_mtx",
    "load_snapshot",
    "open_snapshot",
    "read_document",
    "save_snapshot",
    "sniff_format",
    "snapshot_info",
]
