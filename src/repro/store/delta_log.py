"""Append-only persistence for graph mutations (``.gmdelta`` logs).

A hosted graph's durable state is an immutable ``.gmsnap`` snapshot plus
an append-only log of the mutation batches applied since: crash recovery
is ``load_snapshot`` + :meth:`DeltaLog.apply_to`, and once the log grows
past a threshold fraction of the base it is **compacted** — the merged
edge set is written as a fresh snapshot and the log truncated
(:func:`compact_delta_graph`).

On-disk layout: an 8-byte magic followed by self-delimiting records::

    [u64 payload_len][payload][u32 crc32(payload)]

where the payload is one JSON header line (epoch, array dtypes/lengths)
followed by the five raw little-endian arrays (insert src/dst/weights,
delete src/dst).  Appends are flushed (optionally fsync'd) after each
batch; a torn trailing record — the only corruption an append-only file
can suffer from a crash — is detected by the length/CRC frame and
reported (or skipped with ``strict=False``, accepting the loss of the
final batch).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import faults
from repro.errors import IOFormatError
from repro.dynamic.delta_graph import DeltaGraph
from repro.graph.graph import Graph

#: Magic prefix of a delta log file (8 bytes, versioned).
DELTA_LOG_MAGIC = b"GMDELTA1"
#: Suffix conventionally used for delta log files.
DELTA_LOG_SUFFIX = ".gmdelta"
#: Byte offset of the first record (right after the magic) — the
#: starting cursor of a replication follower.
LOG_START = len(DELTA_LOG_MAGIC)

_LEN = struct.Struct("<Q")
_CRC = struct.Struct("<I")
_ARRAYS = ("ins_src", "ins_dst", "ins_vals", "del_src", "del_dst")


@dataclass(frozen=True)
class LoggedBatch:
    """One recorded mutation batch, as requested by the caller."""

    epoch: int
    ins_src: np.ndarray
    ins_dst: np.ndarray
    ins_vals: np.ndarray
    del_src: np.ndarray
    del_dst: np.ndarray
    meta: dict

    @property
    def n_edges(self) -> int:
        """Requested mutation size (inserts + deletes)."""
        return int(self.ins_src.shape[0] + self.del_src.shape[0])

    def inserts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        if self.ins_src.shape[0] == 0:
            return None
        return (self.ins_src, self.ins_dst, self.ins_vals)

    def deletes(self) -> tuple[np.ndarray, np.ndarray] | None:
        if self.del_src.shape[0] == 0:
            return None
        return (self.del_src, self.del_dst)


def iter_frames(data: bytes, pos: int = 0):
    """Yield ``(payload, end_offset)`` for each intact record in ``data``.

    Stops (without raising) at the first torn or checksum-corrupt frame
    — the shared scanner under :meth:`DeltaLog.replay`,
    :meth:`DeltaLog.read_intact` (the replication stream) and
    :meth:`DeltaLog.repair`.
    """
    while pos < len(data):
        if pos + _LEN.size > len(data):
            return
        (length,) = _LEN.unpack_from(data, pos)
        end = pos + _LEN.size + length + _CRC.size
        if end > len(data):
            return
        payload = data[pos + _LEN.size : pos + _LEN.size + length]
        (crc,) = _CRC.unpack_from(data, pos + _LEN.size + length)
        if zlib.crc32(payload) != crc:
            return
        yield payload, end
        pos = end


def _as_1d(arr, dtype=None) -> np.ndarray:
    out = np.atleast_1d(np.asarray(arr))
    if dtype is not None:
        out = out.astype(dtype, copy=False)
    return np.ascontiguousarray(out)


class DeltaLog:
    """Append-only mutation log for one hosted graph (see module doc)."""

    def __init__(self, path: str | Path, *, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "wb") as fh:
                fh.write(DELTA_LOG_MAGIC)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(
        self,
        inserts: tuple | None = None,
        deletes: tuple | None = None,
        *,
        epoch: int,
        meta: dict | None = None,
        sync: bool | None = None,
    ) -> int:
        """Append one batch; returns the record's byte offset.

        ``inserts``/``deletes`` follow the
        :meth:`~repro.dynamic.delta_graph.DeltaGraph.apply_delta`
        conventions; the *requested* batch is logged (replay re-derives
        the effective one through ``apply_delta``).  ``sync`` overrides
        the log's ``fsync`` default for this one record (a per-mutation
        durability ack).
        """
        empty_i = np.zeros(0, dtype=np.int64)
        if inserts is None:
            arrays = {
                "ins_src": empty_i,
                "ins_dst": empty_i,
                "ins_vals": np.zeros(0, dtype=np.int64),
            }
        else:
            if len(inserts) == 2:
                src, dst = inserts
                vals = np.ones(np.atleast_1d(np.asarray(src)).shape[0],
                               dtype=np.int64)
            else:
                src, dst, vals = inserts
            arrays = {
                "ins_src": _as_1d(src, np.int64),
                "ins_dst": _as_1d(dst, np.int64),
                "ins_vals": _as_1d(vals),
            }
        if deletes is None:
            arrays["del_src"] = empty_i
            arrays["del_dst"] = empty_i
        else:
            arrays["del_src"] = _as_1d(deletes[0], np.int64)
            arrays["del_dst"] = _as_1d(deletes[1], np.int64)

        header = {
            "epoch": int(epoch),
            "meta": meta or {},
            "arrays": [
                {
                    "name": name,
                    "dtype": arrays[name].dtype.str,
                    "length": int(arrays[name].shape[0]),
                }
                for name in _ARRAYS
            ],
        }
        payload = json.dumps(header).encode() + b"\n" + b"".join(
            arrays[name].tobytes() for name in _ARRAYS
        )
        record = (
            _LEN.pack(len(payload)) + payload
            + _CRC.pack(zlib.crc32(payload))
        )
        faults.crash_point("delta_log.append.before")
        with open(self.path, "ab") as fh:
            offset = fh.tell()
            if faults.armed("delta_log.append.torn"):
                # The torn-tail crash: half a record reaches the file,
                # then the process dies.  crash_point never returns.
                fh.write(record[: max(1, len(record) // 2)])
                fh.flush()
                faults.crash_point("delta_log.append.torn")
            fh.write(record)
            fh.flush()
            if sync if sync is not None else self.fsync:
                os.fsync(fh.fileno())
        faults.crash_point("delta_log.append.after")
        return offset

    def sync(self) -> None:
        """fsync the log file (shutdown drain / durability-ack path)."""
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            os.fsync(fh.fileno())

    def truncate(self) -> None:
        """Drop every record (after a compaction); the file keeps its magic."""
        faults.crash_point("delta_log.truncate.before")
        with open(self.path, "wb") as fh:
            fh.write(DELTA_LOG_MAGIC)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def replay(self, *, strict: bool = True) -> list[LoggedBatch]:
        """Every recorded batch, in append order.

        ``strict=True`` raises :class:`~repro.errors.IOFormatError` on a
        torn or corrupt trailing record; ``strict=False`` stops at the
        last intact record instead (crash recovery: the torn batch was
        never acknowledged).
        """
        data = self.path.read_bytes()
        if not data.startswith(DELTA_LOG_MAGIC):
            raise IOFormatError(f"{self.path}: not a delta log (bad magic)")
        batches: list[LoggedBatch] = []
        pos = LOG_START
        for payload, end in iter_frames(data, pos):
            batches.append(self._decode(payload))
            pos = end
        if strict and pos != len(data):
            raise IOFormatError(
                f"{self.path}: torn or corrupt record at byte {pos} "
                f"(use strict=False to recover the intact prefix)"
            )
        return batches

    def read_intact(self, offset: int | None = None) -> tuple[bytes, int]:
        """Raw bytes of every intact record from ``offset`` onward.

        Returns ``(frames, next_offset)``: ``frames`` holds only whole,
        checksum-valid records (the unit a replication follower ships
        and applies), ``next_offset`` is where the next read should
        start.  A record being appended concurrently fails its CRC and
        is simply excluded until the next read — the reader never blocks
        the writer.
        """
        start = LOG_START if offset is None else max(LOG_START, int(offset))
        with open(self.path, "rb") as fh:
            magic = fh.read(LOG_START)
            if magic != DELTA_LOG_MAGIC:
                raise IOFormatError(
                    f"{self.path}: not a delta log (bad magic)"
                )
            fh.seek(start)
            data = fh.read()
        end = 0
        for _payload, frame_end in iter_frames(data, 0):
            end = frame_end
        return data[:end], start + end

    def repair(self) -> int:
        """Truncate a torn tail in place; returns the bytes dropped.

        An append after a torn record would land *behind* garbage and be
        unreachable to replay — recovery must cut the tail before the
        log is written again (:meth:`GraphService._recover` does).
        """
        data = self.path.read_bytes()
        if not data.startswith(DELTA_LOG_MAGIC):
            raise IOFormatError(f"{self.path}: not a delta log (bad magic)")
        pos = LOG_START
        for _payload, end in iter_frames(data, pos):
            pos = end
        torn = len(data) - pos
        if torn:
            with open(self.path, "rb+") as fh:
                fh.truncate(pos)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
        return torn

    @staticmethod
    def _decode(payload: bytes) -> LoggedBatch:
        return decode_record(payload)

    def apply_to(self, base: Graph, *, strict: bool = True) -> DeltaGraph:
        """Replay the log over ``base``: the recovered overlay.

        The result's epoch equals the number of replayed batches.
        """
        graph = base if isinstance(base, DeltaGraph) else DeltaGraph(base)
        for batch in self.replay(strict=strict):
            graph = graph.apply_delta(batch.inserts(), batch.deletes())
        return graph

    def __len__(self) -> int:
        return len(self.replay(strict=False))

    @property
    def nbytes(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0


def decode_frames(data: bytes) -> list[LoggedBatch]:
    """Decode a ``read_intact`` byte stream (replication wire format)."""
    return [decode_record(payload) for payload, _end in iter_frames(data, 0)]


def decode_record(payload: bytes) -> LoggedBatch:
    """Decode one log record payload back into a LoggedBatch."""
    newline = payload.index(b"\n")
    header = json.loads(payload[:newline])
    arrays = {}
    offset = newline + 1
    for spec in header["arrays"]:
        dtype = np.dtype(spec["dtype"])
        nbytes = dtype.itemsize * spec["length"]
        arrays[spec["name"]] = np.frombuffer(
            payload, dtype=dtype, count=spec["length"], offset=offset
        )
        offset += nbytes
    return LoggedBatch(
        epoch=int(header["epoch"]),
        meta=header.get("meta", {}),
        **{name: arrays[name] for name in _ARRAYS},
    )


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
def compact_delta_graph(
    graph: DeltaGraph,
    snapshot_path: str | Path,
    *,
    log: DeltaLog | None = None,
    n_partitions: int | None = None,
    directions: tuple[str, ...] = ("out",),
) -> Graph:
    """Fold an overlay back into a fresh snapshot; truncate its log.

    Writes the merged edge set (and partitioned views) to
    ``snapshot_path`` atomically (``SnapshotWriter`` tmp + rename),
    reloads it through the zero-copy mmap path, and — once the snapshot
    is durable — truncates ``log``.  Returns the freshly loaded
    :class:`Graph`; callers swap it in for the overlay (the serving
    layer does this under its mutation lock and keeps counting epochs).
    """
    from repro.store.snapshot import load_snapshot, save_snapshot

    faults.crash_point("compact.before_snapshot")
    materialized = graph.to_graph()
    save_snapshot(
        materialized,
        snapshot_path,
        n_partitions=n_partitions,
        directions=directions,
        meta={"compacted_from_epoch": int(graph.epoch)},
    )
    faults.crash_point("compact.after_snapshot")
    fresh = load_snapshot(snapshot_path)
    if log is not None:
        log.truncate()
    return fresh
