"""Streaming ingest: text graph formats -> ``.gmsnap``, bounded memory.

``read_edge_list``/``read_mtx`` materialize the whole edge list, then
sort it, then partition it — peak memory is a multiple of the graph.
This pipeline converts the same formats with peak memory bounded by
**one partition plus one parse chunk per worker**, in three passes that
all fan out across a process pool (``workers``, default = CPU count):

1. **Parse + spill** — the text is split into chunks (newline-aligned
   byte ranges for plain files; sequentially-read blobs for gzip/pipes,
   matching ``open_text`` semantics) and each chunk parses in a worker
   into a binary spill segment of ``(dst, src, seq[, val])`` records.
   Workers record chunk-local ``seq``; the route pass rewrites it to the
   edge's global position in the file, which is what makes the "keep the
   last duplicate" policy reproducible and worker-count independent.
2. **Route** — partition row ranges are cut from the vertex count (the
   equal-rows split of :mod:`repro.matrix.partition`), then
   contiguous partition groups are assigned to workers; each worker
   re-reads every spill segment in chunk order and appends its group's
   records to per-partition shard files.
3. **Finalize** — one worker per partition: load the shard, resolve
   duplicates (keep last occurrence by ``seq``, matching
   ``COOMatrix.deduplicated("last")``), compress to a DCSC block, and
   write the block's arrays — checksummed — to a scratch block file.
   The parent copies block files into the snapshot in partition order
   through :meth:`SnapshotWriter.add_raw`, then concatenates the
   per-partition edge triples into the snapshot's COO section.

Because the global ``seq`` equals the edge's file-order index and the
finalize sort is total, the produced snapshot is **byte-identical for
any worker count, chunk size, or gzip-vs-plain source** — parity tests
compare the files with ``filecmp``.  All scratch files live in one
``gm-ingest-*`` temp directory that is removed on success *and* on any
failure (parse errors, worker crashes, injected faults), so a dying
ingest never orphans multi-GB spill/shard trees.

The produced snapshot holds the graph's edges plus its ``out`` view
(``A^T`` partitioned by destination — the view OUT_EDGES programs like
PageRank/BFS/SSSP multiply with), and loads with
:func:`repro.store.load_snapshot`.  Other views are built lazily from
the mmapped COO on first use.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
import zlib
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import faults
from repro.core.options import DEFAULT_OPTIONS
from repro.errors import IOFormatError
from repro.graph.io import (
    is_gzipped,
    mtx_data_offset,
    open_text,
    parse_mtx_header,
    text_chunk_offsets,
)
from repro.matrix.coo import COOMatrix
from repro.matrix.dcsc import DCSCMatrix
from repro.matrix.partition import row_ranges_equal_rows
from repro.store.format import SnapshotWriter

#: Edges parsed per text chunk (~24 MiB of spill records at the default).
DEFAULT_CHUNK_EDGES = 1 << 20

#: Bytes sampled from the head of the data section to estimate line size
#: when translating ``chunk_edges`` into a byte/character stride.
_SAMPLE_BYTES = 1 << 12
#: The bytes-per-line estimate is clamped to this range.
_LINE_BYTES_RANGE = (4, 4096)
#: Copy granularity when draining scratch block files into the snapshot.
_COPY_BYTES = 1 << 22


@dataclass
class IngestReport:
    """What one streaming conversion did (returned by the ingest calls)."""

    source: str
    snapshot: str
    format: str
    n_vertices: int = 0
    n_edges_raw: int = 0
    n_edges: int = 0
    n_partitions: int = 0
    workers: int = 1
    chunks: int = 0
    peak_partition_edges: int = 0
    parse_seconds: float = 0.0
    route_seconds: float = 0.0
    finalize_seconds: float = 0.0
    snapshot_bytes: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.parse_seconds + self.route_seconds + self.finalize_seconds


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


def _spill_dtype(value_dtype: np.dtype | None) -> np.dtype:
    fields = [("dst", "<i8"), ("src", "<i8"), ("seq", "<i8")]
    if value_dtype is not None:
        fields.append(("val", np.dtype(value_dtype).str))
    return np.dtype(fields)


@dataclass(frozen=True)
class _PipelineConfig:
    """Everything a worker needs for any pass — small and picklable."""

    source: str
    format: str  # "edgelist" | "mtx"
    comment: str
    weighted: bool
    mtx_field: str | None
    symmetry: str | None
    declared_nnz: int
    n_vertices: int | None  # declared; None = discover from the data
    value_dtype: str | None
    final_value_dtype: str
    include_caches: bool
    work_dir: str

    @property
    def spill_record(self) -> np.dtype:
        return _spill_dtype(
            None if self.value_dtype is None else np.dtype(self.value_dtype)
        )


def _spill_path(cfg: _PipelineConfig, index: int) -> Path:
    return Path(cfg.work_dir) / "spill" / f"chunk-{index:06d}.spill"


def _shard_path(cfg: _PipelineConfig, p: int) -> Path:
    return Path(cfg.work_dir) / "shard" / f"part-{p:04d}.shard"


def _block_path(cfg: _PipelineConfig, p: int) -> Path:
    return Path(cfg.work_dir) / "blocks" / f"block-{p:04d}.blk"


def _parse_edge_lines(
    lines: list[str],
    n_tokens: int,
    *,
    exact: bool,
    parse_values: bool,
    name: str,
    first_line_no: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Token arrays for one chunk of already-filtered data lines.

    Lines are split individually (token counts are validated per line —
    MTX requires exact counts, edge lists tolerate trailing columns) but
    the string -> number conversion runs vectorized over the chunk.
    """
    token_rows = [line.split() for line in lines]
    for offset, tokens in enumerate(token_rows):
        if len(tokens) < n_tokens or (exact and len(tokens) != n_tokens):
            raise IOFormatError(
                f"{name}:{first_line_no + offset}: expected {n_tokens} "
                f"tokens, got {lines[offset]!r}"
            )
    try:
        u = np.array([t[0] for t in token_rows], dtype=np.int64)
        v = np.array([t[1] for t in token_rows], dtype=np.int64)
        w = (
            np.array([t[2] for t in token_rows], dtype=np.float64)
            if parse_values
            else None
        )
    except ValueError as exc:
        raise IOFormatError(f"{name}: malformed numeric field: {exc}") from exc
    return u, v, w


def _check_vertex_bound(chunk_dst, chunk_src, n_vertices, name) -> None:
    if chunk_dst.size and (
        max(int(chunk_dst.max()), int(chunk_src.max())) >= n_vertices
        or min(int(chunk_dst.min()), int(chunk_src.min())) < 0
    ):
        raise IOFormatError(
            f"{name}: vertex id outside the declared range [0, {n_vertices})"
        )


# ----------------------------------------------------------------------
# Chunk planning: one deterministic split of the text, independent of
# worker count (the plan — not the pool — decides the output bytes).
# ----------------------------------------------------------------------
def _estimate_line_bytes(sample) -> int:
    newline = b"\n" if isinstance(sample, bytes) else "\n"
    average = len(sample) // max(1, sample.count(newline))
    lo, hi = _LINE_BYTES_RANGE
    return min(hi, max(lo, average))


def _plan_offset_chunks(
    source: Path, data_offset: int, chunk_edges: int
) -> list[tuple[int, int]]:
    """Byte-range chunks for a plain file, sized to ~``chunk_edges`` lines."""
    with source.open("rb") as handle:
        handle.seek(data_offset)
        sample = handle.read(_SAMPLE_BYTES)
    target = max(1, int(chunk_edges)) * _estimate_line_bytes(sample)
    return text_chunk_offsets(source, data_offset, target)


def _stream_blobs(handle, chunk_edges: int):
    """Line-aligned text blobs from a sequential (gzip/pipe) handle."""
    sample = handle.read(_SAMPLE_BYTES)
    if not sample:
        return
    target = max(1, int(chunk_edges)) * _estimate_line_bytes(sample)
    blob = sample
    if len(blob) < target:
        blob += handle.read(target - len(blob))
    blob += handle.readline()
    yield blob
    while True:
        blob = handle.read(target)
        if not blob:
            return
        blob += handle.readline()
        yield blob


# ----------------------------------------------------------------------
# Worker-side pass bodies.  Each runs in a pool worker (or inline when
# workers=1) and communicates through files under cfg.work_dir plus a
# small result dict; ``_run_task`` is the picklable dispatch shim.
# ----------------------------------------------------------------------
def _parse_edgelist_chunk(cfg: _PipelineConfig, lines: list[str]):
    u, v, w = _parse_edge_lines(
        lines,
        3 if cfg.weighted else 2,
        exact=False,
        parse_values=cfg.weighted,
        name=cfg.source,
        first_line_no=1,
    )
    src, dst = u, v
    if cfg.n_vertices is not None:
        _check_vertex_bound(dst, src, cfg.n_vertices, cfg.source)
    elif dst.size:
        low = min(int(dst.min()), int(src.min()))
        if low < 0:
            raise IOFormatError(
                f"{cfg.source}: negative vertex id {low} "
                "(vertex ids must be >= 0)"
            )
    seq = np.arange(dst.shape[0], dtype=np.int64)
    return dst, src, w, seq, int(dst.shape[0])


def _parse_mtx_chunk(cfg: _PipelineConfig, lines: list[str]):
    """One chunk of MTX entries, 0-based, symmetric mirrors appended.

    Mirror records carry a *negative* chunk-local seq; the route pass
    decodes it to ``declared_nnz + global_index``, matching
    :func:`repro.graph.io.read_mtx`, which appends all mirrors after all
    stored entries before keep-last duplicate resolution.
    """
    u, v, w = _parse_edge_lines(
        lines,
        2 if cfg.mtx_field == "pattern" else 3,
        exact=True,
        parse_values=cfg.mtx_field != "pattern",
        name=cfg.source,
        first_line_no=1,
    )
    u -= 1
    v -= 1
    if u.size and (
        min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= cfg.n_vertices
    ):
        raise IOFormatError(
            f"{cfg.source}: entry outside declared {cfg.n_vertices}-vertex range"
        )
    if w is None:
        w = np.ones(u.shape[0], dtype=np.float64)
    entries = int(u.shape[0])
    stored_seq = np.arange(entries, dtype=np.int64)
    # Graph edge u -> v: COO row (src) = u, col (dst) = v.
    dst, src, val, seq = v, u, w, stored_seq
    if cfg.symmetry == "symmetric":
        mirror = u != v
        if mirror.any():
            dst = np.concatenate([dst, u[mirror]])
            src = np.concatenate([src, v[mirror]])
            val = np.concatenate([val, w[mirror]])
            seq = np.concatenate([seq, -(stored_seq[mirror] + 1)])
    return dst, src, val, seq, entries


def _parse_task(cfg: _PipelineConfig, index: int, span, blob):
    """Pass 1: one text chunk -> one spill segment."""
    if blob is None:
        start, end = span
        with open(cfg.source, "rb") as handle:
            handle.seek(start)
            blob = handle.read(end - start).decode("utf-8")
    comment = "%" if cfg.format == "mtx" else cfg.comment
    lines = []
    for line in blob.splitlines():
        stripped = line.strip()
        if stripped and not (comment and stripped.startswith(comment)):
            lines.append(stripped)
    if cfg.format == "mtx":
        dst, src, val, seq, entries = _parse_mtx_chunk(cfg, lines)
    else:
        dst, src, val, seq, entries = _parse_edgelist_chunk(cfg, lines)
    record = np.empty(dst.shape[0], dtype=cfg.spill_record)
    record["dst"] = dst
    record["src"] = src
    record["seq"] = seq
    if cfg.value_dtype is not None:
        record["val"] = val
    record.tofile(_spill_path(cfg, index))
    max_vertex = int(max(dst.max(), src.max())) if dst.size else -1
    return {
        "entries": entries,
        "records": int(dst.shape[0]),
        "max_vertex": max_vertex,
    }


def _route_task(cfg: _PipelineConfig, parts, ranges, segments):
    """Pass 2: fan every spill segment into this group's shard files.

    ``parts`` is a contiguous run of partition indices owned exclusively
    by this worker, so the shard files need no cross-process locking.
    Segments are visited in chunk order and the within-segment sort is
    stable, so each shard's record order — hence the final snapshot —
    does not depend on how partitions were grouped across workers.
    """
    record_dtype = cfg.spill_record
    uppers = np.asarray([hi for (_lo, hi) in ranges], dtype=np.int64)
    lo_row, hi_row = int(ranges[0][0]), int(ranges[-1][1])
    handles = [open(_shard_path(cfg, p), "wb") for p in parts]
    counts = np.zeros(len(parts), dtype=np.int64)
    try:
        for index, base in segments:
            records = np.fromfile(_spill_path(cfg, index), dtype=record_dtype)
            if not records.size:
                continue
            # Rewrite chunk-local seq to the global file-order position;
            # negative values are MTX mirrors of stored entry -(seq+1).
            seq = records["seq"]
            if cfg.format == "mtx":
                records["seq"] = np.where(
                    seq >= 0,
                    base + seq,
                    cfg.declared_nnz + base + (-seq - 1),
                )
            else:
                records["seq"] = base + seq
            dst = records["dst"]
            mask = (dst >= lo_row) & (dst < hi_row)
            mine = records if mask.all() else records[mask]
            part = np.searchsorted(uppers[:-1], mine["dst"], side="right")
            order = np.argsort(part, kind="stable")
            mine = mine[order]
            bounds = np.searchsorted(part[order], np.arange(len(parts) + 1))
            for k in range(len(parts)):
                lo, hi = int(bounds[k]), int(bounds[k + 1])
                if hi > lo:
                    handles[k].write(memoryview(mine[lo:hi]).cast("B"))
                counts[k] += hi - lo
    finally:
        for handle in handles:
            handle.close()
    return {"parts": list(parts), "counts": counts.tolist()}


def _finalize_partition(
    records: np.ndarray,
    shape: tuple[int, int],
    row_range: tuple[int, int],
    value_dtype: np.dtype | None,
    final_value_dtype: np.dtype,
) -> DCSCMatrix:
    """Dedup one shard (keep last by ``seq``) and compress it to DCSC."""
    dst = np.ascontiguousarray(records["dst"])
    src = np.ascontiguousarray(records["src"])
    if value_dtype is not None:
        val = np.ascontiguousarray(records["val"])
    else:
        val = np.ones(dst.shape[0], dtype=final_value_dtype)
    if dst.size:
        order = np.lexsort((records["seq"], src, dst))
        dst, src, val = dst[order], src[order], val[order]
        keep = np.empty(dst.shape[0], dtype=bool)
        keep[-1] = True
        keep[:-1] = (dst[1:] != dst[:-1]) | (src[1:] != src[:-1])
        dst, src, val = dst[keep], src[keep], val[keep]
    if val.dtype != final_value_dtype:
        val = val.astype(final_value_dtype)
    piece = COOMatrix(shape, dst, src, val)
    return DCSCMatrix.from_coo(piece, row_range=row_range)


def _finalize_task(cfg: _PipelineConfig, p: int, row_range, n_vertices: int):
    """Pass 3: shard -> DCSC block -> checksummed scratch block file."""
    shard = _shard_path(cfg, p)
    if shard.exists():
        records = np.fromfile(shard, dtype=cfg.spill_record)
        shard.unlink()
    else:
        records = np.empty(0, dtype=cfg.spill_record)
    block = _finalize_partition(
        records,
        (n_vertices, n_vertices),
        row_range,
        None if cfg.value_dtype is None else np.dtype(cfg.value_dtype),
        np.dtype(cfg.final_value_dtype),
    )
    arrays = [
        ("jc", block.jc),
        ("cp", block.cp),
        ("ir", block.ir),
        ("num", block.num),
        # Always materialized: the snapshot's COO section concatenates
        # col_expanded/ir/num across partitions as edges/rows|cols|vals.
        ("col_expanded", block.col_expanded()),
    ]
    if cfg.include_caches:
        block.warm_caches()
        order, group_starts, unique_rows = block.dst_groups()
        arrays += [
            ("order", order),
            ("group_starts", group_starts),
            ("unique_rows", unique_rows),
        ]
    meta = []
    offset = 0
    with open(_block_path(cfg, p), "wb") as handle:
        for key, array in arrays:
            array = np.ascontiguousarray(array)
            raw = memoryview(array).cast("B") if array.size else b""
            handle.write(raw)
            meta.append(
                {
                    "key": key,
                    "offset": offset,
                    "nbytes": array.nbytes,
                    "dtype": array.dtype.str,
                    "shape": [int(s) for s in array.shape],
                    "crc32": zlib.crc32(raw) & 0xFFFFFFFF,
                }
            )
            offset += array.nbytes
    return {
        "p": p,
        "records": int(records.shape[0]),
        "nnz": int(block.nnz),
        "row_range": [int(row_range[0]), int(row_range[1])],
        "arrays": meta,
    }


def _run_task(task):
    """Module-level pool entry point (must be picklable by name)."""
    kind = task[0]
    if kind == "parse":
        return _parse_task(*task[1:])
    if kind == "route":
        return _route_task(*task[1:])
    return _finalize_task(*task[1:])


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context the ingest pool runs on.

    fork is the cheap path (workers inherit everything copy-on-write,
    and stdin-driven parents survive — forkserver/spawn re-import
    __main__, which hangs heredoc/REPL parents).  The usual
    fork-with-threads caveat applies: start an ingest before heavy
    threading.  No engine thread pool outlives the run that opened it,
    so forking between engine runs is safe.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _run_tasks(pool, tasks, window: int):
    """Yield task results in submission order, <= ``window`` in flight.

    The windowing is what keeps stream-mode memory bounded: an eager
    ``executor.map`` would consume the whole blob iterator up front.
    With ``pool=None`` (workers=1) everything runs inline.
    """
    if pool is None:
        for task in tasks:
            yield _run_task(task)
        return
    pending: deque = deque()
    for task in tasks:
        pending.append(pool.submit(_run_task, task))
        if len(pending) >= window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _file_chunks(path: Path, offset: int, nbytes: int):
    """Yield one scratch-file section as bounded byte chunks."""
    with open(path, "rb") as handle:
        handle.seek(offset)
        remaining = int(nbytes)
        while remaining:
            piece = handle.read(min(_COPY_BYTES, remaining))
            if not piece:
                raise IOFormatError(f"{path}: truncated block file")
            remaining -= len(piece)
            yield piece


# ----------------------------------------------------------------------
# The parent-side pipeline driver
# ----------------------------------------------------------------------
def _run_pipeline(
    cfg: _PipelineConfig,
    report: IngestReport,
    out_path: Path,
    chunk_plan,  # ("offset", data_offset) | ("stream", text_handle)
    *,
    n_partitions: int | None,
    chunk_edges: int,
    workers: int,
) -> IngestReport:
    work_dir = Path(cfg.work_dir)
    pool = None
    try:
        for sub in ("spill", "shard", "blocks"):
            (work_dir / sub).mkdir(parents=True, exist_ok=True)
        if workers > 1:
            pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=pool_context()
            )
        window = max(2, 2 * workers)

        # ---- Pass 1: parse text chunks into spill segments -------------
        t0 = time.perf_counter()
        if chunk_plan[0] == "offset":
            spans = _plan_offset_chunks(
                Path(cfg.source), int(chunk_plan[1]), chunk_edges
            )
            tasks = (
                ("parse", cfg, i, span, None) for i, span in enumerate(spans)
            )
            report.extra.setdefault("chunk_mode", "offset")
        else:
            tasks = (
                ("parse", cfg, i, None, blob)
                for i, blob in enumerate(_stream_blobs(chunk_plan[1], chunk_edges))
            )
            report.extra.setdefault("chunk_mode", "stream")
        bases: list[int] = []
        parsed_entries = 0
        raw_edges = 0
        max_vertex = -1
        for result in _run_tasks(pool, tasks, window):
            faults.crash_point("ingest.parse.chunk")
            bases.append(parsed_entries)
            if (
                cfg.format == "mtx"
                and parsed_entries + result["entries"] > cfg.declared_nnz
            ):
                raise IOFormatError(
                    f"{cfg.source}: more entries than declared "
                    f"nnz={cfg.declared_nnz}"
                )
            parsed_entries += result["entries"]
            raw_edges += result["records"]
            max_vertex = max(max_vertex, result["max_vertex"])
            report.chunks += 1
        if cfg.format == "mtx" and parsed_entries != cfg.declared_nnz:
            raise IOFormatError(
                f"{cfg.source}: declared nnz={cfg.declared_nnz} "
                f"but read {parsed_entries} entries"
            )
        n_vertices = (
            cfg.n_vertices if cfg.n_vertices is not None else max_vertex + 1
        )
        report.n_vertices = n_vertices
        report.n_edges_raw = raw_edges
        report.parse_seconds = time.perf_counter() - t0

        # ---- Partition ranges over the destination (output-row) space --
        if n_partitions is None:
            n_partitions = DEFAULT_OPTIONS.block_count(n_vertices)
        n_partitions = max(1, min(int(n_partitions), max(1, n_vertices)))
        ranges = row_ranges_equal_rows(n_vertices, n_partitions)
        report.n_partitions = n_partitions

        # ---- Pass 2: route spill records into per-partition shards -----
        t0 = time.perf_counter()
        segments = [(i, bases[i]) for i in range(report.chunks)]
        n_route = max(1, min(workers, n_partitions))
        groups = np.array_split(np.arange(n_partitions), n_route)
        route_tasks = (
            (
                "route",
                cfg,
                [int(p) for p in group],
                [ranges[int(p)] for p in group],
                segments,
            )
            for group in groups
            if group.size
        )
        for _result in _run_tasks(pool, route_tasks, window):
            faults.crash_point("ingest.route.shard")
        for i in range(report.chunks):
            _spill_path(cfg, i).unlink(missing_ok=True)
        report.route_seconds = time.perf_counter() - t0

        # ---- Pass 3: finalize partitions, assemble the snapshot --------
        t0 = time.perf_counter()
        finalize_tasks = (
            ("finalize", cfg, p, ranges[p], n_vertices)
            for p in range(n_partitions)
        )
        dedup_edges = 0
        with SnapshotWriter(out_path) as writer:
            blocks_doc = []
            block_meta: list[tuple[Path, dict]] = []
            for result in _run_tasks(pool, finalize_tasks, window):
                faults.crash_point("ingest.finalize.block")
                p = result["p"]
                report.peak_partition_edges = max(
                    report.peak_partition_edges, result["records"]
                )
                dedup_edges += result["nnz"]
                path = _block_path(cfg, p)
                meta = {entry["key"]: entry for entry in result["arrays"]}
                prefix = f"views/0/blocks/{p}"
                entry = {"row_range": result["row_range"]}
                for key in ("jc", "cp", "ir", "num"):
                    a = meta[key]
                    entry[key] = writer.add_raw(
                        f"{prefix}/{key}",
                        dtype=a["dtype"],
                        shape=a["shape"],
                        chunks=_file_chunks(path, a["offset"], a["nbytes"]),
                        crc32=a["crc32"],
                    )
                if cfg.include_caches:
                    caches = {}
                    for key in (
                        "col_expanded",
                        "order",
                        "group_starts",
                        "unique_rows",
                    ):
                        a = meta[key]
                        caches[key] = writer.add_raw(
                            f"{prefix}/cache/{key}",
                            dtype=a["dtype"],
                            shape=a["shape"],
                            chunks=_file_chunks(path, a["offset"], a["nbytes"]),
                            crc32=a["crc32"],
                        )
                    entry["caches"] = caches
                blocks_doc.append(entry)
                block_meta.append((path, meta))

            def edge_chunks(key):
                for path, meta in block_meta:
                    a = meta[key]
                    yield from _file_chunks(path, a["offset"], a["nbytes"])

            # Graph edges, derivable from the A^T blocks: src = expanded
            # columns, dst = ir, in partition order.
            writer.add_raw(
                "edges/rows",
                dtype=np.int64,
                shape=[dedup_edges],
                chunks=edge_chunks("col_expanded"),
            )
            writer.add_raw(
                "edges/cols",
                dtype=np.int64,
                shape=[dedup_edges],
                chunks=edge_chunks("ir"),
            )
            writer.add_raw(
                "edges/vals",
                dtype=np.dtype(cfg.final_value_dtype),
                shape=[dedup_edges],
                chunks=edge_chunks("num"),
            )
            document = {
                "kind": "graph",
                "meta": {
                    "source": cfg.source,
                    "ingest": "streaming",
                    "format": report.format,
                },
                "graph": {
                    "n_vertices": n_vertices,
                    "n_edges": dedup_edges,
                },
                "edges": {
                    "rows": "edges/rows",
                    "cols": "edges/cols",
                    "vals": "edges/vals",
                },
                "views": [
                    {
                        "direction": "out",
                        "n_partitions": n_partitions,
                        "shape": [n_vertices, n_vertices],
                        "blocks": blocks_doc,
                    }
                ],
            }
            writer.close(document)
        report.n_edges = dedup_edges
        report.finalize_seconds = time.perf_counter() - t0
        report.snapshot_bytes = out_path.stat().st_size
        return report
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        shutil.rmtree(work_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def ingest_edge_list(
    source: str | Path,
    snapshot: str | Path,
    *,
    weighted: bool = False,
    comment: str = "#",
    n_vertices: int | None = None,
    n_partitions: int | None = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    include_caches: bool = False,
    workers: int | None = None,
    temp_dir: str | Path | None = None,
) -> IngestReport:
    """Stream a (possibly gzipped) edge list into a snapshot.

    ``n_partitions`` defaults to the block count the default engine
    asks for (``DEFAULT_OPTIONS.block_count(n_vertices)``), so a
    default run on the loaded snapshot uses the stored view.

    ``workers`` fans all three passes across a process pool (default:
    CPU count); the snapshot bytes do not depend on it.  Scratch spill
    and shard files live under a fresh directory in ``temp_dir``
    (default: the system temp dir) and are removed even on failure.
    """
    source, snapshot = Path(source), Path(snapshot)
    workers = _resolve_workers(workers)
    chunk_edges = max(1, int(chunk_edges))
    report = IngestReport(
        source=str(source),
        snapshot=str(snapshot),
        format="edgelist",
        workers=workers,
    )
    cfg = _PipelineConfig(
        source=str(source),
        format="edgelist",
        comment=comment,
        weighted=weighted,
        mtx_field=None,
        symmetry=None,
        declared_nnz=0,
        n_vertices=n_vertices,
        value_dtype=np.dtype(np.float64).str if weighted else None,
        final_value_dtype=(
            np.dtype(np.float64) if weighted else np.dtype(np.int64)
        ).str,
        include_caches=include_caches,
        work_dir=tempfile.mkdtemp(prefix="gm-ingest-", dir=temp_dir),
    )
    run = dict(
        n_partitions=n_partitions,
        chunk_edges=chunk_edges,
        workers=workers,
    )
    try:
        if source.is_file() and not is_gzipped(source):
            return _run_pipeline(cfg, report, snapshot, ("offset", 0), **run)
        with open_text(source) as handle:
            return _run_pipeline(
                cfg, report, snapshot, ("stream", handle), **run
            )
    except BaseException:
        # _run_pipeline removes the scratch dir itself; this catches
        # failures before it starts (an unopenable source), which would
        # otherwise orphan the freshly made empty directory.
        shutil.rmtree(cfg.work_dir, ignore_errors=True)
        raise


def ingest_mtx(
    source: str | Path,
    snapshot: str | Path,
    *,
    n_partitions: int | None = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    include_caches: bool = False,
    workers: int | None = None,
    temp_dir: str | Path | None = None,
) -> IngestReport:
    """Stream a (possibly gzipped) MatrixMarket file into a snapshot."""
    source, snapshot = Path(source), Path(snapshot)
    workers = _resolve_workers(workers)
    chunk_edges = max(1, int(chunk_edges))
    report = IngestReport(
        source=str(source), snapshot=str(snapshot), format="mtx", workers=workers
    )
    run = dict(
        n_partitions=n_partitions,
        chunk_edges=chunk_edges,
        workers=workers,
    )

    def config(mtx_field, symmetry, n, nnz):
        report.extra = {"field": mtx_field, "symmetry": symmetry}
        return _PipelineConfig(
            source=str(source),
            format="mtx",
            comment="%",
            weighted=False,
            mtx_field=mtx_field,
            symmetry=symmetry,
            declared_nnz=nnz,
            n_vertices=n,
            # Values parse as float64 (read_mtx semantics) and convert to
            # int64 at finalize for integer fields.
            value_dtype=np.dtype(np.float64).str,
            final_value_dtype=(
                np.dtype(np.int64)
                if mtx_field == "integer"
                else np.dtype(np.float64)
            ).str,
                include_caches=include_caches,
            work_dir=tempfile.mkdtemp(prefix="gm-ingest-", dir=temp_dir),
        )

    if source.is_file() and not is_gzipped(source):
        mtx_field, symmetry, n, nnz, data_offset = mtx_data_offset(source)
        cfg = config(mtx_field, symmetry, n, nnz)
        return _run_pipeline(
            cfg, report, snapshot, ("offset", data_offset), **run
        )
    with open_text(source) as handle:
        mtx_field, symmetry, n, nnz = parse_mtx_header(handle, str(source))
        cfg = config(mtx_field, symmetry, n, nnz)
        return _run_pipeline(cfg, report, snapshot, ("stream", handle), **run)


def sniff_format(path: str | Path) -> str:
    """Guess ``"mtx"`` or ``"edgelist"`` from suffix, then content."""
    path = Path(path)
    suffixes = [s.lower() for s in path.suffixes]
    if ".mtx" in suffixes or ".mm" in suffixes:
        return "mtx"
    if suffixes and suffixes[-1] in (".tsv", ".txt", ".edges", ".el"):
        return "edgelist"
    try:
        with open_text(path) as handle:
            first = handle.readline()
    except OSError:
        return "edgelist"
    return "mtx" if first.startswith("%%MatrixMarket") else "edgelist"


def ingest_file(
    source: str | Path,
    snapshot: str | Path,
    *,
    format: str = "auto",
    **kwargs,
) -> IngestReport:
    """Dispatch to :func:`ingest_mtx` / :func:`ingest_edge_list`."""
    fmt = sniff_format(source) if format == "auto" else format
    if fmt == "mtx":
        kwargs.pop("weighted", None)
        kwargs.pop("comment", None)
        kwargs.pop("n_vertices", None)
        return ingest_mtx(source, snapshot, **kwargs)
    if fmt == "edgelist":
        return ingest_edge_list(source, snapshot, **kwargs)
    raise IOFormatError(f"unknown ingest format {fmt!r}")
