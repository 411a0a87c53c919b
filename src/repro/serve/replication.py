"""Leader -> follower delta-log replication for the serving stack.

A **leader** is an ordinary durable ``repro-serve`` process
(``--delta-log-dir``): every acknowledged mutation is a CRC-framed
record in the graph's append-only ``.gmdelta`` log.  Replication ships
those exact bytes: a :class:`ReplicationFollower` tails the leader's log
over HTTP long-polls, appends the frames verbatim to its *own* local
log, applies the decoded batches as epoch-versioned
:class:`~repro.dynamic.DeltaGraph` overlays, and swaps them into its
(read-only) service's registry — the same commit path a local mutation
takes, so every guarantee of the single-node stack (epoch-pinned
in-flight queries, epoch-keyed cache invalidation, bitwise replay
parity) holds on the replica for free.

The cursor protocol (see :meth:`GraphService.wait_for_log`):

- A cursor is ``(generation, byte offset)``.  *Generation* is the epoch
  of the leader's last compaction; compaction truncates the log, so
  offsets are only comparable within one generation.
- ``GET /replication/{g}/log?offset=&generation=&timeout=`` long-polls:
  ``200`` returns whole CRC-valid frames + the next offset, ``204``
  means nothing new before the timeout, ``409`` means the cursor is
  invalid (the leader compacted into a new generation, or lost an
  unsynced tail) — the follower falls back to **catch-up-then-swap**:
  download the leader's latest snapshot, replay the log on top until
  current, and only then swap the result into the registry, so readers
  never observe the replica mid-install.
- Because the follower stores the leader's bytes verbatim from the same
  start offset, its local log length *is* its cursor — restart recovery
  is: load the newest local snapshot, repair + replay the local log
  (exactly the single-node recovery path), and resume tailing at
  ``local nbytes`` if the leader's generation still matches.

Staleness is bounded, not hidden: the follower tracks the leader's
epoch from every poll response, and :meth:`ReplicationFollower.check_read`
refuses reads (:class:`~repro.errors.StaleReadError` -> 503) once
``leader_epoch - local_epoch`` exceeds ``max_epoch_lag``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

from repro.dynamic import DeltaGraph
from repro.errors import ReplicationError, StaleReadError
from repro.serve.service import GraphService
from repro.store.delta_log import (
    DELTA_LOG_SUFFIX,
    LOG_START,
    DeltaLog,
    decode_frames,
)
from repro.store.snapshot import load_snapshot

#: Server-side cap on one long-poll (seconds); clients may ask for less.
MAX_POLL_SECONDS = 30.0


class ReplicationFollower:
    """Tail a leader's delta logs into a read-only service's registry."""

    def __init__(
        self,
        service: GraphService,
        leader_url: str,
        *,
        replica_dir: str | Path,
        graphs: list[str] | None = None,
        max_epoch_lag: int | None = 8,
        poll_timeout: float = 10.0,
        retry_seconds: float = 0.5,
    ) -> None:
        self.service = service
        self.leader_url = leader_url.rstrip("/")
        self.replica_dir = Path(replica_dir)
        self.replica_dir.mkdir(parents=True, exist_ok=True)
        #: None disables the staleness guard entirely.
        self.max_epoch_lag = (
            int(max_epoch_lag) if max_epoch_lag is not None else None
        )
        self.poll_timeout = float(poll_timeout)
        self.retry_seconds = float(retry_seconds)
        self._graphs = list(graphs) if graphs is not None else None
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        #: graph -> last leader epoch seen in any replication response.
        self._leader_epoch: dict[str, int] = {}
        #: graph -> installed-and-tailing (readiness).
        self._installed: dict[str, bool] = {}
        self._snapshots_installed = 0
        self._batches_applied = 0
        self._errors = 0
        self._last_contact: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Discover graphs (unless pinned) and start one tail per graph."""
        if self._graphs is None:
            status, _headers, body = self._http(
                "/graphs", timeout=self.poll_timeout + 5.0
            )
            if status != 200:
                raise ReplicationError(
                    f"leader {self.leader_url} refused /graphs: HTTP {status}"
                )
            self._graphs = sorted(
                entry["name"] for entry in json.loads(body)["graphs"]
            )
        if not self._graphs:
            raise ReplicationError(f"leader {self.leader_url} hosts no graphs")
        for name in self._graphs:
            self._installed.setdefault(name, False)
            thread = threading.Thread(
                target=self._follow_loop,
                args=(name,),
                name=f"repro-follow-{name}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=self.poll_timeout + 10.0)

    def __enter__(self) -> "ReplicationFollower":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Read guard + introspection
    # ------------------------------------------------------------------
    def check_read(self, graph_name: str) -> None:
        """Refuse a read whose staleness bound is blown (503 upstream)."""
        if self.max_epoch_lag is None:
            return
        if graph_name not in self._installed:
            return  # not a replicated graph; let the registry 404 it
        leader_epoch = self._leader_epoch.get(graph_name)
        if leader_epoch is None or not self._installed.get(graph_name):
            raise StaleReadError(
                f"replica of {graph_name!r} is still bootstrapping"
            )
        local_epoch = self.service.registry.entry(graph_name).epoch
        lag = leader_epoch - local_epoch
        if lag > self.max_epoch_lag:
            raise StaleReadError(
                f"replica of {graph_name!r} lags the leader by {lag} epochs "
                f"(bound {self.max_epoch_lag}); read the leader or retry"
            )

    def ready(self) -> tuple[bool, str]:
        """Is every replicated graph installed and tailing?"""
        if self._stop.is_set():
            return False, "stopped"
        missing = sorted(
            name for name, ok in self._installed.items() if not ok
        )
        if not self._installed or missing:
            return False, f"bootstrapping {missing or 'graph discovery'}"
        return True, "ok"

    def status(self) -> dict:
        """JSON-ready replication state for the ``/stats`` endpoint."""
        with self._lock:
            lags = {}
            for name in self._installed:
                leader_epoch = self._leader_epoch.get(name)
                try:
                    local = self.service.registry.entry(name).epoch
                except Exception:  # noqa: BLE001 — not installed yet
                    local = None
                lags[name] = {
                    "installed": self._installed.get(name, False),
                    "leader_epoch": leader_epoch,
                    "local_epoch": local,
                    "lag": (
                        leader_epoch - local
                        if leader_epoch is not None and local is not None
                        else None
                    ),
                }
            return {
                "leader": self.leader_url,
                "max_epoch_lag": self.max_epoch_lag,
                "snapshots_installed": self._snapshots_installed,
                "batches_applied": self._batches_applied,
                "errors": self._errors,
                "last_contact": self._last_contact,
                "graphs": lags,
            }

    # ------------------------------------------------------------------
    # The per-graph tail loop
    # ------------------------------------------------------------------
    def _follow_loop(self, name: str) -> None:
        cursor: tuple[int, int] | None = None  # (generation, offset)
        while not self._stop.is_set():
            try:
                if cursor is None:
                    cursor = self._resume_local(name) or self._bootstrap(name)
                    self._installed[name] = True
                cursor = self._poll_once(name, cursor)
            except (
                ReplicationError,
                urllib.error.URLError,
                OSError,
                # A leader that closes mid-body (IncompleteRead) or sends
                # a garbled status line is a transport failure too.
                http.client.HTTPException,
            ):
                with self._lock:
                    self._errors += 1
                self._stop.wait(self.retry_seconds)

    def _poll_once(
        self, name: str, cursor: tuple[int, int]
    ) -> tuple[int, int] | None:
        """One long-poll; returns the advanced cursor (None = reinstall)."""
        generation, offset = cursor
        query = urllib.parse.urlencode(
            {
                "offset": offset,
                "generation": generation,
                "timeout": self.poll_timeout,
            }
        )
        status, headers, body = self._http(
            f"/replication/{urllib.parse.quote(name)}/log?{query}",
            timeout=self.poll_timeout + 10.0,
        )
        self._note_contact(name, headers)
        if status == 409:
            return None  # stale cursor: catch-up-then-swap from the snapshot
        if status == 204:
            return cursor
        if status != 200:
            raise ReplicationError(
                f"leader {self.leader_url} replication poll for {name!r} "
                f"failed: HTTP {status}"
            )
        next_offset = int(headers["X-Repro-Next-Offset"])
        if body:
            self._append_local(name, body)
            self._apply_frames(name, body)
        return generation, next_offset

    def _bootstrap(self, name: str) -> tuple[int, int]:
        """Catch-up-then-swap: snapshot + log replay, then one registry swap."""
        status, headers, body = self._http(
            f"/replication/{urllib.parse.quote(name)}/snapshot",
            timeout=max(60.0, self.poll_timeout + 10.0),
        )
        if status != 200:
            raise ReplicationError(
                f"leader {self.leader_url} has no snapshot for {name!r} "
                f"(HTTP {status}); cannot bootstrap"
            )
        self._note_contact(name, headers)
        snap_epoch = int(headers["X-Repro-Epoch"])
        generation = int(headers["X-Repro-Generation"])
        snap_path = self.replica_dir / f"{name}-epoch{snap_epoch}.gmsnap"
        tmp_path = snap_path.with_suffix(".gmsnap.tmp")
        tmp_path.write_bytes(body)
        os.replace(tmp_path, snap_path)
        graph = load_snapshot(snap_path)
        epoch = snap_epoch
        # Fresh local log for this generation: cursor == local length.
        log = self._local_log(name)
        log.truncate()
        offset = LOG_START
        # Catch up (zero-timeout polls) before the swap: readers keep
        # the old state until the new one is within one poll of current.
        while not self._stop.is_set():
            query = urllib.parse.urlencode(
                {"offset": offset, "generation": generation, "timeout": 0}
            )
            status, headers, body = self._http(
                f"/replication/{urllib.parse.quote(name)}/log?{query}",
                timeout=self.poll_timeout + 10.0,
            )
            self._note_contact(name, headers)
            if status == 409:
                raise ReplicationError(
                    f"leader compacted {name!r} again during bootstrap"
                )
            if status == 204 or not body:
                break
            if status != 200:
                raise ReplicationError(
                    f"leader {self.leader_url} replication catch-up for "
                    f"{name!r} failed: HTTP {status}"
                )
            self._append_local(name, body)
            offset = int(headers["X-Repro-Next-Offset"])
            for batch in decode_frames(body):
                if batch.epoch <= epoch:
                    continue  # already folded into the snapshot
                graph = (
                    graph
                    if isinstance(graph, DeltaGraph)
                    else DeltaGraph(graph)
                )
                graph = graph.apply_delta(batch.inserts(), batch.deletes())
                epoch = batch.epoch
        self._swap(name, graph, epoch, source=str(snap_path))
        with self._lock:
            self._snapshots_installed += 1
        return generation, offset

    def _resume_local(self, name: str) -> tuple[int, int] | None:
        """Restart recovery from the replica's own disk, if it lines up.

        The local snapshot + repaired local log *are* the single-node
        recovery inputs; the result resumes tailing at ``local nbytes``
        as long as the leader is still in the same generation (its log
        at least as long as ours).  Any mismatch -> full bootstrap.
        """
        compacted = self._latest_local_snapshot(name)
        if compacted is None:
            return None
        status, _headers, body = self._http(
            f"/replication/{urllib.parse.quote(name)}/status",
            timeout=self.poll_timeout + 5.0,
        )
        if status != 200:
            raise ReplicationError(
                f"leader {self.leader_url} replication status for {name!r} "
                f"failed: HTTP {status}"
            )
        leader = json.loads(body)
        snap_epoch, snap_path = compacted
        log = self._local_log(name)
        log.repair()
        if (
            leader["generation"] != snap_epoch
            or leader["log_bytes"] < log.nbytes
        ):
            return None
        graph = load_snapshot(snap_path)
        epoch = snap_epoch
        for batch in log.replay(strict=False):
            if batch.epoch <= epoch:
                continue
            graph = (
                graph if isinstance(graph, DeltaGraph) else DeltaGraph(graph)
            )
            graph = graph.apply_delta(batch.inserts(), batch.deletes())
            epoch = batch.epoch
        self._swap(name, graph, epoch, source=str(snap_path))
        return snap_epoch, log.nbytes

    # ------------------------------------------------------------------
    # Local state
    # ------------------------------------------------------------------
    def _apply_frames(self, name: str, data: bytes) -> None:
        entry = self.service.registry.entry(name)
        graph, epoch = entry.graph, entry.epoch
        applied = 0
        for batch in decode_frames(data):
            if batch.epoch <= epoch:
                continue  # leader log older than our snapshot (crash window)
            graph = (
                graph if isinstance(graph, DeltaGraph) else DeltaGraph(graph)
            )
            graph = graph.apply_delta(batch.inserts(), batch.deletes())
            epoch = batch.epoch
            applied += 1
        if applied:
            self._swap(name, graph, epoch)
            with self._lock:
                self._batches_applied += applied

    def _swap(self, name: str, graph, epoch: int, source=None) -> None:
        registry = self.service.registry
        if name in registry:
            self.service.swap_graph(name, graph, epoch=epoch, source=source)
        else:
            entry = registry.add_graph(name, graph, source=source)
            entry.epoch = int(epoch)

    def _local_log(self, name: str) -> DeltaLog:
        return DeltaLog(
            self.replica_dir / f"{name}{DELTA_LOG_SUFFIX}",
            fsync=self.service.fsync,
        )

    def _append_local(self, name: str, data: bytes) -> None:
        """Mirror the leader's frames verbatim (offsets stay comparable)."""
        log = self._local_log(name)
        with open(log.path, "ab") as fh:
            fh.write(data)
            fh.flush()
            if self.service.fsync:
                os.fsync(fh.fileno())

    def _latest_local_snapshot(self, name: str) -> tuple[int, Path] | None:
        pattern = re.compile(re.escape(name) + r"-epoch(\d+)\.gmsnap$")
        found = [
            (int(match.group(1)), path)
            for path in self.replica_dir.glob(f"{name}-epoch*.gmsnap")
            if (match := pattern.search(path.name)) is not None
        ]
        return max(found) if found else None

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def _http(self, path: str, *, timeout: float) -> tuple[int, dict, bytes]:
        request = urllib.request.Request(self.leader_url + path)
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as exc:
            # 4xx/5xx replies are protocol answers (409 = stale cursor),
            # not transport failures.  Closing the reply frees its socket.
            with exc:
                return exc.code, dict(exc.headers or {}), exc.read()

    def _note_contact(self, name: str, headers: dict) -> None:
        self._last_contact = time.time()
        epoch = headers.get("X-Repro-Epoch")
        if epoch is not None:
            self._leader_epoch[name] = int(epoch)
