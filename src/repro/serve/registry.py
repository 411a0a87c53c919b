"""Named graphs hosted by the query service.

A serving process hosts a fixed set of graphs, each loaded once from a
``.gmsnap`` snapshot through the mmap zero-copy path
(:func:`repro.store.load_snapshot`): the snapshot's partitioned DCSC
views land pre-warmed in the Graph's view cache, so the first query pays
O(header) instead of O(edges), and every in-flight query of every
request thread reads the *same* file-backed blocks — the registry never
copies a graph per query.

Graphs may also be registered from memory (``add_graph``) for tests,
benchmarks and embedded use.  Registration is thread-safe; lookups are
lock-protected dictionary reads.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ServeError, UnknownGraphError
from repro.graph.graph import Graph
from repro.store.snapshot import load_snapshot


@dataclass
class GraphEntry:
    """One hosted graph plus its provenance.

    ``epoch`` counts applied mutation batches since registration (0 for
    a never-mutated graph); pins, ``/graphs`` and replication read it.
    ``serial`` is the install serial: the registry stamps every entry
    it installs (add or swap) with the next value of one registry-wide
    counter, so it names one graph object for the registry's lifetime.
    It versions the service's result-cache keys and batch groups —
    remove-then-add and a same-epoch swap both get a fresh serial,
    where the epoch would repeat.  Every admitted query is pinned to
    the entry it was admitted against (mutations swap the entry's graph
    object; they never mutate a graph in flight).
    """

    name: str
    graph: Graph
    #: Snapshot path for snapshot-backed graphs, None for in-memory ones.
    source: str | None = None
    loaded_at: float = field(default_factory=time.time)
    #: Wall seconds ``load_snapshot`` took (0.0 for in-memory graphs).
    load_seconds: float = 0.0
    #: Mutation batches applied since registration.
    epoch: int = 0
    #: Install serial, stamped by :class:`GraphRegistry` (0 = never
    #: installed).
    serial: int = 0

    def describe(self) -> dict:
        """JSON-ready summary for the ``/graphs`` endpoint."""
        return {
            "name": self.name,
            "n_vertices": int(self.graph.n_vertices),
            "n_edges": int(self.graph.n_edges),
            "source": self.source,
            "mmap": self.graph.snapshot_path is not None,
            "loaded_at": self.loaded_at,
            "load_seconds": self.load_seconds,
            "epoch": int(self.epoch),
            "delta_edges": int(getattr(self.graph, "delta_edges", 0)),
        }


class GraphRegistry:
    """Thread-safe name -> :class:`GraphEntry` mapping."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, GraphEntry] = {}
        self._serials = itertools.count(1)

    def add_snapshot(
        self,
        name: str,
        path: str | Path,
        *,
        mmap: bool = True,
        verify: bool = False,
    ) -> GraphEntry:
        """Host ``path``'s graph under ``name`` (mmap, zero edge copies)."""
        t0 = time.perf_counter()
        graph = load_snapshot(path, mmap=mmap, verify=verify)
        entry = GraphEntry(
            name=name,
            graph=graph,
            source=str(Path(path)),
            load_seconds=time.perf_counter() - t0,
        )
        return self._install(entry)

    def add_graph(
        self, name: str, graph: Graph, *, source: str | None = None
    ) -> GraphEntry:
        """Host an already-built in-memory graph under ``name``."""
        return self._install(GraphEntry(name=name, graph=graph, source=source))

    def _install(self, entry: GraphEntry) -> GraphEntry:
        if not entry.name:
            raise ServeError("graph name must be non-empty")
        with self._lock:
            if entry.name in self._entries:
                raise ServeError(
                    f"graph {entry.name!r} is already registered; "
                    f"remove it first to replace it"
                )
            entry.serial = next(self._serials)
            self._entries[entry.name] = entry
        return entry

    def swap(
        self,
        name: str,
        graph: Graph,
        *,
        epoch: int,
        source: str | None = None,
    ) -> GraphEntry:
        """Replace a hosted graph's object atomically (mutation commit).

        The old graph object is left untouched — queries already pinned
        to it run to completion on their epoch; new queries see the new
        entry.  ``source`` defaults to the old entry's.
        """
        with self._lock:
            old = self._entries.get(name)
            if old is None:
                raise UnknownGraphError(name)
            entry = GraphEntry(
                name=name,
                graph=graph,
                source=source if source is not None else old.source,
                loaded_at=old.loaded_at,
                load_seconds=old.load_seconds,
                epoch=int(epoch),
                serial=next(self._serials),
            )
            self._entries[name] = entry
        return entry

    def remove(self, name: str) -> None:
        with self._lock:
            if name not in self._entries:
                raise UnknownGraphError(name)
            del self._entries[name]

    def entry(self, name: str) -> GraphEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise UnknownGraphError(name)
        return entry

    def get(self, name: str) -> Graph:
        return self.entry(name).graph

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def describe(self) -> list[dict]:
        """JSON-ready summaries of every hosted graph, name-sorted."""
        with self._lock:
            entries = sorted(self._entries.values(), key=lambda e: e.name)
        return [entry.describe() for entry in entries]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
