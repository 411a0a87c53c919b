"""Thread-safe LRU (+ optional TTL) result cache for the query service.

Repeated queries — hot BFS roots, popular personalization vertices —
are the common case of a service under heavy traffic; a served result is
deterministic given (graph content, program, canonical parameters), so
the service caches final result vectors and answers repeats without
touching the engine at all.

Keys are built by :class:`repro.serve.service.GraphService` from the
graph's name, its registry install serial (a fresh one for every
add, swap or re-registration), the query kind and the canonicalized
parameters, so a re-registered or swapped graph can never serve a stale
entry; when a graph is swapped the service drops the entries of its
earlier install serials (:meth:`ResultCache.evict_where`), which nothing
can match any more.
Values are treated as immutable by convention (the service hands out
the cached array; callers must not mutate it).

``capacity <= 0`` disables caching entirely (every ``get`` misses, no
entry is stored); ``ttl_seconds = None`` disables expiry.  Whatever the
capacity, the cached values' ``nbytes`` never exceed :data:`MAX_BYTES`.
The clock is injectable for deterministic TTL tests.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

#: Bytes of cached values (their ``nbytes``) one cache holds at most.
#: Entries are full result vectors, ``8 * n_vertices`` bytes each, so an
#: entry bound alone lets a server's memory grow with the graph and with
#: its throughput: 1,024 answers on a 1 M-vertex graph pin 8 GB.  64 MiB
#: keeps 256 answers of a 32,768-vertex graph and 8 of a 1 M-vertex one.
MAX_BYTES = 64 << 20


@dataclass
class CacheStats:
    """Counters since construction (monotone; read via ``to_dict``)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0

    def to_dict(self) -> dict:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


class ResultCache:
    """LRU mapping bounded by entries and by bytes, with optional
    per-entry time-to-live."""

    def __init__(
        self,
        capacity: int = 1024,
        ttl_seconds: float | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(
                f"ttl_seconds must be positive or None, got {ttl_seconds}"
            )
        self.capacity = int(capacity)
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> (value, stored_at, nbytes); insertion order is recency
        #: order.
        self._entries: OrderedDict[Hashable, tuple[Any, float, int]] = (
            OrderedDict()
        )
        #: Sum of the entries' nbytes.
        self._bytes = 0
        self._stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def get(self, key: Hashable):
        """The cached value, or None on miss/expiry (counts either way)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                value, stored_at, size = entry
                if (
                    self.ttl_seconds is not None
                    and self._clock() - stored_at > self.ttl_seconds
                ):
                    del self._entries[key]
                    self._bytes -= size
                    self._stats.expirations += 1
                else:
                    self._entries.move_to_end(key)
                    self._stats.hits += 1
                    return value
            self._stats.misses += 1
            return None

    def put(self, key: Hashable, value) -> None:
        """Store ``value`` as the most recent entry, evicting the least
        recent ones past either bound (a value over :data:`MAX_BYTES`
        is not kept)."""
        if not self.enabled:
            return
        size = int(getattr(value, "nbytes", 0))
        with self._lock:
            replaced = self._entries.pop(key, None)
            if replaced is not None:
                self._bytes -= replaced[2]
            self._entries[key] = (value, self._clock(), size)
            self._bytes += size
            while (
                len(self._entries) > self.capacity or self._bytes > MAX_BYTES
            ):
                _, (_, _, evicted) = self._entries.popitem(last=False)
                self._bytes -= evicted
                self._stats.evictions += 1

    def evict_where(self, unreachable: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key ``unreachable`` accepts.

        For entries no lookup can match any more (a swapped-out graph
        object): left alone they stay pinned until ``capacity`` newer
        ones push them out.  Counted as evictions; returns how many.
        """
        with self._lock:
            doomed = [key for key in self._entries if unreachable(key)]
            for key in doomed:
                self._bytes -= self._entries.pop(key)[2]
            self._stats.evictions += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> dict:
        """JSON-ready counters plus current occupancy."""
        with self._lock:
            summary = self._stats.to_dict()
            summary["entries"] = len(self._entries)
            summary["capacity"] = self.capacity
            summary["ttl_seconds"] = self.ttl_seconds
            return summary
