"""repro.serve: registry, cache, scheduler policy, service correctness.

The serving layer's contract is that batching and caching are invisible:
every response is bitwise identical to a sequential run of the same
query.  Scheduler policy (full-batch fast path, timeout partial batches,
queue-full shedding, never co-batching different groups) is tested
against a stub executor with controllable timing; the service tests then
drive the real engine end to end.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.algorithms.adapters import QUERY_ADAPTERS, get_adapter
from repro.algorithms.bfs import run_bfs
from repro.algorithms.pagerank import run_personalized_pagerank
from repro.algorithms.sssp import run_sssp
from repro.core.options import EngineOptions
from repro.errors import (
    BadQueryError,
    DeadlineExceededError,
    QuotaExceededError,
    ServeError,
    ServiceOverloadedError,
    UnknownGraphError,
)
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import symmetrize, with_random_weights
from repro.serve import (
    BatchPolicy,
    GraphRegistry,
    GraphService,
    MicroBatcher,
    ResultCache,
    Ticket,
)
from repro.serve import cache as cache_module
from repro.serve import service as service_module
from repro.store.snapshot import save_snapshot

class _EngineClock:
    """A scripted monotonic clock: still until :meth:`starts`' wrapped
    engine call begins, then 1 ms later at every read (the engine reads
    a lane's deadline token once per superstep)."""

    def __init__(self) -> None:
        self.now = 0.0
        self.running = False

    def __call__(self) -> float:
        if self.running:
            self.now += 1e-3
        return self.now

    def starts(self, engine):
        def run(*args, **kwargs):
            self.running = True
            return engine(*args, **kwargs)

        return run


# Generous dispatch window for tests asserting coalescing (the batch
# must form while we enqueue), tiny one for tests asserting timeouts.
LONG_WAIT_MS = 2_000.0
SHORT_WAIT_MS = 20.0


@pytest.fixture(scope="module")
def rmat():
    return with_random_weights(rmat_graph(scale=8, edge_factor=8, seed=5), seed=6)


@pytest.fixture(scope="module")
def rmat_sym(rmat):
    return symmetrize(rmat)


@pytest.fixture()
def registry(rmat, rmat_sym):
    registry = GraphRegistry()
    registry.add_graph("dir", rmat)
    registry.add_graph("sym", rmat_sym)
    return registry


# ----------------------------------------------------------------------
# GraphRegistry
# ----------------------------------------------------------------------
class TestGraphRegistry:
    def test_snapshot_graphs_are_mmap_backed(self, tmp_path, rmat_sym):
        path = tmp_path / "g.gmsnap"
        save_snapshot(rmat_sym, path)
        registry = GraphRegistry()
        entry = registry.add_snapshot("social", path)
        assert entry.graph.snapshot_path is not None
        assert entry.graph.n_edges == rmat_sym.n_edges
        assert registry.get("social") is entry.graph
        assert "social" in registry and len(registry) == 1
        description = registry.describe()[0]
        assert description["name"] == "social"
        assert description["mmap"] is True
        json.dumps(registry.describe())

    def test_unknown_and_duplicate_names(self, registry, rmat):
        with pytest.raises(UnknownGraphError):
            registry.get("missing")
        with pytest.raises(ServeError):
            registry.add_graph("dir", rmat)
        registry.remove("dir")
        assert "dir" not in registry
        with pytest.raises(UnknownGraphError):
            registry.remove("dir")


# ----------------------------------------------------------------------
# ResultCache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now least-recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_ttl_expiry_with_fake_clock(self):
        now = [0.0]
        cache = ResultCache(capacity=8, ttl_seconds=10.0, clock=lambda: now[0])
        cache.put("k", "v")
        now[0] = 9.0
        assert cache.get("k") == "v"
        now[0] = 21.0
        assert cache.get("k") is None
        assert cache.stats()["expirations"] == 1

    def test_bytes_bound_evicts_least_recent(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_BYTES", 3 * 800)
        cache = ResultCache(capacity=8)
        for key in "abc":
            cache.put(key, np.zeros(100))  # 800 bytes each: at the bound
        assert cache.get("a") is not None  # refresh a; b is least recent
        cache.put("d", np.zeros(100))
        assert cache.get("b") is None
        assert all(cache.get(key) is not None for key in "acd")
        cache.put("a", np.zeros(300))  # a replaced, grown: c, d must go
        assert [key for key in "abcd" if cache.get(key) is not None] == ["a"]
        cache.put("huge", np.zeros(301))  # over the bound on its own
        assert cache.get("huge") is None and cache.get("a") is None
        assert len(cache) == 0 and cache.stats()["evictions"] == 5

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("k", "v")
        assert cache.get("k") is None
        assert len(cache) == 0 and not cache.enabled

    def test_stats_are_json_ready(self):
        cache = ResultCache(capacity=2)
        cache.get("miss")
        cache.put("k", 1)
        cache.get("k")
        stats = json.loads(json.dumps(cache.stats()))
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5


# ----------------------------------------------------------------------
# MicroBatcher policy (stub executor — no engine involved)
# ----------------------------------------------------------------------
class _StubExecutor:
    """Records batches; resolves every ticket with its group + batch size."""

    def __init__(self, block: threading.Event | None = None):
        self.batches: list[tuple[object, int]] = []
        self._block = block
        self._lock = threading.Lock()

    def __call__(self, group, tickets):
        if self._block is not None:
            self._block.wait(timeout=30)
        with self._lock:
            self.batches.append((group, len(tickets)))
        for ticket in tickets:
            ticket.future.set_result((group, len(tickets)))


class TestMicroBatcher:
    def test_full_batch_fast_path(self):
        executor = _StubExecutor()
        with MicroBatcher(
            executor, BatchPolicy(max_batch_k=4, max_wait_ms=LONG_WAIT_MS)
        ) as batcher:
            t0 = time.perf_counter()
            futures = [
                batcher.submit(Ticket(group="g", payload=i)) for i in range(4)
            ]
            results = [f.result(timeout=10) for f in futures]
            elapsed = time.perf_counter() - t0
        # Dispatched on reaching K, long before the 2 s window.
        assert elapsed < 1.0
        assert results == [("g", 4)] * 4
        stats = batcher.stats()
        assert stats["dispatches"] == 1
        assert stats["full_dispatches"] == 1
        assert stats["timeout_dispatches"] == 0
        assert stats["mean_batch_k"] == 4.0

    def test_timeout_dispatches_partial_batch(self):
        executor = _StubExecutor()
        with MicroBatcher(
            executor, BatchPolicy(max_batch_k=8, max_wait_ms=SHORT_WAIT_MS)
        ) as batcher:
            futures = [
                batcher.submit(Ticket(group="g", payload=i)) for i in range(3)
            ]
            results = [f.result(timeout=10) for f in futures]
        assert results == [("g", 3)] * 3
        stats = batcher.stats()
        assert stats["dispatches"] == 1
        assert stats["timeout_dispatches"] == 1
        assert stats["full_dispatches"] == 0

    def test_single_request_dispatches_as_k1(self):
        executor = _StubExecutor()
        with MicroBatcher(
            executor, BatchPolicy(max_batch_k=8, max_wait_ms=SHORT_WAIT_MS)
        ) as batcher:
            future = batcher.submit(Ticket(group="g", payload=0))
            assert future.result(timeout=10) == ("g", 1)

    def test_different_groups_never_co_batched(self):
        executor = _StubExecutor()
        with MicroBatcher(
            executor, BatchPolicy(max_batch_k=8, max_wait_ms=SHORT_WAIT_MS)
        ) as batcher:
            futures = [
                batcher.submit(Ticket(group=("g", kind), payload=i))
                for i in range(6)
                for kind in ("bfs", "ppr")
            ]
            for future in futures:
                future.result(timeout=10)
        # Two homogeneous batches — groups were queued simultaneously
        # but never mixed into one dispatch.
        assert sorted(executor.batches) == [(("g", "bfs"), 6), (("g", "ppr"), 6)]

    def test_queue_full_sheds(self):
        gate = threading.Event()
        executor = _StubExecutor(block=gate)
        batcher = MicroBatcher(
            executor, BatchPolicy(max_batch_k=1, max_wait_ms=0.0, max_queue=2)
        )
        try:
            # First ticket dispatches immediately and blocks the
            # dispatcher on the gate; two more fill the queue.
            first = batcher.submit(Ticket(group="g", payload=0))
            deadline = time.time() + 10
            while batcher.pending and time.time() < deadline:
                time.sleep(0.001)  # wait for the dispatcher to take it
            queued = [
                batcher.submit(Ticket(group="g", payload=i)) for i in (1, 2)
            ]
            with pytest.raises(ServiceOverloadedError):
                batcher.submit(Ticket(group="g", payload=3))
            assert batcher.stats()["shed"] == 1
            gate.set()
            assert first.result(timeout=10) == ("g", 1)
            for future in queued:
                assert future.result(timeout=10) == ("g", 1)
        finally:
            gate.set()
            batcher.close()

    def test_oversize_burst_splits_into_max_k_batches(self):
        executor = _StubExecutor()
        with MicroBatcher(
            executor, BatchPolicy(max_batch_k=4, max_wait_ms=SHORT_WAIT_MS)
        ) as batcher:
            futures = [
                batcher.submit(Ticket(group="g", payload=i)) for i in range(10)
            ]
            sizes = sorted(f.result(timeout=10)[1] for f in futures)
        assert max(sizes) <= 4
        assert sum(size for _, size in executor.batches) == 10

    def test_overdue_group_beats_saturated_full_queues(self):
        """A timed-out lone request dispatches before a hot group's full
        queues: full-batch priority must not starve the dispatch-window
        contract of colder groups."""
        gate = threading.Event()

        class _GatedExecutor(_StubExecutor):
            def __call__(self, group, tickets):
                released = gate.wait(timeout=30)
                assert released
                _StubExecutor.__call__(self, group, tickets)

        executor = _GatedExecutor()
        with MicroBatcher(
            executor, BatchPolicy(max_batch_k=2, max_wait_ms=30.0)
        ) as batcher:
            # Two gate tickets = a full batch, dispatched immediately;
            # the executor then blocks the dispatcher on the gate.
            pending = [
                batcher.submit(Ticket(group="gate", payload=i))
                for i in range(2)
            ]
            deadline = time.time() + 10
            while batcher.pending and time.time() < deadline:
                time.sleep(0.001)
            # While blocked: one lone request, then (past its window)
            # enough hot tickets for two full batches.
            pending.append(batcher.submit(Ticket(group="lone", payload=0)))
            time.sleep(0.06)  # lone is now past max_wait_ms
            pending += [
                batcher.submit(Ticket(group="hot", payload=i))
                for i in range(4)
            ]
            gate.set()
            for future in pending:
                future.result(timeout=10)
        groups = [group for group, _ in executor.batches]
        assert groups[0] == "gate"
        assert groups[1] == "lone", (
            f"overdue lone request starved by full hot queues: {groups}"
        )
        assert groups[2:] == ["hot", "hot"]

    def test_executor_failure_propagates_to_all_lanes(self):
        def boom(group, tickets):
            raise RuntimeError("engine exploded")

        with MicroBatcher(
            boom, BatchPolicy(max_batch_k=4, max_wait_ms=SHORT_WAIT_MS)
        ) as batcher:
            futures = [
                batcher.submit(Ticket(group="g", payload=i)) for i in range(4)
            ]
            for future in futures:
                with pytest.raises(RuntimeError, match="engine exploded"):
                    future.result(timeout=10)

    def test_close_drains_queued_tickets(self):
        executor = _StubExecutor()
        batcher = MicroBatcher(
            executor, BatchPolicy(max_batch_k=8, max_wait_ms=LONG_WAIT_MS)
        )
        futures = [
            batcher.submit(Ticket(group="g", payload=i)) for i in range(3)
        ]
        batcher.close()  # drains instead of waiting out the 2 s window
        assert [f.result(timeout=0)[1] for f in futures] == [3, 3, 3]
        with pytest.raises(ServeError):
            batcher.submit(Ticket(group="g", payload=9))

    def test_policy_validation(self):
        with pytest.raises(ServeError):
            BatchPolicy(max_batch_k=0)
        with pytest.raises(ServeError):
            BatchPolicy(max_wait_ms=-1)
        with pytest.raises(ServeError):
            BatchPolicy(max_queue=0)


# ----------------------------------------------------------------------
# Query adapters
# ----------------------------------------------------------------------
class TestAdapters:
    def test_known_kinds(self):
        assert set(QUERY_ADAPTERS) == {"bfs", "sssp", "ppr"}
        with pytest.raises(BadQueryError):
            get_adapter("pagerank-classic")

    def test_canonicalization_validates(self, rmat):
        bfs = get_adapter("bfs")
        assert bfs.canonicalize(rmat, {"root": "3"}) == {"root": 3}
        with pytest.raises(BadQueryError):
            bfs.canonicalize(rmat, {})
        with pytest.raises(BadQueryError):
            bfs.canonicalize(rmat, {"root": rmat.n_vertices})
        with pytest.raises(BadQueryError):
            bfs.canonicalize(rmat, {"root": 0, "depth": 3})

    def test_ppr_defaults_and_batch_key(self, rmat):
        ppr = get_adapter("ppr")
        canonical = ppr.canonicalize(rmat, {"source": 1})
        assert canonical == {"source": 1, "r": 0.15, "iterations": 30}
        other = ppr.canonicalize(rmat, {"source": 2, "r": 0.5})
        # Shared-sweep parameters differ -> may never share a batch.
        assert ppr.batch_key(canonical) != ppr.batch_key(other)
        assert ppr.batch_key(canonical) == ppr.batch_key(
            ppr.canonicalize(rmat, {"source": 9})
        )
        with pytest.raises(BadQueryError):
            ppr.canonicalize(rmat, {"source": 1, "r": 1.5})
        with pytest.raises(BadQueryError):
            ppr.canonicalize(rmat, {"source": 1, "iterations": 0})


# ----------------------------------------------------------------------
# GraphService end to end (real engine)
# ----------------------------------------------------------------------
def _service(registry, **kwargs):
    kwargs.setdefault(
        "policy", BatchPolicy(max_batch_k=8, max_wait_ms=SHORT_WAIT_MS)
    )
    return GraphService(registry, **kwargs)


class TestGraphService:
    def test_concurrent_queries_batch_and_match_sequential(
        self, registry, rmat_sym
    ):
        roots = [int(v) for v in np.argsort(rmat_sym.out_degrees())[-8:]]
        with _service(registry) as service, ThreadPoolExecutor(8) as pool:
            results = list(
                pool.map(
                    lambda r: service.query("sym", "bfs", {"root": r}), roots
                )
            )
            stats = service.stats()
        for root, result in zip(roots, results):
            assert np.array_equal(result.values, run_bfs(rmat_sym, root).distances)
            assert not result.cached
            assert result.batch_k >= 1
        # Concurrent same-kind queries actually coalesced.
        assert stats["scheduler"]["mean_batch_k"] > 1.0
        assert stats["queries"] == len(roots)

    def test_each_kind_matches_its_sequential_reference(
        self, registry, rmat, rmat_sym
    ):
        with _service(registry) as service:
            bfs = service.query("sym", "bfs", {"root": 3})
            sssp = service.query("sym", "sssp", {"source": 3})
            ppr = service.query(
                "dir", "ppr", {"source": 3, "iterations": 5}
            )
        assert np.array_equal(bfs.values, run_bfs(rmat_sym, 3).distances)
        assert np.array_equal(sssp.values, run_sssp(rmat_sym, 3).distances)
        assert np.array_equal(
            ppr.values,
            run_personalized_pagerank(rmat, 3, max_iterations=5).ranks,
        )

    def test_cache_hit_short_circuits_engine(self, registry):
        with _service(registry) as service:
            first = service.query("sym", "bfs", {"root": 5})
            dispatches = service.stats()["scheduler"]["dispatches"]
            second = service.query("sym", "bfs", {"root": 5})
            assert service.stats()["scheduler"]["dispatches"] == dispatches
        assert not first.cached and second.cached
        assert second.batch_k == 0 and second.engine == {}
        assert np.array_equal(first.values, second.values)
        # Parameter canonicalization makes spelling-variant repeats hit.
        with _service(registry) as service:
            service.query("dir", "ppr", {"source": 2})
            repeat = service.query(
                "dir", "ppr", {"source": "2", "r": 0.15, "iterations": 30}
            )
        assert repeat.cached

    def test_identical_in_flight_queries_share_one_lane(
        self, registry, rmat_sym
    ):
        """N concurrent requests for the same query dedupe onto one
        engine lane (the hot-root pattern before the cache is warm)."""
        policy = BatchPolicy(max_batch_k=4, max_wait_ms=LONG_WAIT_MS)
        with GraphService(registry, policy=policy) as service:
            with ThreadPoolExecutor(4) as pool:
                results = list(
                    pool.map(
                        lambda _: service.query("sym", "bfs", {"root": 9}),
                        range(4),
                    )
                )
            stats = service.stats()["scheduler"]
        expected = run_bfs(rmat_sym, 9).distances
        for result in results:
            assert np.array_equal(result.values, expected)
            # batch_k reports engine lanes: one, shared by all four.
            assert result.batch_k == 1
        assert stats["lanes_dispatched"] == 4  # tickets, pre-dedup
        assert stats["dispatches"] == 1

    def test_mixed_kinds_in_flight_are_all_correct(self, registry, rmat_sym):
        queries = [("bfs", {"root": v}) for v in (1, 2, 3, 4)]
        queries += [("sssp", {"source": v}) for v in (1, 2, 3, 4)]
        with _service(registry) as service, ThreadPoolExecutor(8) as pool:
            results = list(
                pool.map(lambda q: service.query("sym", q[0], q[1]), queries)
            )
            stats = service.stats()
        for (kind, params), result in zip(queries, results):
            if kind == "bfs":
                expected = run_bfs(rmat_sym, params["root"]).distances
            else:
                expected = run_sssp(rmat_sym, params["source"]).distances
            assert np.array_equal(result.values, expected)
        # bfs and sssp can never share a dispatch.
        assert stats["scheduler"]["dispatches"] >= 2

    def test_queue_full_sheds_with_service_error(self, registry):
        policy = BatchPolicy(max_batch_k=1, max_wait_ms=0.0, max_queue=1)
        with GraphService(registry, policy=policy) as service:
            with ThreadPoolExecutor(8) as pool:
                futures = [
                    pool.submit(service.query, "sym", "bfs", {"root": v})
                    for v in range(8)
                ]
                outcomes = []
                for future in futures:
                    try:
                        outcomes.append(future.result(timeout=30))
                    except ServiceOverloadedError:
                        outcomes.append(None)
            shed = sum(1 for o in outcomes if o is None)
            assert service.stats()["scheduler"]["shed"] == shed
            # Admitted queries all resolved correctly despite the churn.
            assert any(o is not None for o in outcomes)

    def test_bad_requests_rejected_before_the_queue(self, registry):
        with _service(registry) as service:
            with pytest.raises(UnknownGraphError):
                service.query("nope", "bfs", {"root": 0})
            with pytest.raises(BadQueryError):
                service.query("sym", "nope", {})
            with pytest.raises(BadQueryError):
                service.query("sym", "bfs", {"root": -1})
            assert service.stats()["scheduler"]["submitted"] == 0

    def test_stats_json_serializable(self, registry):
        with _service(registry) as service:
            service.query("sym", "bfs", {"root": 0})
            document = json.loads(json.dumps(service.stats()))
        assert document["queries"] == 1
        assert document["queries_by_kind"] == {"bfs": 1}
        assert document["scheduler"]["lanes_dispatched"] == 1
        assert document["cache"]["misses"] == 1
        assert {g["name"]: g["blocks"] for g in document["graphs"]} == {
            "dir": 1,
            "sym": 1,
        }

    def test_stats_report_each_graphs_block_count(self, registry):
        """``/stats`` reports the block count the engine sweeps for each
        hosted graph: one per worker under ``threaded``."""
        options = EngineOptions(backend="threaded", n_workers=2)
        with _service(registry, options=options) as service:
            graphs = service.stats()["graphs"]
        assert [g["blocks"] for g in graphs] == [2, 2]

    def test_result_top_and_vertices_views(self, registry, rmat_sym):
        with _service(registry) as service:
            result = service.query("sym", "bfs", {"root": 0})
        top = result.to_dict(top=5, order="min")["top"]
        assert top[0] == [0, 0.0]
        assert all(a[1] <= b[1] for a, b in zip(top, top[1:]))
        picked = result.to_dict(vertices=[0, 1])["values"]
        assert picked[0] == 0.0
        full = result.to_dict()
        assert len(full["values"]) == rmat_sym.n_vertices
        json.dumps(full)  # inf distances must serialize (as null)


# ----------------------------------------------------------------------
# Deadline governance: dispatch-time expiry + service admission
# ----------------------------------------------------------------------
class TestSchedulerDeadlines:
    def test_expired_ticket_fails_without_dispatch(self):
        executor = _StubExecutor()
        with MicroBatcher(
            executor, BatchPolicy(max_batch_k=4, max_wait_ms=0.0)
        ) as batcher:
            dead = Ticket(
                group="g", payload=0, deadline_at=time.monotonic() - 1.0
            )
            future = batcher.submit(dead)
            with pytest.raises(DeadlineExceededError, match="while queued"):
                future.result(timeout=10)
        assert executor.batches == []  # no engine lane was spent
        stats = batcher.stats()
        assert stats["expired"] == 1
        assert stats["dispatches"] == 0

    def test_mixed_batch_drops_only_the_expired(self):
        executor = _StubExecutor()
        with MicroBatcher(
            executor, BatchPolicy(max_batch_k=2, max_wait_ms=LONG_WAIT_MS)
        ) as batcher:
            live = Ticket(
                group="g", payload=0, deadline_at=time.monotonic() + 60.0
            )
            dead = Ticket(
                group="g", payload=1, deadline_at=time.monotonic() - 1.0
            )
            live_future = batcher.submit(live)
            dead_future = batcher.submit(dead)  # fills the K=2 batch
            assert live_future.result(timeout=10) == ("g", 1)
            with pytest.raises(DeadlineExceededError):
                dead_future.result(timeout=10)
        stats = batcher.stats()
        assert stats["expired"] == 1
        assert stats["dispatches"] == 1
        assert stats["lanes_dispatched"] == 1  # the dead lane not counted

    def test_expired_crash_point_still_resolves_futures(self):
        """The ``raise`` action at serve.dispatch.expired must neither
        strand the expired callers nor kill the dispatcher."""
        from repro import faults
        from repro.faults import InjectedFault

        executor = _StubExecutor()
        faults.activate("serve.dispatch.expired=raise")
        try:
            with MicroBatcher(
                executor, BatchPolicy(max_batch_k=4, max_wait_ms=0.0)
            ) as batcher:
                dead = Ticket(
                    group="g", payload=0, deadline_at=time.monotonic() - 1.0
                )
                future = batcher.submit(dead)
                with pytest.raises(InjectedFault):
                    future.result(timeout=10)
                # The dispatcher survived: later traffic still flows.
                after = batcher.submit(Ticket(group="g", payload=1))
                assert after.result(timeout=10) == ("g", 1)
        finally:
            faults.deactivate()

    def test_overdue_group_wins_under_sustained_full_queues(self):
        """The hot group's queue is refilled to full before *every*
        dispatch decision, so the full-batch fast path is available at
        each step — the lone overdue request must still dispatch next
        rather than whenever the hot stream pauses."""
        step = threading.Semaphore(0)

        class _SteppedExecutor(_StubExecutor):
            def __call__(self, group, tickets):
                assert step.acquire(timeout=30)
                _StubExecutor.__call__(self, group, tickets)

        executor = _SteppedExecutor()
        pending = []
        batcher = MicroBatcher(
            executor, BatchPolicy(max_batch_k=2, max_wait_ms=30.0)
        )

        def _wait_batches(count):
            deadline = time.time() + 10
            while len(executor.batches) < count and time.time() < deadline:
                time.sleep(0.001)
            assert len(executor.batches) >= count

        try:
            # A full hot batch dispatches immediately and parks the
            # dispatcher on the semaphore.
            pending += [
                batcher.submit(Ticket(group="hot", payload=i))
                for i in range(2)
            ]
            deadline = time.time() + 10
            while batcher.pending and time.time() < deadline:
                time.sleep(0.001)
            pending.append(batcher.submit(Ticket(group="lone", payload=0)))
            time.sleep(0.06)  # lone is now past its 30 ms window
            # Sustained pressure: refill hot to a full, *young* queue
            # before releasing each dispatch decision.
            for round_number in range(3):
                pending += [
                    batcher.submit(
                        Ticket(group="hot", payload=(round_number, i))
                    )
                    for i in range(2)
                ]
                # Each release lets the currently-parked batch finish;
                # the dispatcher then makes its next decision with the
                # hot queue freshly full.
                step.release()
                _wait_batches(round_number + 1)
            for _ in range(4):  # drain whatever is left
                step.release()
            for future in pending:
                future.result(timeout=10)
        finally:
            for _ in range(8):
                step.release()
            batcher.close()
        groups = [group for group, _ in executor.batches]
        assert groups[0] == "hot"
        assert groups[1] == "lone", (
            f"overdue lone request starved by sustained full queues: {groups}"
        )


class TestSLODispatchOrdering:
    """Among several overdue groups the tightest deadline dispatches
    first; deadline-free groups keep the longest-waiting-first aging
    order.  White-box through ``_take_batch_locked`` with a fake clock:
    tickets are queued without notifying the (asleep) dispatcher, so the
    dispatch decisions under test are taken synchronously and can't race
    the real dispatcher thread."""

    def _queue(self, batcher, group, *, enqueued_at, deadline_at=None):
        ticket = Ticket(
            group=group,
            payload=0,
            enqueued_at=enqueued_at,
            deadline_at=deadline_at,
        )
        with batcher._cond:
            batcher._queues.setdefault(group, []).append(ticket)
            batcher._pending += 1
        return ticket

    def test_overdue_groups_dispatch_earliest_deadline_first(self):
        now = [1000.0]
        batcher = MicroBatcher(
            _StubExecutor(),
            BatchPolicy(max_batch_k=4, max_wait_ms=1.0),
            clock=lambda: now[0],
        )
        try:
            # All three overdue (the window is 1 ms); "lax" has waited
            # by far the longest but carries no deadline, so both
            # deadline-carrying groups outrank it — tightest first.
            self._queue(batcher, "lax", enqueued_at=0.0)
            self._queue(
                batcher, "loose", enqueued_at=999.0, deadline_at=2000.0
            )
            self._queue(
                batcher, "tight", enqueued_at=999.0, deadline_at=1005.0
            )
            order = []
            with batcher._cond:
                for _ in range(3):
                    group, tickets, _full = batcher._take_batch_locked()
                    order.append(group)
                    assert len(tickets) == 1
            assert order == ["tight", "loose", "lax"]
            # Only the deadline-ranked picks count as SLO dispatches.
            assert batcher._stats.slo_dispatches == 2
        finally:
            batcher.close(drain=False)

    def test_no_deadline_groups_keep_longest_wait_order(self):
        now = [1000.0]
        batcher = MicroBatcher(
            _StubExecutor(),
            BatchPolicy(max_batch_k=4, max_wait_ms=1.0),
            clock=lambda: now[0],
        )
        try:
            self._queue(batcher, "young", enqueued_at=999.0)
            self._queue(batcher, "old", enqueued_at=0.0)
            order = []
            with batcher._cond:
                for _ in range(2):
                    group, _tickets, _full = batcher._take_batch_locked()
                    order.append(group)
            assert order == ["old", "young"]
            assert batcher._stats.slo_dispatches == 0
            assert batcher.stats()["slo_dispatches"] == 0
        finally:
            batcher.close(drain=False)

    def test_earliest_deadline_within_next_batch_ranks_the_group(self):
        """The rank key reads only the tickets the next batch would
        take (``queue[:k]``): a tight deadline buried beyond the batch
        boundary must not jump its group ahead."""
        now = [1000.0]
        batcher = MicroBatcher(
            _StubExecutor(),
            BatchPolicy(max_batch_k=2, max_wait_ms=1.0),
            clock=lambda: now[0],
        )
        try:
            # Group "a": next batch (2 tickets) deadlines 1500, 1600;
            # a much tighter 1001 sits third, outside the K=2 window.
            self._queue(batcher, "a", enqueued_at=990.0, deadline_at=1500.0)
            self._queue(batcher, "a", enqueued_at=991.0, deadline_at=1600.0)
            self._queue(batcher, "a", enqueued_at=992.0, deadline_at=1001.0)
            self._queue(batcher, "b", enqueued_at=995.0, deadline_at=1400.0)
            with batcher._cond:
                group, _tickets, _full = batcher._take_batch_locked()
            assert group == "b"
        finally:
            batcher.close(drain=False)


class TestServiceGovernance:
    def test_infeasible_deadline_refused_at_admission(self, registry):
        policy = BatchPolicy(max_batch_k=8, max_wait_ms=LONG_WAIT_MS)
        with GraphService(registry, policy=policy) as service:
            # Pretend history: batches take ~10 s each.
            with service._lock:
                service._batch_seconds_ewma = 10.0
            with ThreadPoolExecutor(1) as pool:
                queued = pool.submit(
                    service.query, "sym", "bfs", {"root": 1}
                )
                deadline = time.time() + 10
                while not service._batcher.pending and time.time() < deadline:
                    time.sleep(0.001)
                with pytest.raises(
                    DeadlineExceededError, match="refused at admission"
                ):
                    service.query("sym", "bfs", {"root": 2}, deadline=0.5)
                governance = service.stats()["governance"]
                assert governance["deadline_refused"] == 1
                assert queued.result(timeout=30) is not None

    def test_runaway_lane_cancelled_with_run_stats(
        self, registry, rmat, monkeypatch
    ):
        # The deadline bites in the engine, never in the queue: the
        # service and its scheduler read a clock that stands still
        # until the batch reaches the engine.
        clock = _EngineClock()
        monkeypatch.setattr(
            service_module,
            "run_graph_programs_batched",
            clock.starts(service_module.run_graph_programs_batched),
        )
        policy = BatchPolicy(max_batch_k=1, max_wait_ms=0.0)
        with GraphService(registry, policy=policy) as service:
            service._clock = service._batcher._clock = clock
            with pytest.raises(
                DeadlineExceededError, match="query cancelled after"
            ) as excinfo:
                service.query(
                    "dir", "ppr",
                    {"source": 0, "iterations": 1000},
                    deadline=0.005,
                )
            stats = excinfo.value.run_stats
            assert stats is not None and stats.cancelled
            assert "deadline exceeded" in stats.cancel_reason
            assert 0 < stats.n_supersteps < 1000
            governance = service.stats()["governance"]
            assert governance["cancelled_lanes"] == 1
            # A truncated run is not the query's answer: nothing cached.
            assert service.stats()["cache"]["entries"] == 0

    def test_dedup_lane_runs_to_the_most_patient_twin(
        self, registry, rmat
    ):
        """Identical queries share a lane; a no-deadline twin means the
        lane must NOT be cancelled by its impatient sibling."""
        policy = BatchPolicy(max_batch_k=2, max_wait_ms=LONG_WAIT_MS)
        params = {"source": 5, "iterations": 40}
        with GraphService(registry, policy=policy) as service:
            with ThreadPoolExecutor(2) as pool:
                impatient = pool.submit(
                    service.query, "dir", "ppr", dict(params),
                    deadline=30.0,
                )
                patient = pool.submit(
                    service.query, "dir", "ppr", dict(params)
                )
                results = [impatient.result(30), patient.result(30)]
        expected = run_personalized_pagerank(
            rmat, 5, max_iterations=40
        ).ranks
        for result in results:
            assert np.array_equal(result.values, expected)

    def test_quota_governs_admission_not_validation(self, registry):
        from repro.serve.quota import QuotaManager, TenantPolicy

        quota = QuotaManager(default=TenantPolicy(rate=1.0, burst=1))
        with _service(registry, quota=quota) as service:
            # Malformed requests are rejected before quota: no token burnt.
            with pytest.raises(BadQueryError):
                service.query("sym", "bfs", {"root": -1}, tenant="a")
            service.query("sym", "bfs", {"root": 1}, tenant="a")
            with pytest.raises(QuotaExceededError) as excinfo:
                service.query("sym", "bfs", {"root": 2}, tenant="a")
            assert excinfo.value.retry_after > 0
            # Another tenant is untouched by a's exhaustion.
            service.query("sym", "bfs", {"root": 3}, tenant="b")
            tenants = service.stats()["governance"]["quota"]["tenants"]
            assert tenants["a"]["admitted"] == 1
            assert tenants["a"]["rejected_rate"] == 1
            assert tenants["a"]["in_flight"] == 0  # released after answer
            assert tenants["b"]["admitted"] == 1

    def test_default_deadline_applies_when_request_names_none(
        self, registry
    ):
        with _service(registry, default_deadline=1e-9) as service:
            # Every undeadlined request inherits the (hopeless) default.
            with pytest.raises(DeadlineExceededError):
                service.query("sym", "bfs", {"root": 0})
            # An explicit deadline overrides it.
            result = service.query("sym", "bfs", {"root": 0}, deadline=30.0)
            assert result.values is not None

    def test_bad_deadline_rejected(self, registry):
        with _service(registry) as service:
            with pytest.raises(BadQueryError, match="deadline"):
                service.query("sym", "bfs", {"root": 0}, deadline=0)
            with pytest.raises(BadQueryError, match="deadline"):
                service.query("sym", "bfs", {"root": 0}, deadline="soon")

    def test_governance_stats_shape(self, registry):
        with _service(registry) as service:
            governance = json.loads(json.dumps(service.stats()))["governance"]
        assert governance["quota"] is None
        assert governance["cancelled_lanes"] == 0
        assert governance["deadline_refused"] == 0
        assert governance["batch_seconds_ewma"] == 0.0
