"""Serving-layer mutations: epoch-versioned caching, delta logs,
compaction, epoch pinning, and the ``POST /graphs/{name}/edges`` endpoint."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.algorithms.bfs import run_bfs
from repro.dynamic import DeltaGraph
from repro.graph.generators.rmat import rmat_graph
from repro.graph.graph import Graph
from repro.graph.preprocess import symmetrize
from repro.serve import BatchPolicy, GraphRegistry, GraphService, make_server
from repro.store import DeltaLog, save_snapshot


@pytest.fixture()
def sym():
    return symmetrize(rmat_graph(scale=7, edge_factor=8, seed=5))


@pytest.fixture()
def service(sym):
    registry = GraphRegistry()
    registry.add_graph("g", sym)
    with GraphService(
        registry, policy=BatchPolicy(max_batch_k=4, max_wait_ms=5.0)
    ) as svc:
        yield svc


def _post(server, path, body):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


def unreached_vertex(values: np.ndarray) -> int:
    unreached = np.flatnonzero(~np.isfinite(values))
    assert unreached.size, "fixture graph should leave some vertex unreached"
    return int(unreached[0])


class TestServiceMutation:
    def test_mutation_bumps_epoch_and_updates_results(self, service, sym):
        first = service.query("g", "bfs", {"root": 0})
        target = unreached_vertex(first.values)
        summary = service.mutate(
            "g", inserts=([0, target], [target, 0])
        )
        assert summary["epoch"] == 1
        assert summary["inserted"] == 2
        entry = service.registry.entry("g")
        assert entry.epoch == 1
        assert isinstance(entry.graph, DeltaGraph)
        after = service.query("g", "bfs", {"root": 0})
        assert after.values[target] == 1.0
        # Bitwise identical to a from-scratch rebuild serving the query.
        coo = entry.graph.edges
        rebuilt = Graph.from_edges(
            sym.n_vertices, coo.rows.copy(), coo.cols.copy(),
            coo.vals.copy(), dedup=False,
        )
        assert np.array_equal(after.values, run_bfs(rebuilt, 0).distances)

    def test_mutation_invalidates_cached_results(self, service):
        """Satellite regression test: a cached pre-mutation response must
        never be served after the graph changes (epoch-versioned keys)."""
        first = service.query("g", "bfs", {"root": 0})
        assert service.query("g", "bfs", {"root": 0}).cached
        target = unreached_vertex(first.values)
        service.mutate("g", inserts=([0], [target]))
        after = service.query("g", "bfs", {"root": 0})
        assert not after.cached
        assert np.isfinite(after.values[target])
        assert not np.array_equal(after.values, first.values)
        # The new epoch's result caches under its own key.
        assert service.query("g", "bfs", {"root": 0}).cached

    def test_superseded_epochs_leave_the_cache(self, service, sym):
        """Regression: entries of an earlier epoch can never match
        again (the key carries the epoch) yet stayed pinned, one result
        vector each, until 1 024 newer ones pushed them out — occupancy
        grew with every mutate+query round."""
        roots = [int(v) for v in np.flatnonzero(sym.out_degrees())[:3]]
        occupancy = []
        for round_ in range(20):
            service.mutate("g", inserts=([roots[0]], [round_ + 1]))
            for root in roots:
                assert not service.query("g", "bfs", {"root": root}).cached
            assert service.query("g", "bfs", {"root": roots[0]}).cached
            occupancy.append(service.cache.stats()["entries"])
        assert occupancy == [len(roots)] * 20
        assert service.cache.stats()["evictions"] == 19 * len(roots)

    def test_other_graphs_keep_their_entries(self, sym):
        registry = GraphRegistry()
        registry.add_graph("g", sym)
        registry.add_graph("h", sym)
        with GraphService(registry) as svc:
            svc.query("g", "bfs", {"root": 0})
            svc.query("h", "bfs", {"root": 0})
            svc.mutate("g", inserts=([0], [1]))
            assert svc.query("h", "bfs", {"root": 0}).cached
            assert svc.cache.stats()["entries"] == 1

    def test_mutation_of_unknown_graph(self, service):
        from repro.errors import UnknownGraphError

        with pytest.raises(UnknownGraphError):
            service.mutate("nope", inserts=([0], [1]))

    def test_deletes_and_noop_deletes_reported(self, service, sym):
        u = int(sym.edges.rows[0])
        v = int(sym.edges.cols[0])
        summary = service.mutate("g", deletes=([u, u], [v, sym.n_vertices - 1]))
        assert summary["deleted"] >= 1
        assert summary["deleted"] + summary["noop_deletes"] == 2

    def test_epoch_pinning_mid_flight(self, sym):
        """Queries admitted before a mutation compute on their own epoch
        even when dispatch happens after the swap."""
        registry = GraphRegistry()
        registry.add_graph("g", sym)
        # A long dispatch window so the mutation lands while the query
        # sits in the batcher's queue.
        with GraphService(
            registry, policy=BatchPolicy(max_batch_k=8, max_wait_ms=120.0)
        ) as svc:
            baseline = run_bfs(DeltaGraph(sym), 0).distances
            target = unreached_vertex(baseline)
            results = {}

            def ask():
                results["pinned"] = svc.query("g", "bfs", {"root": 0})

            thread = threading.Thread(target=ask)
            thread.start()
            # Let the query reach the queue, then mutate.
            time.sleep(0.02)
            svc.mutate("g", inserts=([0], [target]))
            thread.join(timeout=30)
            assert "pinned" in results
            # The pinned query must reflect the pre-mutation epoch.
            assert np.array_equal(results["pinned"].values, baseline)
            # A fresh query sees the mutation.
            fresh = svc.query("g", "bfs", {"root": 0})
            assert np.isfinite(fresh.values[target])


class TestInstallSerial:
    """Served results are keyed by the registry's install serial, not
    by the epoch: both cases below reuse an epoch number for different
    edges."""

    @pytest.fixture()
    def other(self, sym):
        """Same vertex set as ``sym``, different edges: a path graph."""
        src = np.arange(sym.n_vertices - 1)
        return symmetrize(Graph.from_edges(sym.n_vertices, src, src + 1))

    def test_remove_then_add_misses_the_cache(self, service, other):
        service.query("g", "bfs", {"root": 0})
        assert service.query("g", "bfs", {"root": 0}).cached
        service.registry.remove("g")
        service.registry.add_graph("g", other)
        assert service.registry.entry("g").epoch == 0
        after = service.query("g", "bfs", {"root": 0})
        assert not after.cached
        assert np.array_equal(after.values, run_bfs(other, 0).distances)

    def test_same_epoch_swap_never_cobatches(self, sym, other):
        registry = GraphRegistry()
        registry.add_graph("g", sym)
        # A full batch is two tickets and a partial one waits a minute:
        # the window stays open until close() drains the queue.
        svc = GraphService(
            registry, policy=BatchPolicy(max_batch_k=2, max_wait_ms=60_000.0)
        )
        results = {}

        def ask(slot, root):
            results[slot] = svc.query("g", "bfs", {"root": root})

        def wait_submitted(count):
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                scheduler = svc.stats()["scheduler"]
                if scheduler["submitted"] >= count:
                    return scheduler["pending"]
                time.sleep(0.001)
            raise AssertionError(f"{count} tickets never reached the queue")

        threads = [
            threading.Thread(target=ask, args=("before", 0)),
            threading.Thread(target=ask, args=("after", 1)),
        ]
        try:
            threads[0].start()
            assert wait_submitted(1) == 1
            svc.swap_graph("g", other, epoch=0)
            threads[1].start()
            assert wait_submitted(2) == 2  # two groups, neither one full
        finally:
            svc.close()  # drains both queued tickets
            for thread in threads:
                if thread.is_alive():
                    thread.join(timeout=30)
        assert results["before"].batch_k == results["after"].batch_k == 1
        assert np.array_equal(
            results["before"].values, run_bfs(sym, 0).distances
        )
        assert np.array_equal(
            results["after"].values, run_bfs(other, 1).distances
        )

    def test_same_epoch_swap_misses_the_cache(self, service, sym, other):
        service.query("g", "bfs", {"root": 0})
        assert service.query("g", "bfs", {"root": 0}).cached
        service.swap_graph("g", other, epoch=0)
        after = service.query("g", "bfs", {"root": 0})
        assert not after.cached
        assert np.array_equal(after.values, run_bfs(other, 0).distances)
        assert service.cache.stats()["entries"] == 1


class TestDeltaLogWiring:
    def test_mutations_logged_and_recoverable(self, sym, tmp_path):
        registry = GraphRegistry()
        registry.add_graph("g", sym)
        with GraphService(registry, delta_log_dir=tmp_path) as svc:
            first = svc.query("g", "bfs", {"root": 0})
            target = unreached_vertex(first.values)
            svc.mutate("g", inserts=([0], [target]))
            svc.mutate("g", deletes=([0], [target]))
            entry = svc.registry.entry("g")
            expected = entry.graph.edges
        log = DeltaLog(tmp_path / "g.gmdelta")
        assert len(log) == 2
        recovered = log.apply_to(sym)
        assert recovered.epoch == 2
        assert np.array_equal(
            recovered.edges.rows, expected.rows
        ) and np.array_equal(recovered.edges.cols, expected.cols)

    def test_threshold_compaction_writes_fresh_snapshot(self, tmp_path):
        base = symmetrize(rmat_graph(scale=5, edge_factor=4, seed=2))
        registry = GraphRegistry()
        registry.add_graph("g", base)
        with GraphService(
            registry, delta_log_dir=tmp_path, compact_threshold=0.01
        ) as svc:
            rng = np.random.default_rng(0)
            n = base.n_vertices
            summary = svc.mutate(
                "g",
                inserts=(rng.integers(0, n, 32), rng.integers(0, n, 32)),
            )
            assert summary["compacted"]
            entry = svc.registry.entry("g")
            assert entry.epoch == 1
            assert not isinstance(entry.graph, DeltaGraph)
            assert entry.graph.snapshot_path is not None
            assert (tmp_path / "g-epoch1.gmsnap").exists()
            # The log was truncated at compaction.
            assert len(DeltaLog(tmp_path / "g.gmdelta")) == 0
            # Serving continues seamlessly on the compacted graph.
            assert svc.query("g", "bfs", {"root": 0}).values.shape == (n,)
            assert svc.stats()["mutations"]["compactions"] == 1

    def test_restart_recovers_logged_mutations(self, sym, tmp_path):
        """Acknowledged mutations must survive a service restart: the log
        replays over the base snapshot and epoch numbering resumes."""
        def make_service():
            registry = GraphRegistry()
            registry.add_graph("g", sym)
            return GraphService(registry, delta_log_dir=tmp_path)

        with make_service() as svc:
            baseline = svc.query("g", "bfs", {"root": 0})
            target = unreached_vertex(baseline.values)
            svc.mutate("g", inserts=([0], [target]))
            svc.mutate("g", inserts=([target], [0]))
            expected = svc.query("g", "bfs", {"root": 0}).values
        with make_service() as svc:
            entry = svc.registry.entry("g")
            assert entry.epoch == 2
            assert svc.stats()["mutations"]["recovered_batches"] == 2
            recovered = svc.query("g", "bfs", {"root": 0})
            assert np.array_equal(recovered.values, expected)
            # Epoch numbering resumes, not resets: the log stays linear.
            assert svc.mutate("g", inserts=([0], [1]))["epoch"] == 3
            epochs = [b.epoch for b in DeltaLog(
                tmp_path / "g.gmdelta").replay()]
            assert epochs == [1, 2, 3]

    def test_restart_recovers_compacted_snapshot(self, tmp_path):
        """After threshold compaction, a restart must pick up the
        compacted snapshot (the log was truncated) and keep its epoch."""
        base = symmetrize(rmat_graph(scale=5, edge_factor=4, seed=2))

        def make_service():
            registry = GraphRegistry()
            registry.add_graph("g", base)
            return GraphService(
                registry, delta_log_dir=tmp_path, compact_threshold=0.01
            )

        rng = np.random.default_rng(1)
        n = base.n_vertices
        with make_service() as svc:
            assert svc.mutate(
                "g", inserts=(rng.integers(0, n, 32), rng.integers(0, n, 32))
            )["compacted"]
            svc.mutate("g", inserts=([0], [1]))  # post-compaction, logged
            expected = svc.query("g", "bfs", {"root": 0}).values
            expected_edges = svc.registry.entry("g").graph.n_edges
        with make_service() as svc:
            entry = svc.registry.entry("g")
            assert entry.epoch == 2
            assert entry.graph.n_edges == expected_edges
            assert np.array_equal(
                svc.query("g", "bfs", {"root": 0}).values, expected
            )

    def test_memory_only_compaction(self, sym):
        registry = GraphRegistry()
        registry.add_graph("g", sym)
        with GraphService(registry, compact_threshold=1e-9) as svc:
            summary = svc.mutate("g", inserts=([0], [1], [2.0]))
            assert summary["compacted"]
            entry = svc.registry.entry("g")
            assert isinstance(entry.graph, Graph)
            assert not isinstance(entry.graph, DeltaGraph)


class TestMutationEndpoint:
    @pytest.fixture()
    def server(self, sym, tmp_path):
        registry = GraphRegistry()
        registry.add_graph("g", sym)
        snapshot = tmp_path / "snap.gmsnap"
        save_snapshot(sym, snapshot, n_partitions=8)
        registry.add_snapshot("snap", snapshot)
        service = GraphService(
            registry, policy=BatchPolicy(max_batch_k=4, max_wait_ms=5.0)
        )
        http_server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(
            target=http_server.serve_forever, daemon=True
        )
        thread.start()
        yield http_server
        http_server.shutdown()
        http_server.server_close()
        service.close()

    def test_post_edges_roundtrip(self, server):
        status, before = _post(server, "/query/bfs", {"graph": "g", "root": 0})
        assert status == 200
        values = before["values"]
        target = next(i for i, v in enumerate(values) if v is None)
        status, summary = _post(
            server,
            "/graphs/g/edges",
            {"insert": [[0, target], [target, 0]]},
        )
        assert status == 200
        assert summary["epoch"] == 1 and summary["inserted"] == 2
        status, after = _post(server, "/query/bfs", {"graph": "g", "root": 0})
        assert status == 200
        assert after["values"][target] == 1.0

    def test_post_edges_on_snapshot_backed_graph(self, server):
        status, summary = _post(
            server,
            "/graphs/snap/edges",
            {"insert": [[0, 1, 2.0]], "delete": [[2, 3]]},
        )
        assert status == 200
        assert summary["epoch"] == 1

    def test_post_edges_error_mapping(self, server):
        status, _ = _post(server, "/graphs/missing/edges", {"insert": [[0, 1]]})
        assert status == 404
        status, body = _post(server, "/graphs/g/edges", {})
        assert status == 400 and "insert" in body["error"]
        status, _ = _post(server, "/graphs/g/edges", {"insert": [[0]]})
        assert status == 400
        status, _ = _post(server, "/graphs/g/edges", {"delete": [[0, 1, 2]]})
        assert status == 400
        status, _ = _post(server, "/graphs/g/edges", {"bogus": []})
        assert status == 400
        # Out-of-range vertex ids are the client's fault: 400, not 500.
        status, body = _post(
            server, "/graphs/g/edges", {"insert": [[0, 10**6]]}
        )
        assert status == 400
        # A lossy weight into an unweighted (int-valued) base: 400.
        status, body = _post(
            server, "/graphs/g/edges", {"insert": [[0, 1, 2.5]]}
        )
        assert status == 400 and "losslessly" in body["error"]
        # Non-integral / non-numeric endpoints must 400, never truncate
        # to a *different* edge than the client named.
        status, _ = _post(server, "/graphs/g/edges", {"insert": [[2.7, 3]]})
        assert status == 400
        status, _ = _post(server, "/graphs/g/edges", {"insert": [["4", 1]]})
        assert status == 400
        status, _ = _post(server, "/graphs/g/edges", {"delete": [[0, True]]})
        assert status == 400
        # Integral floats (JSON encoders that float everything) are fine.
        status, _ = _post(server, "/graphs/g/edges", {"insert": [[0.0, 2]]})
        assert status == 200

    def test_graphs_listing_shows_epoch(self, server):
        _post(server, "/graphs/g/edges", {"insert": [[0, 1]]})
        port = server.server_address[1]
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/graphs"
        ) as reply:
            listing = json.loads(reply.read())["graphs"]
        entry = next(e for e in listing if e["name"] == "g")
        assert entry["epoch"] >= 1
        assert entry["delta_edges"] >= 1
