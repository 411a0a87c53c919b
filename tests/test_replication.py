"""Leader -> follower replication: cursors, catch-up-then-swap, staleness.

These run leader and follower in one process (real HTTP over loopback,
port 0) so they stay fast enough for the default lane; crash-recovery
of the replication pair under SIGKILL is the harness suite's job.
"""

from __future__ import annotations

import http.server
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import ServeError, StaleReadError
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import symmetrize
from repro.serve import (
    GraphRegistry,
    GraphService,
    ReplicationFollower,
    make_server,
)
from repro.store.delta_log import LOG_START
from repro.store.snapshot import save_snapshot


@pytest.fixture(scope="module")
def sym():
    return symmetrize(rmat_graph(scale=6, edge_factor=8, seed=21))


@pytest.fixture()
def leader(sym, tmp_path):
    snap = tmp_path / "g.gmsnap"
    save_snapshot(sym, snap)
    registry = GraphRegistry()
    registry.add_snapshot("g", snap)
    service = GraphService(registry, delta_log_dir=tmp_path / "leader-wal")
    server = make_server(service, "127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    url = "http://%s:%s" % server.server_address[:2]
    yield service, server, url
    server.shutdown()
    server.server_close()
    service.close()


def _follower(leader_url, tmp_path, **kwargs):
    registry = GraphRegistry()
    service = GraphService(registry, read_only=True)
    follower = ReplicationFollower(
        service,
        leader_url,
        replica_dir=tmp_path / "replica",
        poll_timeout=kwargs.pop("poll_timeout", 1.0),
        **kwargs,
    )
    return service, follower


def _wait(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _caught_up(leader_service, follower_service):
    def check():
        try:
            return (
                follower_service.registry.entry("g").epoch
                == leader_service.registry.entry("g").epoch
            )
        except Exception:  # noqa: BLE001 — not installed yet
            return False

    return check


class _FlakyLeader:
    """HTTP proxy in front of a leader that can cut every reply short.

    While ``broken`` it answers 200 with a ``Content-Length`` larger than
    the body it writes and closes the connection; otherwise it relays
    the leader's status, replication headers and body unchanged.
    """

    def __init__(self, upstream: str) -> None:
        self.broken = True
        proxy = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                if proxy.broken:
                    self.send_response(200)
                    self.send_header("Content-Length", "1000")
                    self.end_headers()
                    self.wfile.write(b"partial")
                    self.close_connection = True
                    return
                try:
                    with urllib.request.urlopen(
                        upstream + self.path, timeout=30.0
                    ) as reply:
                        status, headers, body = (
                            reply.status, reply.headers, reply.read()
                        )
                except urllib.error.HTTPError as error:
                    with error:
                        status, headers, body = error.code, error.headers, error.read()
                self.send_response(status)
                for key, value in headers.items():
                    if key.lower().startswith("x-repro-"):
                        self.send_header(key, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        threading.Thread(target=self._server.serve_forever, daemon=True).start()
        self.url = "http://%s:%s" % self._server.server_address[:2]

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()


class TestWaitForLog:
    """The leader-side cursor protocol, driven directly."""

    def test_timeout_returns_empty(self, leader):
        service, _server, _url = leader
        data, offset, status = service.wait_for_log("g", LOG_START, 0, 0.0)
        assert data == b"" and offset == LOG_START
        assert status["generation"] == 0

    def test_append_wakes_long_poll(self, leader):
        service, _server, _url = leader
        out = {}

        def poll():
            out["result"] = service.wait_for_log("g", LOG_START, 0, 10.0)

        thread = threading.Thread(target=poll)
        thread.start()
        time.sleep(0.05)
        service.mutate("g", inserts=([0], [1]))
        thread.join(timeout=10.0)
        data, next_offset, _status = out["result"]
        assert data and next_offset > LOG_START

    def test_generation_mismatch_invalidates_cursor(self, leader):
        service, _server, _url = leader
        data, offset, status = service.wait_for_log("g", LOG_START, 7, 0.0)
        assert data is None and offset == LOG_START
        assert status["generation"] == 0

    def test_offset_past_end_invalidates_cursor(self, leader):
        service, _server, _url = leader
        data, _offset, _status = service.wait_for_log("g", 1 << 30, 0, 0.0)
        assert data is None

    def test_replication_requires_durable_leader(self, sym):
        registry = GraphRegistry()
        registry.add_graph("g", sym)
        service = GraphService(registry)  # no delta_log_dir
        with pytest.raises(ServeError):
            service.replication_status("g")
        service.close()


class TestFollower:
    def test_bootstrap_tail_and_bitwise_parity(self, leader, tmp_path):
        lsvc, _server, url = leader
        for i in range(3):
            lsvc.mutate("g", inserts=([i], [i + 40]))
        fsvc, follower = _follower(url, tmp_path)
        follower.start()
        assert _wait(_caught_up(lsvc, fsvc))
        # Mutations made *while* tailing arrive too.
        lsvc.mutate("g", inserts=([7, 8], [9, 10]))
        assert _wait(_caught_up(lsvc, fsvc))
        want = lsvc.query("g", "bfs", {"root": 0}).values
        got = fsvc.query("g", "bfs", {"root": 0}).values
        assert np.array_equal(want, got, equal_nan=True)
        assert follower.ready() == (True, "ok")
        assert follower.status()["graphs"]["g"]["lag"] == 0
        follower.stop()
        fsvc.close()

    def test_compaction_triggers_reinstall(self, sym, tmp_path):
        snap = tmp_path / "g.gmsnap"
        save_snapshot(sym, snap)
        registry = GraphRegistry()
        registry.add_snapshot("g", snap)
        lsvc = GraphService(
            registry,
            delta_log_dir=tmp_path / "wal",
            compact_threshold=0.05,
        )
        server = make_server(lsvc, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = "http://%s:%s" % server.server_address[:2]
        fsvc, follower = _follower(url, tmp_path)
        follower.start()
        assert _wait(_caught_up(lsvc, fsvc))
        rng = np.random.default_rng(1)
        for _ in range(12):
            src = rng.integers(0, sym.n_vertices, 10).tolist()
            dst = rng.integers(0, sym.n_vertices, 10).tolist()
            lsvc.mutate("g", inserts=(src, dst))
        assert lsvc.stats()["mutations"]["compactions"] > 0
        assert _wait(_caught_up(lsvc, fsvc))
        want = lsvc.query("g", "bfs", {"root": 0}).values
        got = fsvc.query("g", "bfs", {"root": 0}).values
        assert np.array_equal(want, got, equal_nan=True)
        # The follower crossed at least one generation boundary: its
        # bootstrap plus >= 1 snapshot reinstall.
        assert follower.status()["snapshots_installed"] >= 2
        follower.stop()
        fsvc.close()
        server.shutdown()
        server.server_close()
        lsvc.close()

    def test_follower_restart_resumes_from_local_state(self, leader, tmp_path):
        lsvc, _server, url = leader
        for i in range(4):
            lsvc.mutate("g", inserts=([i], [i + 30]))
        fsvc, follower = _follower(url, tmp_path)
        follower.start()
        assert _wait(_caught_up(lsvc, fsvc))
        follower.stop()
        fsvc.close()
        # Restart over the same replica_dir: local snapshot + local log
        # resume without re-downloading the snapshot.
        fsvc2, follower2 = _follower(url, tmp_path)
        follower2.start()
        assert _wait(_caught_up(lsvc, fsvc2))
        assert follower2.status()["snapshots_installed"] == 0
        want = lsvc.query("g", "bfs", {"root": 1}).values
        got = fsvc2.query("g", "bfs", {"root": 1}).values
        assert np.array_equal(want, got, equal_nan=True)
        follower2.stop()
        fsvc2.close()

    def test_follower_survives_truncated_leader_replies(self, leader, tmp_path):
        lsvc, _server, url = leader
        proxy = _FlakyLeader(url)
        fsvc, follower = _follower(
            proxy.url, tmp_path, graphs=["g"], retry_seconds=0.05
        )
        follower.start()
        # Every reply announces more body than it sends, then the socket
        # closes: the follower's reads end in http.client.IncompleteRead.
        assert _wait(lambda: follower.status()["errors"] >= 3)
        assert all(thread.is_alive() for thread in follower._threads)
        assert follower.status()["snapshots_installed"] == 0
        # Once the leader behaves, the same thread bootstraps and tails.
        proxy.broken = False
        lsvc.mutate("g", inserts=([0], [1]))
        assert _wait(_caught_up(lsvc, fsvc))
        lsvc.mutate("g", inserts=([2], [3]))
        assert _wait(_caught_up(lsvc, fsvc))
        assert follower.status()["batches_applied"] >= 1
        follower.stop()
        fsvc.close()
        proxy.close()

    def test_staleness_guard(self, leader, tmp_path):
        lsvc, _server, url = leader
        fsvc, follower = _follower(url, tmp_path, max_epoch_lag=2)
        follower.start()
        assert _wait(_caught_up(lsvc, fsvc))
        follower.check_read("g")  # lag 0: fine
        # Fake a leader that surged ahead while the link was down.
        follower._leader_epoch["g"] = (
            fsvc.registry.entry("g").epoch + 3
        )
        with pytest.raises(StaleReadError):
            follower.check_read("g")
        # Unreplicated graphs are not guarded (the registry 404s them).
        follower.check_read("other")
        follower.stop()
        fsvc.close()


class TestReplicationHTTP:
    def _get_raw(self, url, path):
        try:
            with urllib.request.urlopen(url + path, timeout=10.0) as reply:
                return reply.status, dict(reply.headers), reply.read()
        except urllib.error.HTTPError as error:
            with error:
                return error.code, dict(error.headers), error.read()

    def test_status_log_and_snapshot_endpoints(self, leader):
        lsvc, _server, url = leader
        lsvc.mutate("g", inserts=([0], [1]))
        status, _headers, body = self._get_raw(url, "/replication/g/status")
        assert status == 200
        doc = json.loads(body)
        assert doc["epoch"] == 1 and doc["generation"] == 0
        status, headers, body = self._get_raw(
            url, f"/replication/g/log?offset={LOG_START}&generation=0&timeout=0"
        )
        assert status == 200 and body
        assert int(headers["X-Repro-Next-Offset"]) == LOG_START + len(body)
        # Nothing new at the advanced cursor -> 204 with headers, no body.
        next_offset = int(headers["X-Repro-Next-Offset"])
        status, headers, body = self._get_raw(
            url,
            f"/replication/g/log?offset={next_offset}&generation=0&timeout=0",
        )
        assert status == 204 and body == b""
        assert int(headers["X-Repro-Epoch"]) == 1
        # Stale generation -> 409 with a fresh status to restart from.
        status, _headers, body = self._get_raw(
            url, f"/replication/g/log?offset={LOG_START}&generation=9&timeout=0"
        )
        assert status == 409
        assert json.loads(body)["generation"] == 0
        status, headers, body = self._get_raw(url, "/replication/g/snapshot")
        assert status == 200 and body[:4] == b"\x89GMS"
        assert headers["X-Repro-Epoch"] == "0"

    def test_unknown_graph_404(self, leader):
        _lsvc, _server, url = leader
        status, _headers, _body = self._get_raw(
            url, "/replication/nope/status"
        )
        assert status == 404

    def test_follower_rejects_writes_403(self, leader, tmp_path):
        lsvc, _server, url = leader
        fsvc, follower = _follower(url, tmp_path)
        follower.start()
        assert _wait(_caught_up(lsvc, fsvc))
        fserver = make_server(fsvc, "127.0.0.1", 0)
        fserver.follower = follower
        threading.Thread(target=fserver.serve_forever, daemon=True).start()
        furl = "http://%s:%s" % fserver.server_address[:2]
        request = urllib.request.Request(
            furl + "/graphs/g/edges",
            data=json.dumps({"insert": [[0, 1]]}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10.0)
        assert err.value.code == 403
        err.value.close()  # the error reply holds its socket
        fserver.shutdown()
        fserver.server_close()
        follower.stop()
        fsvc.close()
