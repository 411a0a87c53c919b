"""The repro-serve HTTP front end: routing, JSON shapes, error codes."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.algorithms.bfs import run_bfs
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import symmetrize
from repro.serve import BatchPolicy, GraphRegistry, GraphService, make_server
from repro.serve.cli import _build_parser, build_service
from repro.store.snapshot import save_snapshot


@pytest.fixture(scope="module")
def sym():
    return symmetrize(rmat_graph(scale=8, edge_factor=8, seed=5))


@pytest.fixture(scope="module")
def server(sym):
    registry = GraphRegistry()
    registry.add_graph("g", sym)
    service = GraphService(
        registry, policy=BatchPolicy(max_batch_k=8, max_wait_ms=20.0)
    )
    http_server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server
    http_server.shutdown()
    http_server.server_close()
    service.close()


def _get(server, path):
    port = server.server_address[1]
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


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


class TestEndpoints:
    def test_healthz(self, server):
        status, document = _get(server, "/healthz")
        assert status == 200
        assert document["status"] == "ok"
        assert document["graphs"] == 1

    def test_graphs_listing(self, server, sym):
        status, document = _get(server, "/graphs")
        assert status == 200
        (entry,) = document["graphs"]
        assert entry["name"] == "g"
        assert entry["n_vertices"] == sym.n_vertices
        assert entry["n_edges"] == sym.n_edges

    def test_stats_shape(self, server):
        status, document = _get(server, "/stats")
        assert status == 200
        assert {"scheduler", "cache", "graphs", "queries"} <= set(document)

    def test_bfs_query_full_values_match_engine(self, server, sym):
        status, document = _post(
            server, "/query/bfs", {"graph": "g", "root": 0}
        )
        assert status == 200
        assert document["params"] == {"root": 0}
        expected = run_bfs(sym, 0).distances
        got = np.array(
            [np.inf if v is None else v for v in document["values"]]
        )
        assert np.array_equal(got, expected)
        assert document["n_vertices"] == sym.n_vertices

    def test_top_view_orders_distances_ascending(self, server):
        status, document = _post(
            server, "/query/bfs", {"graph": "g", "root": 0, "top": 5}
        )
        assert status == 200
        top = document["top"]
        assert top[0] == [0, 0.0]
        assert all(a[1] <= b[1] for a, b in zip(top, top[1:]))

    def test_vertices_view(self, server):
        status, document = _post(
            server,
            "/query/sssp",
            {"graph": "g", "source": 0, "vertices": [0, 1]},
        )
        assert status == 200
        assert document["values"]["0"] == 0.0

    def test_ppr_top_is_descending_scores(self, server):
        status, document = _post(
            server,
            "/query/ppr",
            {"graph": "g", "source": 0, "iterations": 3, "top": 4},
        )
        assert status == 200
        top = document["top"]
        assert all(a[1] >= b[1] for a, b in zip(top, top[1:]))

    def test_repeat_query_served_from_cache(self, server):
        body = {"graph": "g", "root": 7, "top": 1}
        _post(server, "/query/bfs", body)
        status, document = _post(server, "/query/bfs", dict(body))
        assert status == 200
        assert document["cached"] is True

    def test_concurrent_http_clients_batch(self, server):
        roots = list(range(16, 24))
        with ThreadPoolExecutor(8) as pool:
            replies = list(
                pool.map(
                    lambda r: _post(
                        server, "/query/bfs", {"graph": "g", "root": r, "top": 1}
                    ),
                    roots,
                )
            )
        assert all(status == 200 for status, _ in replies)
        assert max(doc["batch_k"] for _, doc in replies) > 1

    def test_error_codes(self, server):
        assert _get(server, "/nope")[0] == 404
        assert _post(server, "/nope", {})[0] == 404
        assert _post(server, "/query/zzz", {"graph": "g"})[0] == 404
        assert _post(server, "/query/bfs", {"graph": "zzz", "root": 0})[0] == 404
        assert _post(server, "/query/bfs", {"graph": "g"})[0] == 400
        assert _post(server, "/query/bfs", {"graph": "g", "root": -2})[0] == 400
        assert (
            _post(
                server,
                "/query/bfs",
                {"graph": "g", "root": 0, "top": 1, "vertices": [0]},
            )[0]
            == 400
        )
        assert (
            _post(
                server,
                "/query/bfs",
                {"graph": "g", "root": 0, "vertices": [10**9]},
            )[0]
            == 400
        )
        # Malformed JSON body.
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/query/bfs",
            data=b"{not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 400
        info.value.close()  # the error reply holds its socket
        # Malformed Content-Length header: still a JSON 400, not a
        # dropped connection.
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.putrequest("POST", "/query/bfs")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            reply = connection.getresponse()
            assert reply.status == 400
            assert "Content-Length" in json.loads(reply.read())["error"]
        finally:
            connection.close()

    def test_keepalive_survives_error_replies(self, server):
        """An error reply must not leave the POST body unread on a
        keep-alive connection — the leftover bytes would be parsed as
        the next request line and desynchronize every later exchange."""
        import http.client

        port = server.server_address[1]
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            body = json.dumps({"graph": "g", "root": 0}).encode()
            # 404 path with a body, then reuse the same connection.
            connection.request("POST", "/nope", body=body)
            reply = connection.getresponse()
            assert reply.status == 404
            reply.read()
            connection.request("GET", "/healthz")
            reply = connection.getresponse()
            assert reply.status == 200
            assert json.loads(reply.read())["status"] == "ok"
        finally:
            connection.close()

    def test_unexpected_failure_maps_to_500(self, server, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("not a ReproError")

        monkeypatch.setattr(server.service, "query", boom)
        status, document = _post(
            server, "/query/bfs", {"graph": "g", "root": 0}
        )
        assert status == 500
        assert "internal error" in document["error"]


class TestServeCLI:
    def test_build_service_from_snapshot_specs(self, tmp_path, sym, capsys):
        path = tmp_path / "g.gmsnap"
        save_snapshot(sym, path)
        args = _build_parser().parse_args(
            [
                "--graph", f"social={path}",
                "--max-batch-k", "4",
                "--max-wait-ms", "1",
                "--cache-size", "16",
            ]
        )
        service = build_service(args)
        try:
            assert service.registry.names() == ["social"]
            assert service.policy.max_batch_k == 4
            assert service.cache.capacity == 16
            result = service.query("social", "bfs", {"root": 0})
            assert np.array_equal(result.values, run_bfs(sym, 0).distances)
        finally:
            service.close()
        assert "hosting 'social'" in capsys.readouterr().out

    def test_bad_graph_specs_rejected(self):
        from repro.errors import ReproError

        for argv in ([], ["--graph", "noequals"], ["--graph", "=x"]):
            args = _build_parser().parse_args(argv)
            with pytest.raises(ReproError):
                build_service(args)


# ----------------------------------------------------------------------
# Governance over HTTP: deadlines, tenants, 429/504 mapping
# ----------------------------------------------------------------------
def _post_raw(server, path, body, headers=None):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as reply:
            return reply.status, dict(reply.headers), json.loads(reply.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, dict(error.headers), json.loads(error.read())


@pytest.fixture()
def quota_server(sym):
    from repro.serve.quota import QuotaManager, TenantPolicy

    registry = GraphRegistry()
    registry.add_graph("g", sym)
    service = GraphService(
        registry,
        policy=BatchPolicy(max_batch_k=8, max_wait_ms=1.0),
        quota=QuotaManager(default=TenantPolicy(rate=1.0, burst=1)),
    )
    http_server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server
    http_server.shutdown()
    http_server.server_close()
    service.close()


class TestGovernanceHTTP:
    # Roots 200+ are never queried elsewhere in this module: the shared
    # server's cache must not already hold the answers (a cache hit is
    # served even past the deadline — pinned below).
    def test_deadline_ms_body_param_maps_to_504(self, server):
        # An (effectively) already-expired deadline is refused at
        # admission and surfaces as retriable 504 + Retry-After.
        status, headers, document = _post_raw(
            server, "/query/bfs",
            {"graph": "g", "root": 200, "deadline_ms": 1e-6},
        )
        assert status == 504
        assert "Retry-After" in headers
        assert "deadline" in document["error"]

    def test_deadline_header_when_body_names_none(self, server):
        status, headers, document = _post_raw(
            server, "/query/bfs", {"graph": "g", "root": 201},
            headers={"X-Deadline-Ms": "0.000001"},
        )
        assert status == 504

    def test_body_deadline_wins_over_header(self, server):
        status, _, document = _post_raw(
            server, "/query/bfs",
            {"graph": "g", "root": 202, "deadline_ms": 60_000},
            headers={"X-Deadline-Ms": "0.000001"},
        )
        assert status == 200

    def test_cache_hit_is_served_even_past_the_deadline(self, server):
        """Deadline governance guards engine work; a cached answer is
        free and is returned rather than refused."""
        status, _, _ = _post_raw(
            server, "/query/bfs", {"graph": "g", "root": 203}
        )
        assert status == 200
        status, _, document = _post_raw(
            server, "/query/bfs",
            {"graph": "g", "root": 203, "deadline_ms": 1e-6},
        )
        assert status == 200
        assert document["cached"] is True

    def test_bad_deadline_is_a_400(self, server):
        for bad in ("soon", -5, 0):
            status, _, document = _post_raw(
                server, "/query/bfs",
                {"graph": "g", "root": 0, "deadline_ms": bad},
            )
            assert status == 400, f"deadline_ms={bad!r} not rejected"
            assert "deadline" in document["error"]

    def test_quota_flood_gets_429_with_retry_after(self, quota_server):
        body = {"graph": "g", "root": 0}
        status, _, _ = _post_raw(
            quota_server, "/query/bfs", body, headers={"X-Tenant": "noisy"}
        )
        assert status == 200
        status, headers, document = _post_raw(
            quota_server, "/query/bfs", body, headers={"X-Tenant": "noisy"}
        )
        assert status == 429
        assert float(headers["Retry-After"]) > 0
        assert "rate" in document["error"]
        # A different tenant is admitted while 'noisy' is shed.
        status, _, _ = _post_raw(
            quota_server, "/query/bfs", body, headers={"X-Tenant": "polite"}
        )
        assert status == 200

    def test_stats_surface_governance_counters(self, quota_server):
        body = {"graph": "g", "root": 3}
        _post_raw(
            quota_server, "/query/bfs", body, headers={"X-Tenant": "alice"}
        )
        status, document = _get(quota_server, "/stats")
        assert status == 200
        governance = document["governance"]
        assert governance["quota"]["tenants"]["alice"]["admitted"] == 1
        assert "cancelled_lanes" in governance
        assert "deadline_refused" in governance


class TestGovernanceCLI:
    def test_governance_flags_build_quota_and_deadline(self, tmp_path, sym):
        path = tmp_path / "g.gmsnap"
        save_snapshot(sym, path)
        args = _build_parser().parse_args(
            [
                "--graph", f"g={path}",
                "--default-deadline-ms", "5000",
                "--tenant-rate", "10",
                "--tenant-burst", "20",
                "--tenant-max-inflight", "4",
                "--tenant-queue-share", "0.5",
            ]
        )
        service = build_service(args)
        try:
            assert service.default_deadline == 5.0
            policy = service.quota.default
            assert policy.rate == 10.0
            assert policy.burst == 20.0
            assert policy.max_in_flight == 4
            assert policy.max_queue_share == 0.5
        finally:
            service.close()

    def test_governance_defaults_off(self, tmp_path, sym):
        path = tmp_path / "g.gmsnap"
        save_snapshot(sym, path)
        args = _build_parser().parse_args(["--graph", f"g={path}"])
        service = build_service(args)
        try:
            assert service.quota is None
            assert service.default_deadline is None
        finally:
            service.close()


@pytest.fixture()
def metrics_server(sym):
    from repro.obs import ServeTelemetry

    registry = GraphRegistry()
    registry.add_graph("g", sym)
    service = GraphService(
        registry,
        policy=BatchPolicy(max_batch_k=8, max_wait_ms=5.0),
        telemetry=ServeTelemetry(),
    )
    http_server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server
    http_server.shutdown()
    http_server.server_close()
    service.close()


def _get_raw(server, path, headers=None):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request) as reply:
            return reply.status, dict(reply.headers), reply.read()
    except urllib.error.HTTPError as error:
        with error:
            return error.code, dict(error.headers), error.read()


class TestObservabilityHTTP:
    def test_metrics_endpoint_serves_prometheus_text(self, metrics_server):
        status, _, document = _post_raw(
            metrics_server, "/query/bfs", {"graph": "g", "root": 1}
        )
        assert status == 200
        status, headers, body = _get_raw(metrics_server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode("utf-8")
        assert '# TYPE repro_requests_total counter' in text
        assert (
            'repro_requests_total{graph="g", kind="bfs", status="ok"} 1'
            in text
        )
        assert "# TYPE repro_request_latency_seconds histogram" in text
        assert "repro_batch_lanes_count 1" in text
        assert "repro_cache_hit_rate" in text

    def test_metrics_404_without_telemetry(self, server):
        status, _, body = _get_raw(server, "/metrics")
        assert status == 404
        assert b"ServeTelemetry" in body

    def test_request_id_header_echoed(self, metrics_server):
        status, headers, document = _post_raw(
            metrics_server, "/query/bfs", {"graph": "g", "root": 2},
            headers={"X-Request-Id": "trace-me-42"},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "trace-me-42"
        assert document["request_id"] == "trace-me-42"

    def test_request_id_generated_when_absent(self, metrics_server):
        status, headers, document = _post_raw(
            metrics_server, "/query/bfs", {"graph": "g", "root": 3}
        )
        assert status == 200
        assert len(headers["X-Request-Id"]) == 32
        assert document["request_id"] == headers["X-Request-Id"]

    def test_malformed_request_id_replaced(self, metrics_server):
        status, headers, _ = _post_raw(
            metrics_server, "/query/bfs", {"graph": "g", "root": 4},
            headers={"X-Request-Id": "bad id; with spaces"},
        )
        assert status == 200
        assert headers["X-Request-Id"] != "bad id; with spaces"
        assert len(headers["X-Request-Id"]) == 32

    def test_error_payload_carries_request_id(self, metrics_server):
        status, headers, document = _post_raw(
            metrics_server, "/query/bfs", {"graph": "nope", "root": 0},
            headers={"X-Request-Id": "err-trace-1"},
        )
        assert status == 404
        assert document["request_id"] == "err-trace-1"
        assert headers["X-Request-Id"] == "err-trace-1"

    def test_quota_429_carries_request_id(self, quota_server):
        # Burst 1 at 1 qps: the second immediate request is refused.
        _post_raw(quota_server, "/query/bfs", {"graph": "g", "root": 1})
        status, headers, document = _post_raw(
            quota_server, "/query/bfs", {"graph": "g", "root": 2},
            headers={"X-Request-Id": "quota-trace-1"},
        )
        assert status == 429
        assert document["request_id"] == "quota-trace-1"
        assert headers["X-Request-Id"] == "quota-trace-1"

    def test_stats_uptime_and_started_at(self, metrics_server):
        status, document = _get(metrics_server, "/stats")
        assert status == 200
        assert document["uptime_seconds"] >= 0.0
        assert document["started_at"] > 1e9


class TestObservabilityCLI:
    def test_cli_always_builds_telemetry(self, tmp_path, sym):
        path = tmp_path / "g.gmsnap"
        save_snapshot(sym, path)
        args = _build_parser().parse_args(["--graph", f"g={path}"])
        service = build_service(args)
        try:
            assert service.telemetry is not None
            assert service.telemetry.slow_log is None  # opt-in
        finally:
            service.close()

    def test_slow_query_flag_arms_the_log(self, tmp_path, sym):
        path = tmp_path / "g.gmsnap"
        save_snapshot(sym, path)
        args = _build_parser().parse_args(
            ["--graph", f"g={path}", "--slow-query-ms", "250"]
        )
        service = build_service(args)
        try:
            assert service.telemetry.slow_log is not None
            assert service.telemetry.slow_log.threshold_ms == 250.0
        finally:
            service.close()
