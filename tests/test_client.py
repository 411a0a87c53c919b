"""ServeClient retry policy: deadlines, backoff, Retry-After, failover."""

from __future__ import annotations

import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.errors import ClientError
from repro.serve.client import ServeClient


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Replays a scripted list of (status, headers, body) responses."""

    def _serve(self) -> None:
        server = self.server
        if self.command == "POST":
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
            server.requests.append((self.command, self.path, body))
        else:
            server.requests.append((self.command, self.path, b""))
        with server.lock:
            if server.script:
                status, headers, payload = server.script.pop(0)
            else:
                status, headers, payload = 200, {}, b'{"ok": true}'
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    do_GET = _serve
    do_POST = _serve

    def log_message(self, *args) -> None:  # noqa: A002
        pass


@pytest.fixture()
def stub():
    """Start scripted servers; each is stopped and its socket closed after
    the test, whether it passed or not."""
    servers = []

    def start(script):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
        servers.append(server)
        server.script = list(script)
        server.requests = []
        server.lock = threading.Lock()
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = "http://%s:%s" % server.server_address[:2]
        return server, url

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def rng():
    return random.Random(0)


class TestRetries:
    def test_plain_success(self, rng, stub):
        server, url = stub([(200, {}, b'{"top": [[0, 0.0]]}')])
        client = ServeClient(url, rng=rng)
        assert client.query("g", "bfs", {"root": 0})["top"] == [[0, 0.0]]

    def test_503_retries_and_honors_retry_after(self, rng, stub):
        server, url = stub(
            [
                (503, {"Retry-After": "0.05"}, b'{"error": "draining"}'),
                (503, {"Retry-After": "0.05"}, b'{"error": "draining"}'),
                (200, {}, b'{"cached": false}'),
            ]
        )
        client = ServeClient(url, timeout=5.0, retries=3, rng=rng)
        t0 = time.monotonic()
        result = client.query("g", "bfs", {"root": 0})
        result.pop("request_id")  # client-added correlation id
        assert result == {"cached": False}
        elapsed = time.monotonic() - t0
        assert len(server.requests) == 3
        assert elapsed >= 0.1  # two Retry-After pauses were respected

    def test_4xx_raises_immediately_without_retry(self, rng, stub):
        server, url = stub([(400, {}, b'{"error": "bad root"}')])
        client = ServeClient(url, retries=5, rng=rng)
        with pytest.raises(ClientError, match="bad root"):
            client.query("g", "bfs", {"root": -1})
        assert len(server.requests) == 1

    def test_retry_budget_exhausts(self, rng, stub):
        server, url = stub(
            [(503, {"Retry-After": "0"}, b'{"error": "full"}')] * 4
        )
        client = ServeClient(url, retries=2, rng=rng)
        with pytest.raises(ClientError, match="after 3 attempt"):
            client.query("g", "bfs", {"root": 0})
        assert len(server.requests) == 3  # 1 + retries

    def test_deadline_bounds_the_whole_call(self, rng, stub):
        server, url = stub(
            [(503, {"Retry-After": "30"}, b'{"error": "draining"}')] * 3
        )
        client = ServeClient(url, retries=5, rng=rng)
        t0 = time.monotonic()
        with pytest.raises(ClientError):
            client.query("g", "bfs", {"root": 0}, deadline=0.3)
        assert time.monotonic() - t0 < 5.0  # did not sleep the full 30 s


class TestFailover:
    def test_read_fails_over_to_follower(self, rng, stub):
        follower, furl = stub([(200, {}, b'{"from": "follower"}')])
        # Leader URL points at a port nothing listens on.
        client = ServeClient(
            "http://127.0.0.1:9", [furl], timeout=2.0, retries=2, rng=rng
        )
        result = client.query("g", "bfs", {"root": 0})
        result.pop("request_id")
        assert result == {"from": "follower"}
        assert len(follower.requests) == 1

    def test_draining_leader_fails_over(self, rng, stub):
        leader, lurl = stub(
            [(503, {"Retry-After": "0"}, b'{"error": "draining"}')]
        )
        follower, furl = stub([(200, {}, b'{"from": "follower"}')])
        client = ServeClient(lurl, [furl], retries=2, rng=rng)
        result = client.query("g", "bfs", {"root": 0})
        result.pop("request_id")
        assert result == {"from": "follower"}

    def test_mutations_never_go_to_followers(self, rng, stub):
        leader, lurl = stub(
            [
                (503, {"Retry-After": "0"}, b'{"error": "overloaded"}'),
                (200, {}, b'{"epoch": 1}'),
            ]
        )
        follower, furl = stub([])
        client = ServeClient(lurl, [furl], retries=3, rng=rng)
        assert client.mutate("g", insert=[[0, 1]])["epoch"] == 1
        assert len(leader.requests) == 2
        assert follower.requests == []  # writes are leader-only

    def test_mutation_transport_failure_is_not_resent(self, rng):
        client = ServeClient(
            "http://127.0.0.1:9", timeout=1.0, retries=5, rng=rng
        )
        with pytest.raises(ClientError, match="may have been applied"):
            client.mutate("g", insert=[[0, 1]])

    def test_ready_probe(self, rng, stub):
        server, url = stub([(200, {}, b'{"status": "ready"}')])
        client = ServeClient(url, rng=rng)
        assert client.ready() is True
        assert client.ready("http://127.0.0.1:9") is False


class TestBackoff:
    def test_full_jitter_is_bounded(self):
        client = ServeClient("http://x", rng=random.Random(42))
        for attempt in range(8):
            pause = client._backoff(attempt)
            assert 0.0 <= pause <= min(2.0, 0.1 * 2**attempt)


class TestDeadlineFailFast:
    def test_never_sleeps_into_a_known_miss(self, rng, stub):
        """Retry-After far beyond the deadline: fail now, don't nap."""
        server, url = stub(
            [(503, {"Retry-After": "30"}, b'{"error": "draining"}')] * 3
        )
        client = ServeClient(url, retries=5, rng=rng)
        t0 = time.monotonic()
        with pytest.raises(ClientError, match="failing fast"):
            client.query("g", "bfs", {"root": 0}, deadline=0.3)
        assert time.monotonic() - t0 < 0.3  # raised before the deadline
        assert len(server.requests) == 1

    def test_504_is_retried_within_budget(self, rng, stub):
        """A server-side deadline miss is retriable while the caller
        still has time (another replica may be less loaded)."""
        server, url = stub(
            [
                (504, {"Retry-After": "0.01"}, b'{"error": "cancelled"}'),
                (200, {}, b'{"ok": true}'),
            ]
        )
        client = ServeClient(url, retries=2, rng=rng)
        result = client.query("g", "bfs", {"root": 0}, deadline=10.0)
        result.pop("request_id")
        assert result == {"ok": True}
        assert len(server.requests) == 2

    def test_expired_deadline_raises_before_any_request(self, rng, stub):
        server, url = stub([])
        client = ServeClient(url, retries=2, rng=rng)
        client_deadline = 1e-9  # effectively already expired
        with pytest.raises(ClientError, match="deadline"):
            for _ in range(50):  # one of these lands past the deadline
                client.query("g", "bfs", {"root": 0}, deadline=client_deadline)


class TestCircuitBreaker:
    def test_opens_after_threshold_and_skips_the_endpoint(self, rng, stub):
        leader, lurl = stub(
            [(503, {"Retry-After": "0"}, b'{"error": "sick"}')] * 10
        )
        follower, furl = stub([])  # empty script = always 200
        client = ServeClient(
            lurl, [furl], retries=2, rng=rng, breaker_threshold=1,
            breaker_cooldown=60.0,
        )
        client.query("g", "bfs", {"root": 0})  # leader 503 -> follower
        client.query("g", "bfs", {"root": 0})  # leader skipped outright
        assert len(leader.requests) == 1, "open breaker still probed leader"
        assert len(follower.requests) == 2

    def test_half_open_trial_closes_on_success(self, rng, stub):
        leader, lurl = stub(
            [(503, {"Retry-After": "0"}, b'{"error": "sick"}')]
        )
        follower, furl = stub([])
        client = ServeClient(
            lurl, [furl], retries=2, rng=rng, breaker_threshold=1,
            breaker_cooldown=0.05,
        )
        client.query("g", "bfs", {"root": 0})  # opens the leader breaker
        time.sleep(0.06)  # cooldown elapses; script exhausted -> 200 now
        client.query("g", "bfs", {"root": 0})  # half-open trial succeeds
        client.query("g", "bfs", {"root": 0})  # breaker closed again
        assert len(leader.requests) == 3

    def test_all_breakers_open_fails_immediately(self, rng, stub):
        server, url = stub(
            [(503, {"Retry-After": "0"}, b'{"error": "sick"}')] * 10
        )
        client = ServeClient(
            url, retries=5, rng=rng, breaker_threshold=1,
            breaker_cooldown=60.0,
        )
        with pytest.raises(ClientError, match="circuit breaker"):
            client.query("g", "bfs", {"root": 0})
        assert len(server.requests) == 1  # opened on the first refusal

    def test_4xx_counts_as_breaker_success(self, rng, stub):
        """A malformed request proves the endpoint is healthy — it must
        not open the breaker for everyone else."""
        server, url = stub(
            [(400, {}, b'{"error": "bad root"}')] * 3
        )
        client = ServeClient(
            url, retries=2, rng=rng, breaker_threshold=1,
        )
        for _ in range(3):
            with pytest.raises(ClientError, match="bad root"):
                client.query("g", "bfs", {"root": -1})
        assert len(server.requests) == 3  # never skipped

    def test_ready_bypasses_an_open_breaker(self, rng, stub):
        server, url = stub(
            [(503, {"Retry-After": "0"}, b'{"error": "sick"}')]
        )
        client = ServeClient(
            url, retries=1, rng=rng, breaker_threshold=1,
            breaker_cooldown=60.0,
        )
        with pytest.raises(ClientError):
            client.query("g", "bfs", {"root": 0})
        # The breaker is open, but probes exist to detect recovery.
        assert client.ready() is True  # script exhausted -> 200


class _HeaderRecordingHandler(_ScriptedHandler):
    def _serve(self) -> None:
        self.server.seen_headers.append(dict(self.headers))
        _ScriptedHandler._serve(self)

    do_GET = _serve
    do_POST = _serve


class TestGovernanceHeaders:
    def stub(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _HeaderRecordingHandler)
        server.script = []
        server.requests = []
        server.seen_headers = []
        server.lock = threading.Lock()
        threading.Thread(target=server.serve_forever, daemon=True).start()
        return server, "http://%s:%s" % server.server_address[:2]

    def test_tenant_and_deadline_headers_are_sent(self, rng, stub):
        server, url = self.stub()
        client = ServeClient(url, rng=rng, tenant="acme")
        client.query("g", "bfs", {"root": 0}, deadline=5.0)
        (headers,) = server.seen_headers
        assert headers["X-Tenant"] == "acme"
        # Remaining budget, not the original: <= 5000 ms and positive.
        assert 0 < float(headers["X-Deadline-Ms"]) <= 5000

    def test_per_call_tenant_overrides_client_default(self, rng, stub):
        server, url = self.stub()
        client = ServeClient(url, rng=rng, tenant="acme")
        client.query("g", "bfs", {"root": 0}, tenant="umbrella")
        client.query("g", "bfs", {"root": 0})
        first, second = server.seen_headers
        assert first["X-Tenant"] == "umbrella"
        assert second["X-Tenant"] == "acme"
        assert "X-Deadline-Ms" not in first  # no deadline, no header


class TestRequestIdPropagation:
    def stub(self, script):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _HeaderRecordingHandler)
        server.script = list(script)
        server.requests = []
        server.seen_headers = []
        server.lock = threading.Lock()
        threading.Thread(target=server.serve_forever, daemon=True).start()
        return server, "http://%s:%s" % server.server_address[:2]

    def test_same_id_rides_every_retry_attempt(self, rng, stub):
        server, url = self.stub(
            [
                (503, {"Retry-After": "0"}, b'{"error": "draining"}'),
                (503, {"Retry-After": "0"}, b'{"error": "draining"}'),
                (200, {}, b'{"cached": false}'),
            ]
        )
        client = ServeClient(url, retries=3, rng=rng)
        result = client.query("g", "bfs", {"root": 0})
        ids = [h["X-Request-Id"] for h in server.seen_headers]
        assert len(ids) == 3
        assert len(set(ids)) == 1, (
            f"retry attempts must reuse one request id, saw {ids}"
        )
        # The id is surfaced on the result for client-side correlation.
        assert result["request_id"] == ids[0]

    def test_explicit_id_is_forwarded_verbatim(self, rng, stub):
        server, url = self.stub([(200, {}, b'{"ok": true}')])
        client = ServeClient(url, rng=rng)
        result = client.query(
            "g", "bfs", {"root": 0}, request_id="caller-chose-this"
        )
        (headers,) = server.seen_headers
        assert headers["X-Request-Id"] == "caller-chose-this"
        assert result["request_id"] == "caller-chose-this"

    def test_malformed_explicit_id_is_replaced(self, rng, stub):
        server, url = self.stub([(200, {}, b'{"ok": true}')])
        client = ServeClient(url, rng=rng)
        client.query("g", "bfs", {"root": 0}, request_id="bad id !!")
        (headers,) = server.seen_headers
        assert headers["X-Request-Id"] != "bad id !!"
        assert len(headers["X-Request-Id"]) == 32

    def test_server_supplied_request_id_wins_on_response(self, rng, stub):
        # When the server echoes (or rewrites) the id in the body, the
        # client must not clobber it — setdefault semantics.
        server, url = self.stub(
            [(200, {}, b'{"ok": true, "request_id": "server-id"}')]
        )
        client = ServeClient(url, rng=rng)
        result = client.query("g", "bfs", {"root": 0})
        assert result["request_id"] == "server-id"

    def test_raised_client_error_carries_the_id(self, rng, stub):
        server, url = self.stub([(400, {}, b'{"error": "bad root"}')])
        client = ServeClient(url, rng=rng)
        with pytest.raises(ClientError) as excinfo:
            client.query("g", "bfs", {"root": -1}, request_id="fail-id-1")
        assert excinfo.value.request_id == "fail-id-1"

    def test_exhausted_retries_error_carries_the_id(self, rng, stub):
        server, url = self.stub(
            [(503, {"Retry-After": "0"}, b'{"error": "full"}')] * 3
        )
        client = ServeClient(url, retries=1, rng=rng)
        with pytest.raises(ClientError) as excinfo:
            client.query("g", "bfs", {"root": 0})
        assert excinfo.value.request_id is not None
        ids = {h["X-Request-Id"] for h in server.seen_headers}
        assert ids == {excinfo.value.request_id}

    def test_mutation_carries_the_id_too(self, rng, stub):
        server, url = self.stub([(200, {}, b'{"applied": 1}')])
        client = ServeClient(url, rng=rng)
        result = client.mutate(
            "g", insert=[[0, 1]], request_id="mut-id-9"
        )
        (headers,) = server.seen_headers
        assert headers["X-Request-Id"] == "mut-id-9"
        assert result["request_id"] == "mut-id-9"
