"""A retrying HTTP client for ``repro-serve`` deployments.

:class:`ServeClient` wraps one leader (writes) plus any number of
read-only followers (reads) behind per-request deadlines and a retry
policy tuned to how the server actually degrades:

- **503** (overloaded, draining, or a follower past its staleness
  bound) is a *polite* refusal: honor the server's ``Retry-After`` (or
  exponential backoff when absent) and try again — on the **next**
  endpoint for reads, since a draining leader's followers keep serving.
- **504** (the request's deadline fired server-side) is retriable the
  same way — but only while the *caller's* deadline still has room;
  the client never manufactures budget the caller doesn't have.
- **429** (per-tenant quota) raises immediately: the refusal is about
  this tenant's own rate, and hammering other endpoints with the same
  identity would be shed the same way.  Back off at the call site.
- **Connection failures** retry with exponential backoff plus full
  jitter (decorrelated herds when many clients lose one server at
  once), failing over across endpoints for reads.
- **4xx** responses are the caller's fault and raise immediately — a
  malformed query will not become well-formed by retrying, and a 403
  from a follower means the write belongs on the leader.

Deadlines fail fast: every retry sleep is capped by the remaining
deadline, and when the next pause (or the deadline itself) leaves no
room for another attempt the call raises *now*, naming the deadline —
it never sleeps into a deadline it already knows it will miss.  The
remaining budget is forwarded to the server as ``X-Deadline-Ms`` on
every attempt, so server-side admission and cancellation see the
truth, not the original budget.

Each endpoint carries a consecutive-failure **circuit breaker**:
``breaker_threshold`` failures in a row open it for
``breaker_cooldown`` seconds, during which the endpoint is skipped
(no connect timeouts burned on a dead host).  After the cooldown one
trial request is allowed through — success closes the breaker, failure
re-opens it.  When every eligible endpoint is open the call fails
immediately instead of queueing behind timeouts.

Mutations only ever target the leader (followers reject them), and are
retried only on *connection* failures — a timed-out mutation may have
committed, and blind re-send would double-apply; the caller decides.

Every call carries one ``X-Request-Id`` — caller-supplied or generated
once per *call*, not per attempt — so all of a call's retries correlate
to a single id in the server's traces and slow-query log.  The id comes
back on successful responses (``result["request_id"]``) and on raised
:class:`~repro.errors.ClientError`\\ s (``exc.request_id``).

Everything is standard library (``urllib``); a deadline bounds the
whole call including every retry sleep, not one attempt.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request

from repro.errors import ClientError
from repro.obs.tracing import new_request_id, sanitize_request_id

#: Default per-attempt socket timeout (seconds).
DEFAULT_TIMEOUT = 10.0
#: Backoff base/cap for retries without a ``Retry-After`` hint.
BACKOFF_BASE_SECONDS = 0.1
BACKOFF_CAP_SECONDS = 2.0
#: Circuit-breaker defaults: consecutive failures to open, and how long
#: an open breaker skips its endpoint before allowing a trial request.
BREAKER_THRESHOLD = 5
BREAKER_COOLDOWN_SECONDS = 5.0


class _Breaker:
    """Consecutive-failure circuit breaker for one endpoint."""

    __slots__ = ("threshold", "cooldown", "failures", "open_until")

    def __init__(self, threshold: int, cooldown: float) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self.open_until = 0.0

    def allow(self, now: float) -> bool:
        """May a request go to this endpoint right now?

        Closed (under threshold): yes.  Open: no until the cooldown
        elapses, then yes once — the half-open trial; its outcome
        closes or re-opens the breaker.
        """
        return self.failures < self.threshold or now >= self.open_until

    def record_success(self) -> None:
        self.failures = 0
        self.open_until = 0.0

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.failures >= self.threshold:
            self.open_until = now + self.cooldown


class ServeClient:
    """Deadline-aware client over one leader and optional followers."""

    def __init__(
        self,
        leader_url: str,
        followers: list[str] | tuple[str, ...] = (),
        *,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = 3,
        rng: random.Random | None = None,
        tenant: str | None = None,
        breaker_threshold: int = BREAKER_THRESHOLD,
        breaker_cooldown: float = BREAKER_COOLDOWN_SECONDS,
    ) -> None:
        self.leader_url = leader_url.rstrip("/")
        self.followers = [url.rstrip("/") for url in followers]
        self.timeout = float(timeout)
        #: Extra attempts after the first, per call (not per endpoint).
        self.retries = int(retries)
        #: Tenant identity sent as ``X-Tenant`` on every request.
        self.tenant = tenant
        self._rng = rng if rng is not None else random.Random()
        if breaker_threshold < 1:
            raise ClientError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        self._breakers = {
            url: _Breaker(breaker_threshold, float(breaker_cooldown))
            for url in [self.leader_url, *self.followers]
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def query(
        self,
        graph: str,
        kind: str,
        params: dict | None = None,
        *,
        top: int | None = None,
        vertices: list[int] | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
        request_id: str | None = None,
    ) -> dict:
        """POST ``/query/{kind}``; reads fail over leader -> followers.

        ``deadline`` bounds the whole call (attempts + sleeps) *and* is
        forwarded to the server, which refuses, drops, or cancels the
        query once it cannot be answered in time.  ``request_id``
        (generated when None) rides every attempt as ``X-Request-Id``.
        """
        body = {"graph": graph, **(params or {})}
        if top is not None:
            body["top"] = int(top)
        if vertices is not None:
            body["vertices"] = [int(v) for v in vertices]
        return self._call(
            "POST",
            f"/query/{kind}",
            body,
            endpoints=[self.leader_url, *self.followers],
            retry_503=True,
            deadline=deadline,
            tenant=tenant if tenant is not None else self.tenant,
            forward_deadline=True,
            request_id=request_id,
        )

    def mutate(
        self,
        graph: str,
        insert: list | None = None,
        delete: list | None = None,
        *,
        deadline: float | None = None,
        request_id: str | None = None,
    ) -> dict:
        """POST ``/graphs/{graph}/edges`` — leader only, no blind re-send.

        503 (draining/overloaded leader) is retried after the server's
        ``Retry-After``: the mutation was *refused*, not half-applied.
        A transport failure mid-request raises instead — the batch may
        have committed, and replaying it is the caller's call.
        """
        body: dict = {}
        if insert is not None:
            body["insert"] = insert
        if delete is not None:
            body["delete"] = delete
        return self._call(
            "POST",
            f"/graphs/{graph}/edges",
            body,
            endpoints=[self.leader_url],
            retry_503=True,
            retry_transport=False,
            deadline=deadline,
            tenant=self.tenant,
            request_id=request_id,
        )

    def stats(self, *, deadline: float | None = None) -> dict:
        """GET ``/stats`` from the first endpoint that answers."""
        return self._call(
            "GET", "/stats", None,
            endpoints=[self.leader_url, *self.followers],
            retry_503=False, deadline=deadline,
        )

    def ready(self, url: str | None = None) -> bool:
        """One endpoint's readiness (no retries: probes must be honest).

        Bypasses the circuit breaker — probes exist to *discover*
        whether a skipped endpoint came back.
        """
        try:
            self._request(
                url or self.leader_url, "GET", "/healthz/ready", None,
                timeout=self.timeout,
            )
        except (ClientError, _Retryable, OSError):
            return False
        return True

    # ------------------------------------------------------------------
    # The retry engine
    # ------------------------------------------------------------------
    def _call(
        self,
        method: str,
        path: str,
        body: dict | None,
        *,
        endpoints: list[str],
        retry_503: bool,
        retry_transport: bool = True,
        deadline: float | None = None,
        tenant: str | None = None,
        forward_deadline: bool = False,
        request_id: str | None = None,
    ) -> dict:
        # One id for the whole call: every retry attempt (and every
        # failover endpoint) sends the same X-Request-Id, so the server
        # traces of all attempts correlate.
        rid = sanitize_request_id(request_id) or new_request_id()
        give_up_at = (
            time.monotonic() + float(deadline) if deadline is not None else None
        )
        last_error: Exception | None = None
        attempt = 0
        while attempt <= self.retries:
            now = time.monotonic()
            url = self._pick_endpoint(endpoints, attempt, now)
            if url is None:
                raise ClientError(
                    f"{method} {path}: every endpoint's circuit breaker is "
                    f"open ({len(endpoints)} endpoint(s) failing); "
                    f"last error: {last_error}",
                    request_id=rid,
                )
            breaker = self._breakers[url]
            timeout = self.timeout
            headers = {"X-Request-Id": rid}
            if tenant is not None:
                headers["X-Tenant"] = str(tenant)
            if give_up_at is not None:
                remaining = give_up_at - now
                if remaining <= 0:
                    raise ClientError(
                        f"{method} {path}: deadline of {deadline:g}s expired "
                        f"after {attempt} attempt(s); last error: {last_error}",
                        request_id=rid,
                    ) from last_error
                timeout = min(timeout, remaining)
                if forward_deadline:
                    # The server sees what is actually left, not the
                    # original budget — its admission control and
                    # superstep cancellation work off the truth.
                    headers["X-Deadline-Ms"] = f"{remaining * 1e3:.0f}"
            try:
                result = self._request(
                    url, method, path, body,
                    timeout=timeout, headers=headers,
                )
            except _Retryable as exc:
                breaker.record_failure(time.monotonic())
                if not retry_503:
                    raise ClientError(str(exc), request_id=rid) from exc
                last_error = exc
                pause = (
                    exc.retry_after
                    if exc.retry_after is not None
                    else self._backoff(attempt)
                )
            except (urllib.error.URLError, OSError, TimeoutError) as exc:
                breaker.record_failure(time.monotonic())
                if not retry_transport:
                    raise ClientError(
                        f"{method} {url}{path} failed in transit ({exc}); "
                        f"not re-sent — the request may have been applied",
                        request_id=rid,
                    ) from exc
                last_error = exc
                pause = self._backoff(attempt)
            except ClientError as exc:
                # The endpoint answered (a 4xx/429: our request's fault,
                # not the server's health) — that's breaker-success.
                breaker.record_success()
                if exc.request_id is None:
                    exc.request_id = rid
                raise
            else:
                breaker.record_success()
                if isinstance(result, dict):
                    result.setdefault("request_id", rid)
                return result
            attempt += 1
            if attempt > self.retries:
                break
            if give_up_at is not None:
                # Fail fast instead of sleeping into a known miss: when
                # the pause (the server's Retry-After included) doesn't
                # leave room to attempt again before the deadline, the
                # call is already lost — say so now.
                if time.monotonic() + pause >= give_up_at:
                    raise ClientError(
                        f"{method} {path}: next retry would sleep "
                        f"{pause:.2f}s past the {deadline:g}s deadline; "
                        f"failing fast ({last_error})",
                        request_id=rid,
                    ) from last_error
            if pause > 0:
                time.sleep(pause)
        raise ClientError(
            f"{method} {path} failed after {attempt} attempt(s) across "
            f"{len(endpoints)} endpoint(s): {last_error}",
            request_id=rid,
        )

    def _pick_endpoint(
        self, endpoints: list[str], attempt: int, now: float
    ) -> str | None:
        """Round-robin from ``attempt``, skipping open breakers."""
        for offset in range(len(endpoints)):
            url = endpoints[(attempt + offset) % len(endpoints)]
            if self._breakers[url].allow(now):
                return url
        return None

    def _backoff(self, attempt: int) -> float:
        """Full jitter: uniform in [0, min(cap, base * 2^attempt)]."""
        return self._rng.uniform(
            0.0, min(BACKOFF_CAP_SECONDS, BACKOFF_BASE_SECONDS * 2**attempt)
        )

    def _request(
        self,
        url: str,
        method: str,
        path: str,
        body: dict | None,
        *,
        timeout: float,
        headers: dict | None = None,
    ) -> dict:
        data = json.dumps(body).encode() if body is not None else None
        all_headers = {"Content-Type": "application/json"} if data else {}
        all_headers.update(headers or {})
        request = urllib.request.Request(
            url + path, data=data, method=method, headers=all_headers
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return json.loads(response.read() or b"{}")
        except urllib.error.HTTPError as exc:
            with exc:  # read the error body, then free the reply's socket
                payload = exc.read()
            try:
                message = json.loads(payload).get("error", "")
            except (ValueError, AttributeError):
                message = payload.decode("utf-8", "replace")[:200]
            if exc.code in (503, 504):
                header = exc.headers.get("Retry-After") if exc.headers else None
                try:
                    retry_after = float(header) if header is not None else None
                except ValueError:
                    retry_after = None
                raise _Retryable(
                    f"{url}{path}: HTTP {exc.code} ({message})", retry_after
                ) from None
            raise ClientError(
                f"{url}{path}: HTTP {exc.code} ({message})"
            ) from None


class _Retryable(Exception):
    """Internal: a 503/504 refusal, with the server's Retry-After if given."""

    def __init__(self, message: str, retry_after: float | None) -> None:
        super().__init__(message)
        self.retry_after = retry_after
