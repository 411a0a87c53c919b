"""Hosting ``repro-serve`` for the serve workloads and loading it.

Untraced runs drive the shipped CLI as a real subprocess on ``--port 0``
with its defaults and read its CPU time and peak RSS from ``/proc``.
Traced runs host the same stack in this process
(``repro.serve.cli.build_service`` + ``make_server`` on a thread) so the
wrappers in :mod:`tracing` see both sides of the socket.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import GRAPH_NAME

_LISTENING = re.compile(r"listening on (http://[\w.\-]+:\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: Seconds allowed for the server to come up / drain.
START_TIMEOUT, STOP_TIMEOUT = 60.0, 40.0
#: Verified responses kept per serve workload (split across clients).
SAMPLE_SIZE = 32


class ServerProcess:
    """``python -m repro.serve.cli`` (the ``repro-serve`` entry point)."""

    def __init__(
        self, snapshot: Path, workdir: Path, env: dict, *, delta_log_dir=None
    ) -> None:
        self._log_path = workdir / f"serve-{snapshot.stem}.log"
        command = [
            sys.executable, "-m", "repro.serve.cli",
            "--graph", f"{GRAPH_NAME}={snapshot}", "--port", "0",
        ]
        if delta_log_dir is not None:
            command += ["--delta-log-dir", str(delta_log_dir)]
        self.spawned_at = time.perf_counter()
        self._log = self._log_path.open("w")
        self.process = subprocess.Popen(
            command, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )
        self.url = ""

    def wait_ready(self, make_client) -> float:
        """Block until ``/healthz/ready`` answers; seconds since spawn."""
        deadline = self.spawned_at + START_TIMEOUT
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                break
            match = _LISTENING.search(self._log_path.read_text())
            if match:
                self.url = match.group(1)
                if make_client(self.url).ready():
                    return time.perf_counter() - self.spawned_at
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(
            f"repro-serve did not become ready:\n{self._log_path.read_text()}"
        )

    def cpu_seconds(self) -> float:
        """user + system CPU of the server so far (``/proc/<pid>/stat``)."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> int:
        """SIGTERM, wait for the drain, return the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        return self.process.returncode


class TargetGone(RuntimeError):
    """A product name the in-process server is built from no longer exists."""


class InProcessServer:
    """The serve stack on a thread of this process, CLI defaults.

    ``repro-serve`` exposes its defaults only through its argument
    parser, and ``main`` cannot run on a thread (it installs signal
    handlers), so the parser is the one non-public name the benchmark
    touches.  It is looked up by name: without it the traced serve runs
    report their in-process metrics as null with a note (:class:`TargetGone`).
    """

    def __init__(self, snapshot: Path, *, delta_log_dir=None) -> None:
        try:
            from repro.serve import cli, make_server

            parser, build_service = cli._build_parser(), cli.build_service
        except (ImportError, AttributeError) as exc:
            raise TargetGone(f"{type(exc).__name__}: {exc}") from exc
        argv = ["--graph", f"{GRAPH_NAME}={snapshot}", "--port", "0"]
        if delta_log_dir is not None:
            argv += ["--delta-log-dir", str(delta_log_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            self.service = build_service(parser.parse_args(argv))
        self._server = make_server(self.service, "127.0.0.1", 0)
        host, port = self._server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._thread.join(timeout=STOP_TIMEOUT)
        self.service.close()
        self._server.server_close()


class Reservoir:
    """Seeded uniform sample of a stream whose length is not known."""

    def __init__(self, size: int, seed) -> None:
        self.size, self.items, self._seen = size, [], 0
        self._rng = random.Random(repr(seed))

    def offer(self, item) -> None:
        self._seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
        else:
            slot = self._rng.randrange(self._seen)
            if slot < self.size:
                self.items[slot] = item


def closed_loop(requests, n_clients: int, seconds: float, seed, send):
    """``n_clients`` threads, each sending its next request on reply.

    ``requests`` is an indexable plan shared by the clients; ``send(c,
    request)`` performs one request on client ``c``'s connection and
    returns the response (raising on a non-200).  Clients stop taking
    work at the deadline or when the plan runs out.  Returns
    per-operation ``(index, latency_ms, error)`` records, the window
    wall time and a seeded sample of ``(request, response)`` pairs for
    verification outside the window.
    """
    ticket = itertools.count()
    records: list[list] = [[] for _ in range(n_clients)]
    samples = [
        Reservoir(SAMPLE_SIZE // n_clients or 1, (seed, c))
        for c in range(n_clients)
    ]
    started = time.perf_counter()
    deadline = started + seconds

    def client(c: int) -> None:
        while time.perf_counter() < deadline:
            index = next(ticket)
            if index >= len(requests):
                return
            begin = time.perf_counter()
            try:
                response = send(c, requests[index])
            except Exception as exc:  # noqa: BLE001 — any failure is a failed op
                records[c].append((index, 0.0, f"{type(exc).__name__}: {exc}"))
                continue
            latency_ms = 1e3 * (time.perf_counter() - begin)
            records[c].append((index, latency_ms, None))
            samples[c].offer((requests[index], response))

    threads = [
        threading.Thread(target=client, args=(c,)) for c in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    flat = sorted(r for per_client in records for r in per_client)
    sample = [item for s in samples for item in s.items]
    return flat, wall, sample
