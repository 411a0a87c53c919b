"""Kill-and-recover: SIGKILL a real server at every crash point, restart,
verify the recovered state bitwise against an independent replay.

Unlike ``tests/test_faults.py`` (in-process, ``raise`` action), these
tests crash an actual ``repro-serve`` subprocess — ``REPRO_FAULTS``
arms a crash point with the ``kill`` action, concurrent clients put the
server under live mutation/query load until the point fires (SIGKILL:
no cleanup, no flushes, the honest crash), and a fresh server over the
same state directory must recover to exactly the reference replay of
whatever survived on disk.

The invariant, per crash point: **no acknowledged mutation is ever
lost** (every HTTP-200 epoch is present after recovery), unacknowledged
work may be dropped or kept (at-least-once), and the recovered graph is
bitwise equal to replaying the surviving log over the newest snapshot.

The SIGTERM test is the graceful twin: drain under load, exit 0, zero
acknowledged requests lost.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.bfs import run_bfs
from repro.dynamic import DeltaGraph
from repro.faults import CRASH_POINTS
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import symmetrize
from repro.store.delta_log import DeltaLog
from repro.store.snapshot import load_snapshot, save_snapshot

pytestmark = pytest.mark.faults

REPO_ROOT = Path(__file__).resolve().parent.parent
STARTUP_SECONDS = 30.0


@pytest.fixture(scope="module")
def sym():
    return symmetrize(rmat_graph(scale=6, edge_factor=8, seed=33))


@pytest.fixture()
def state_dir(tmp_path, sym):
    save_snapshot(sym, tmp_path / "g.gmsnap")
    (tmp_path / "wal").mkdir()
    return tmp_path


class _Server:
    """One repro-serve subprocess with parsed URL and captured output.

    Every way a server stops — :meth:`kill`, :meth:`wait_dead`, or the
    teardown of a test that failed first — waits for the process, drains
    its output and closes the pipe.
    """

    #: Servers started by the running test (stopped at its teardown).
    live: list["_Server"] = []

    def __init__(self, state_dir: Path, *, faults_spec=None, extra_args=()):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_FAULTS", None)
        if faults_spec:
            env["REPRO_FAULTS"] = faults_spec
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.serve.cli",
                "--graph", f"g={state_dir / 'g.gmsnap'}",
                "--delta-log-dir", str(state_dir / "wal"),
                "--host", "127.0.0.1", "--port", "0",
                "--max-wait-ms", "1",
                *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        _Server.live.append(self)
        self.lines: list[str] = []
        self.url: str | None = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout=STARTUP_SECONDS):
            self.kill()
            raise RuntimeError(
                f"server did not start:\n{''.join(self.lines)}"
            )

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            if "listening on http://" in line:
                self.url = line.split("listening on ")[1].split()[0]
                self._ready.set()
        self._ready.set()  # EOF: unblock a waiter even on startup failure

    def _close(self) -> None:
        """After the process exited: read its output to EOF, close the pipe."""
        self._reader.join(timeout=10.0)
        self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=10.0)
        self._close()

    def wait_dead(self, timeout: float) -> bool:
        """Whether the process exits within ``timeout`` (killed if not)."""
        try:
            self.proc.wait(timeout=timeout)
            return True
        except subprocess.TimeoutExpired:
            return False
        finally:
            self.kill()

    def output(self) -> str:
        return "".join(self.lines)


@pytest.fixture(autouse=True)
def _stop_servers():
    yield
    while _Server.live:
        _Server.live.pop().kill()


def _post(url, path, body, timeout=10.0):
    request = urllib.request.Request(
        url + path, data=json.dumps(body).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=timeout) as reply:
        return reply.status, json.loads(reply.read())


def _reference(state_dir: Path, sym):
    """Independent replay of the on-disk state: (epoch, bfs distances)."""
    wal = state_dir / "wal"
    compacted = sorted(
        (int(p.stem.rsplit("epoch", 1)[1]), p)
        for p in wal.glob("g-epoch*.gmsnap")
    )
    if compacted:
        epoch, path = compacted[-1]
        graph = load_snapshot(path)
    else:
        epoch, graph = 0, load_snapshot(state_dir / "g.gmsnap")
    log_path = wal / "g.gmdelta"
    if log_path.exists():
        for batch in DeltaLog(log_path).replay(strict=False):
            if batch.epoch <= epoch:
                continue
            graph = (
                graph if isinstance(graph, DeltaGraph) else DeltaGraph(graph)
            )
            graph = graph.apply_delta(batch.inserts(), batch.deletes())
            epoch = batch.epoch
    return epoch, run_bfs(graph, 0).distances


def _json_distances(distances: np.ndarray) -> list:
    return [float(v) if np.isfinite(v) else None for v in distances]


def _mutation_load(url, acked: list, stop: threading.Event, seed: int):
    """Hammer mutations until the server dies; record acknowledged epochs."""
    rng = np.random.default_rng(seed)
    while not stop.is_set():
        src = rng.integers(0, 64, 4).tolist()
        dst = rng.integers(0, 64, 4).tolist()
        try:
            status, body = _post(
                url, "/graphs/g/edges", {"insert": list(map(list, zip(src, dst)))}
            )
            if status == 200:
                acked.append(body["epoch"])
        except (
            urllib.error.URLError,
            OSError,
            ConnectionError,
            http.client.HTTPException,  # killed mid-body: IncompleteRead
        ):
            return  # the server crashed mid-request: that batch is unacked
        except urllib.error.HTTPError:
            pass


def _verify_recovery(state_dir, sym, acked):
    """Restart over the crashed state; recovered == reference replay."""
    ref_epoch, ref_distances = _reference(state_dir, sym)
    # Zero acknowledged mutations lost: every 200-acked epoch survived.
    if acked:
        assert ref_epoch >= max(acked), (
            f"acked epoch {max(acked)} lost (recovered epoch {ref_epoch})"
        )
    server = _Server(state_dir)
    try:
        status, graphs = _get(server.url, "/graphs")
        assert status == 200
        (entry,) = graphs["graphs"]
        assert entry["epoch"] == ref_epoch
        status, doc = _post(server.url, "/query/bfs", {"graph": "g", "root": 0})
        assert status == 200
        assert doc["values"] == _json_distances(ref_distances)
    finally:
        server.kill()


def _get(url, path, timeout=10.0):
    with urllib.request.urlopen(url + path, timeout=timeout) as reply:
        return reply.status, json.loads(reply.read())


class TestKillAndRecover:
    """SIGKILL at every crash point under live load, then recover."""

    MUTATION_POINTS = (
        "delta_log.append.before",
        "delta_log.append.torn",
        "delta_log.append.after",
    )
    COMPACTION_POINTS = (
        "delta_log.truncate.before",
        "compact.before_snapshot",
        "compact.after_snapshot",
        "snapshot.before_rename",
    )

    @pytest.mark.parametrize("point", MUTATION_POINTS)
    def test_append_window(self, state_dir, sym, point):
        self._crash_under_mutation(state_dir, sym, point, extra_args=())

    @pytest.mark.parametrize("point", COMPACTION_POINTS)
    def test_compaction_window(self, state_dir, sym, point):
        # A tiny threshold makes the very first mutations compact, so
        # the armed point fires within the load window.
        self._crash_under_mutation(
            state_dir, sym, point,
            extra_args=("--compact-threshold", "0.01"),
        )

    def _crash_under_mutation(self, state_dir, sym, point, *, extra_args):
        server = _Server(
            state_dir, faults_spec=f"{point}=kill", extra_args=extra_args
        )
        acked: list = []
        stop = threading.Event()
        threads = [
            threading.Thread(
                target=_mutation_load,
                args=(server.url, acked, stop, seed),
                daemon=True,
            )
            for seed in range(3)
        ]
        for thread in threads:
            thread.start()
        died = server.wait_dead(timeout=60.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=15.0)
        assert died, f"{point} never fired under mutation load"
        assert server.proc.returncode == -signal.SIGKILL
        _verify_recovery(state_dir, sym, acked)

    def test_dispatch_crash(self, state_dir, sym):
        """Dying with admitted queries on the dispatcher thread."""
        server = _Server(
            state_dir, faults_spec="serve.dispatch.before=kill"
        )
        # A couple of durable mutations first, so recovery has real work.
        acked = []
        for i in range(3):
            status, body = _post(
                server.url, "/graphs/g/edges", {"insert": [[i, i + 40]]}
            )
            assert status == 200
            acked.append(body["epoch"])
        with pytest.raises((urllib.error.URLError, OSError, ConnectionError)):
            _post(server.url, "/query/bfs", {"graph": "g", "root": 0})
        assert server.wait_dead(timeout=30.0)
        assert server.proc.returncode == -signal.SIGKILL
        _verify_recovery(state_dir, sym, acked)

    def test_fsync_mode_survives_too(self, state_dir, sym):
        """The torn-append crash with --fsync on: same recovery contract."""
        server = _Server(
            state_dir,
            faults_spec="delta_log.append.torn=kill",
            extra_args=("--fsync",),
        )
        acked: list = []
        stop = threading.Event()
        thread = threading.Thread(
            target=_mutation_load, args=(server.url, acked, stop, 7),
            daemon=True,
        )
        thread.start()
        died = server.wait_dead(timeout=60.0)
        stop.set()
        thread.join(timeout=15.0)
        assert died
        _verify_recovery(state_dir, sym, acked)


class TestGracefulDrain:
    def test_sigterm_loses_zero_acked_requests(self, state_dir, sym):
        """Closed loop: SIGTERM under live load; every ack survives."""
        server = _Server(state_dir)
        acked: list = []
        outcomes: list = []
        stop = threading.Event()

        def load(seed):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                try:
                    if rng.random() < 0.5:
                        status, body = _post(
                            server.url,
                            "/graphs/g/edges",
                            {"insert": [[int(rng.integers(64)),
                                         int(rng.integers(64))]]},
                        )
                        if status == 200:
                            acked.append(body["epoch"])
                        outcomes.append(status)
                    else:
                        status, _body = _post(
                            server.url,
                            "/query/bfs",
                            {"graph": "g", "root": int(rng.integers(64)),
                             "top": 4},
                        )
                        outcomes.append(status)
                except urllib.error.HTTPError as exc:
                    outcomes.append(exc.code)
                except (urllib.error.URLError, OSError, ConnectionError):
                    # Refused after the listener closed: never admitted.
                    outcomes.append("refused")

        threads = [
            threading.Thread(target=load, args=(seed,), daemon=True)
            for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 20.0
        while not acked and time.monotonic() < deadline:
            time.sleep(0.02)
        assert acked, "no mutation was acknowledged before the drain"
        server.proc.send_signal(signal.SIGTERM)
        assert server.wait_dead(timeout=60.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=15.0)
        # Clean exit, drain messages in order.
        assert server.proc.returncode == 0, server.output()
        assert "draining on signal" in server.output()
        assert "drained; exiting" in server.output()
        # Every response the clients saw is a success, a clean retriable
        # refusal, or a connection-level refusal — nothing undefined.
        assert set(outcomes) <= {200, 503, "refused"}
        # Zero acknowledged requests lost: restart and check every acked
        # epoch is present, state bitwise equal to the reference replay.
        _verify_recovery(state_dir, sym, acked)

    def test_sigterm_with_fsync(self, state_dir, sym):
        server = _Server(state_dir, extra_args=("--fsync",))
        status, body = _post(
            server.url, "/graphs/g/edges", {"insert": [[1, 2]]}
        )
        assert status == 200 and body["durable"] is True
        server.proc.send_signal(signal.SIGTERM)
        assert server.wait_dead(timeout=30.0)
        assert server.proc.returncode == 0
        _verify_recovery(state_dir, sym, [body["epoch"]])
