"""Graceful degradation: drain ordering, readiness, durability acks.

The contract under test: once a drain begins, *new* work is refused
with a retriable 503 while every *admitted* request still completes —
``close()`` stops admission, drains the micro-batcher, then fsyncs the
delta logs, in that order.  The subprocess SIGTERM version (a real
signal into a real server under load) lives in
``tests/test_faults_harness.py``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ReadOnlyServiceError,
    ServiceDrainingError,
)
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import symmetrize
from repro.serve import BatchPolicy, GraphRegistry, GraphService, make_server


@pytest.fixture(scope="module")
def sym():
    return symmetrize(rmat_graph(scale=7, edge_factor=8, seed=9))


def _service(sym, **kwargs) -> GraphService:
    registry = GraphRegistry()
    registry.add_graph("g", sym)
    kwargs.setdefault(
        "policy", BatchPolicy(max_batch_k=4, max_wait_ms=20.0)
    )
    return GraphService(registry, **kwargs)


class TestDrainOrdering:
    def test_inflight_queries_complete_through_close(self, sym):
        """Regression: queries admitted before close() must all resolve.

        The old close() shut the batcher down without first refusing new
        work, so a request racing the shutdown could be admitted by a
        scheduler already closing.  Now: admission off first, then the
        batcher drains everything it accepted.
        """
        service = _service(sym)
        results, errors = [], []
        started = threading.Barrier(9)

        def ask(root):
            started.wait()
            try:
                results.append(service.query("g", "bfs", {"root": root}))
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=ask, args=(root,)) for root in range(8)
        ]
        for thread in threads:
            thread.start()
        started.wait()  # all request threads are past the gate
        time.sleep(0.005)  # let them reach submit
        service.close()
        for thread in threads:
            thread.join(timeout=30.0)
        # Every admitted query resolved with a real result; late arrivals
        # (if any) failed with the *draining* refusal, nothing else.
        assert not [e for e in errors if not isinstance(e, ServiceDrainingError)]
        assert len(results) + len(errors) == 8
        for result in results:
            assert result.values.shape[0] == sym.n_vertices

    def test_draining_refuses_new_work_but_close_is_idempotent(self, sym):
        service = _service(sym)
        assert service.ready() == (True, "ok")
        service.begin_drain()
        assert service.draining
        assert service.ready() == (False, "draining")
        with pytest.raises(ServiceDrainingError):
            service.query("g", "bfs", {"root": 0})
        with pytest.raises(ServiceDrainingError):
            service.mutate("g", inserts=([0], [1]))
        service.close()
        service.close()  # idempotent

    def test_close_syncs_delta_logs(self, sym, tmp_path):
        service = _service(sym, delta_log_dir=tmp_path)
        service.mutate("g", inserts=([0, 1], [2, 3]))
        service.close()
        # After close the log is complete and strict-valid on disk.
        from repro.store.delta_log import DeltaLog

        batches = DeltaLog(tmp_path / "g.gmdelta").replay(strict=True)
        assert [b.epoch for b in batches] == [1]

    def test_http_liveness_readiness_split(self, sym):
        import json
        import urllib.error
        import urllib.request

        service = _service(sym)
        server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]

        def get(path):
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}{path}"
                ) as reply:
                    return reply.status, json.loads(reply.read())
            except urllib.error.HTTPError as error:
                with error:
                    return error.code, json.loads(error.read())

        assert get("/healthz/live")[0] == 200
        assert get("/healthz/ready") == (200, {"status": "ready"})
        service.begin_drain()
        assert get("/healthz/live")[0] == 200  # still live while draining
        status, body = get("/healthz/ready")
        assert status == 503 and body["status"] == "draining"
        status, body = get("/healthz")
        assert status == 200 and body["draining"] is True
        server.shutdown()
        server.server_close()
        service.close()


class TestDurabilityAck:
    def test_default_ack_is_not_fsynced(self, sym, tmp_path):
        service = _service(sym, delta_log_dir=tmp_path)
        summary = service.mutate("g", inserts=([0], [1]))
        assert summary["durable"] is False
        service.close()

    def test_fsync_service_acks_durable(self, sym, tmp_path):
        service = _service(sym, delta_log_dir=tmp_path, fsync=True)
        assert service.stats()["fsync"] is True
        summary = service.mutate("g", inserts=([0], [1]))
        assert summary["durable"] is True
        # Per-mutation override in both directions.
        assert service.mutate("g", inserts=([1], [2]), durable=False)[
            "durable"
        ] is False
        service.close()

    def test_per_mutation_durable_override(self, sym, tmp_path):
        service = _service(sym, delta_log_dir=tmp_path)
        summary = service.mutate("g", inserts=([0], [1]), durable=True)
        assert summary["durable"] is True
        service.close()

    def test_memory_only_service_never_acks_durable(self, sym):
        service = _service(sym)
        summary = service.mutate("g", inserts=([0], [1]), durable=True)
        assert summary["durable"] is False  # there is no log to sync
        service.close()

    def test_read_only_service_rejects_mutations(self, sym):
        service = _service(sym, read_only=True)
        with pytest.raises(ReadOnlyServiceError):
            service.mutate("g", inserts=([0], [1]))
        # Reads still work.
        values = service.query("g", "bfs", {"root": 0}).values
        assert np.isfinite(values[0])
        service.close()
