"""The observability layer: metrics registry, tracing, slow-query log,
telemetry wiring, and the engine profiling hook."""

from __future__ import annotations

import json
import logging
import threading
from pathlib import Path

import pytest

from repro.algorithms.batched import bfs_multi_source
from repro.algorithms.bfs import run_bfs
from repro.core.options import EngineOptions
from repro.errors import ObservabilityError, ProgramError
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import symmetrize
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServeTelemetry,
    SlowQueryLog,
    Trace,
    new_request_id,
    sanitize_request_id,
)
from repro.serve import BatchPolicy, GraphRegistry, GraphService

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def sym():
    return symmetrize(rmat_graph(scale=8, edge_factor=8, seed=5))


class _ListHandler(logging.Handler):
    """Captures formatted log messages for assertions."""

    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _capture_logger(name: str) -> tuple[logging.Logger, _ListHandler]:
    logger = logging.getLogger(name)
    logger.propagate = False
    logger.setLevel(logging.DEBUG)
    handler = _ListHandler()
    logger.handlers = [handler]
    return logger, handler


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "A total.", labels=("kind",))
        counter.inc(kind="bfs")
        counter.inc(2, kind="bfs")
        counter.inc(kind="ppr")
        assert counter.value(kind="bfs") == 3
        assert counter.value(kind="ppr") == 1
        assert counter.value(kind="never") == 0

    def test_counter_rejects_negative_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "A total.")
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            counter.inc(-1)

    def test_counter_set_mirrors_external_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "A total.")
        counter.set(41)
        counter.set(42)
        assert counter.value() == 42

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "A gauge.")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12

    def test_label_set_must_match_declaration(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "A total.", labels=("kind",))
        with pytest.raises(ObservabilityError, match="declared labels"):
            counter.inc()
        with pytest.raises(ObservabilityError, match="declared labels"):
            counter.inc(kind="bfs", extra="nope")

    def test_histogram_le_is_inclusive(self):
        """An observation exactly on a bucket bound lands in that
        bucket, per the Prometheus ``le`` (less-or-equal) convention."""
        registry = MetricsRegistry()
        hist = registry.histogram("h", "H.", buckets=(0.1, 1.0))
        hist.observe(0.1)    # == first bound -> first bucket
        hist.observe(0.1001)  # just past -> second bucket
        hist.observe(7.0)    # beyond the last bound -> +Inf only
        text = registry.render()
        assert 'h_bucket{le="0.1"} 1' in text
        assert 'h_bucket{le="1"} 2' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        assert "h_count 3" in text

    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="at least one"):
            registry.histogram("h1", "H.", buckets=())
        with pytest.raises(ObservabilityError, match="strictly"):
            registry.histogram("h2", "H.", buckets=(1.0, 1.0))
        with pytest.raises(ObservabilityError, match="strictly"):
            registry.histogram("h3", "H.", buckets=(2.0, 1.0))

    def test_histogram_child_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "h", "H.", buckets=(1.0,), labels=("kind",)
        )
        assert hist.child_count(kind="bfs") == 0
        hist.observe(0.5, kind="bfs")
        hist.observe(2.5, kind="bfs")
        assert hist.child_count(kind="bfs") == 2


class TestRegistry:
    def test_redeclaration_returns_existing_family(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "A total.", labels=("kind",))
        second = registry.counter("c_total", "A total.", labels=("kind",))
        assert first is second

    def test_conflicting_redeclaration_raises(self):
        registry = MetricsRegistry()
        registry.counter("m", "M.", labels=("kind",))
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.gauge("m", "M.", labels=("kind",))
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.counter("m", "M.", labels=("other",))
        registry.histogram("h", "H.", buckets=(1.0, 2.0))
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.histogram("h", "H.", buckets=(1.0, 3.0))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="invalid metric name"):
            registry.counter("0bad", "Bad.")
        with pytest.raises(ObservabilityError, match="invalid metric name"):
            registry.counter("has space", "Bad.")
        with pytest.raises(ObservabilityError, match="invalid label name"):
            registry.counter("ok_total", "Ok.", labels=("0bad",))
        with pytest.raises(ObservabilityError, match="invalid label name"):
            registry.counter("ok2_total", "Ok.", labels=("__reserved",))

    def test_names_in_registration_order(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "B.")
        registry.gauge("a", "A.")
        assert registry.names() == ("b_total", "a")

    def test_collector_runs_at_render(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "Depth.")
        source = {"depth": 0}
        registry.add_collector(lambda: gauge.set(source["depth"]))
        source["depth"] = 7
        assert "depth 7" in registry.render()
        source["depth"] = 3
        assert "depth 3" in registry.render()

    def test_concurrent_increments_are_lossless(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "C.", labels=("worker",))
        hist = registry.histogram("h", "H.", buckets=(0.5,))
        n_threads, per_thread = 16, 1000

        def work(worker: int) -> None:
            for i in range(per_thread):
                counter.inc(worker=str(worker % 4))
                hist.observe(i % 2)  # alternates the two buckets
                if i % 100 == 0:
                    registry.render()  # scrapes interleave with writes

        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = sum(counter.value(worker=str(w)) for w in range(4))
        assert total == n_threads * per_thread
        assert hist.child_count() == n_threads * per_thread


class TestPrometheusExposition:
    def test_golden_render(self):
        """Byte-exact exposition for a small fixed registry — the
        contract a real Prometheus scraper parses."""
        registry = MetricsRegistry()
        requests = registry.counter(
            "app_requests_total", "Requests served.", labels=("kind",)
        )
        requests.inc(kind="bfs")
        requests.inc(2, kind="ppr")
        depth = registry.gauge("app_queue_depth", "Queue depth.")
        depth.set(3)
        latency = registry.histogram(
            "app_latency_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        latency.observe(0.05)
        latency.observe(0.5)
        latency.observe(5.0)
        assert registry.render() == (
            "# HELP app_requests_total Requests served.\n"
            "# TYPE app_requests_total counter\n"
            'app_requests_total{kind="bfs"} 1\n'
            'app_requests_total{kind="ppr"} 2\n'
            "# HELP app_queue_depth Queue depth.\n"
            "# TYPE app_queue_depth gauge\n"
            "app_queue_depth 3\n"
            "# HELP app_latency_seconds Latency.\n"
            "# TYPE app_latency_seconds histogram\n"
            'app_latency_seconds_bucket{le="0.1"} 1\n'
            'app_latency_seconds_bucket{le="1"} 2\n'
            'app_latency_seconds_bucket{le="+Inf"} 3\n'
            "app_latency_seconds_sum 5.55\n"
            "app_latency_seconds_count 3\n"
        )

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "C.", labels=("path",))
        counter.inc(path='a\\b"c\nd')
        assert r'c_total{path="a\\b\"c\nd"} 1' in registry.render()

    def test_help_escaping_and_trailing_newline(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "Line one\nline two.")
        text = registry.render()
        assert "# HELP c_total Line one\\nline two." in text
        assert text.endswith("\n")

    def test_integer_values_render_without_decimal(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "G.")
        gauge.set(42.0)
        assert "g 42\n" in registry.render()
        gauge.set(42.5)
        assert "g 42.5\n" in registry.render()


# ----------------------------------------------------------------------
# Tracing & the slow-query log
# ----------------------------------------------------------------------
class TestTrace:
    def test_spans_record_relative_ms_on_injected_clock(self):
        now = [100.0]
        trace = Trace("rid-1", clock=lambda: now[0])
        trace.add("admitted", tenant=None)
        now[0] = 100.010
        trace.add("enqueued", pending=2)
        now[0] = 100.250
        trace.add("responded", status="ok")
        assert trace.span_names() == ["admitted", "enqueued", "responded"]
        document = trace.to_dict()
        assert document["request_id"] == "rid-1"
        assert [s["t_ms"] for s in document["spans"]] == [0.0, 10.0, 250.0]
        assert document["spans"][1]["pending"] == 2
        assert trace.elapsed_ms() == pytest.approx(250.0)

    def test_generated_id_when_none_supplied(self):
        assert len(Trace().request_id) == 32

    def test_trace_is_json_serializable(self):
        trace = Trace()
        trace.add("admitted", tenant="acme")
        json.dumps(trace.to_dict())  # must not raise


class TestSanitizeRequestId:
    @pytest.mark.parametrize("raw", [
        "abc", "A-b_c.9", "x" * 128, "089f013a5b214872b060ec754d5c469e",
        " padded \t",
    ])
    def test_accepts_well_formed(self, raw):
        assert sanitize_request_id(raw) == raw.strip()

    def test_accepts_generated_id(self):
        # Kept out of the parametrization above: a random id would give
        # the case a different name on every collection.
        rid = new_request_id()
        assert sanitize_request_id(rid) == rid

    @pytest.mark.parametrize("raw", [
        None, "", "   ", "x" * 129, "has space", "semi;colon",
        "new\nline", 'quo"te', "non-ascii-é",
    ])
    def test_rejects_everything_else(self, raw):
        assert sanitize_request_id(raw) is None


class TestSlowQueryLog:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="> 0"):
            SlowQueryLog(0.0)
        with pytest.raises(ValueError, match="> 0"):
            SlowQueryLog(-5.0)

    def test_under_threshold_is_silent(self):
        logger, handler = _capture_logger("test.slowquery.silent")
        log = SlowQueryLog(100.0, logger=logger)
        trace = Trace("rid-fast")
        assert log.maybe_log(trace, 100.0) is False  # at threshold: free
        assert log.maybe_log(trace, 12.0) is False
        assert handler.messages == []
        assert log.logged == 0

    def test_over_threshold_emits_one_json_line(self):
        logger, handler = _capture_logger("test.slowquery.hit")
        log = SlowQueryLog(100.0, logger=logger)
        now = [5.0]
        trace = Trace("rid-slow", clock=lambda: now[0])
        trace.add("admitted", tenant=None)
        now[0] = 5.150
        trace.add("responded", status="ok")
        assert log.maybe_log(
            trace, 150.0, graph="g", kind="bfs", status="ok"
        ) is True
        assert log.logged == 1
        assert len(handler.messages) == 1
        record = json.loads(handler.messages[0])
        assert record["slow_query_ms"] == 150.0
        assert record["threshold_ms"] == 100.0
        assert record["graph"] == "g"
        assert record["request_id"] == "rid-slow"
        assert [s["span"] for s in record["spans"]] == [
            "admitted", "responded",
        ]


# ----------------------------------------------------------------------
# The engine profiling hook
# ----------------------------------------------------------------------
class TestProfileHook:
    def test_non_callable_hook_rejected(self):
        with pytest.raises(ProgramError, match="profile_hook"):
            EngineOptions(profile_hook="not-callable")

    def test_hook_excluded_from_options_equality(self):
        assert EngineOptions(profile_hook=lambda s: None) == EngineOptions()

    def test_sequential_run_reports_every_superstep(self, sym):
        ticks = []
        result = run_bfs(
            sym, 1, options=EngineOptions(profile_hook=ticks.append)
        )
        assert len(ticks) == result.stats.n_supersteps
        assert [t.iteration for t in ticks] == list(range(len(ticks)))
        assert all(t.seconds >= 0.0 for t in ticks)

    def test_batched_run_reports_every_superstep(self, sym):
        ticks = []
        results = bfs_multi_source(
            sym, [1, 2, 3],
            options=EngineOptions(profile_hook=ticks.append),
        )
        assert results.run.n_supersteps == len(ticks)
        assert len(ticks) > 0


# ----------------------------------------------------------------------
# ServeTelemetry end to end
# ----------------------------------------------------------------------
class TestServeTelemetry:
    def _service(self, sym, **telemetry_kwargs):
        registry = GraphRegistry()
        registry.add_graph("g", sym)
        telemetry = ServeTelemetry(**telemetry_kwargs)
        service = GraphService(
            registry,
            policy=BatchPolicy(max_batch_k=4, max_wait_ms=5.0),
            telemetry=telemetry,
        )
        return service, telemetry

    def test_request_metrics_and_trace_timeline(self, sym):
        service, telemetry = self._service(sym)
        with service:
            first = service.query("g", "bfs", {"root": 1})
            second = service.query("g", "bfs", {"root": 1})
        assert not first.cached and second.cached
        # The uncached request walked the whole pipeline, in order.
        assert first.trace.span_names() == [
            "admitted", "cache_lookup", "enqueued", "dispatched",
            "engine_start", "engine_end", "responded",
        ]
        # The cache hit never touched the scheduler or the engine.
        assert second.trace.span_names() == [
            "admitted", "cache_lookup", "responded",
        ]
        assert first.request_id and second.request_id
        assert first.request_id != second.request_id
        text = telemetry.registry.render()
        assert (
            'repro_requests_total{graph="g", kind="bfs", status="ok"} 1'
            in text
        )
        assert (
            'repro_requests_total{graph="g", kind="bfs", status="cached"} 1'
            in text
        )
        assert 'repro_request_latency_seconds_bucket{graph="g", kind="bfs", le="+Inf"} 2' in text
        assert "repro_batch_lanes_count 1" in text
        assert "repro_cache_hits_total 1" in text
        assert "repro_cache_misses_total 1" in text
        assert "repro_engine_supersteps_total" in text
        assert 'repro_service_queries_total{kind="bfs"} 2' in text
        assert 'repro_engine_kernel_blocks_total{kernel=' in text
        assert 'repro_graph_epoch{graph="g"} 0' in text

    def test_explicit_request_id_round_trips(self, sym):
        service, _telemetry = self._service(sym)
        with service:
            result = service.query(
                "g", "bfs", {"root": 2}, request_id="my-req-7"
            )
        assert result.request_id == "my-req-7"
        assert result.trace.to_dict()["request_id"] == "my-req-7"
        assert result.to_dict()["request_id"] == "my-req-7"

    def test_engine_end_span_carries_superstep_profile(self, sym):
        service, _telemetry = self._service(sym)
        with service:
            result = service.query("g", "bfs", {"root": 1})
        spans = result.trace.to_dict()["spans"]
        engine_end = next(s for s in spans if s["span"] == "engine_end")
        assert engine_end["supersteps"] > 0
        profile = engine_end["profile"]
        assert len(profile) == engine_end["supersteps"]
        assert [p["iteration"] for p in profile] == list(range(len(profile)))
        for tick in profile:
            assert set(tick) == {
                "iteration", "seconds", "frontier_density",
                "edges_processed",
            }

    def test_slow_query_log_dumps_full_timeline(self, sym):
        logger, handler = _capture_logger("test.slowquery.e2e")
        service, telemetry = self._service(
            sym, slow_query_ms=1e-4, logger=logger
        )
        with service:
            service.query("g", "bfs", {"root": 3})
        assert telemetry.slow_log.logged == 1
        record = json.loads(handler.messages[0])
        assert record["graph"] == "g" and record["kind"] == "bfs"
        assert record["status"] == "ok"
        assert [s["span"] for s in record["spans"]] == [
            "admitted", "cache_lookup", "enqueued", "dispatched",
            "engine_start", "engine_end", "responded",
        ]
        timestamps = [s["t_ms"] for s in record["spans"]]
        assert timestamps == sorted(timestamps)
        assert "repro_slow_queries_total 1" in telemetry.registry.render()

    def test_uptime_is_monotonic_and_started_at_wall(self, sym):
        service, telemetry = self._service(sym)
        with service:
            stats = service.stats()
            assert stats["uptime_seconds"] >= 0.0
            assert stats["started_at"] > 1e9  # a wall-clock epoch stamp
            later = service.stats()["uptime_seconds"]
            assert later >= stats["uptime_seconds"]
            text = telemetry.registry.render()
        assert "repro_service_uptime_seconds" in text

    def test_collector_failure_is_counted_not_raised(self, sym):
        telemetry = ServeTelemetry()

        class _Broken:
            def stats(self):
                raise RuntimeError("boom")

        telemetry.bind_service(_Broken())
        text = telemetry.registry.render()  # must not raise
        assert "repro_obs_collect_errors_total 1" in text

    def test_catalog_registered_before_any_traffic(self):
        telemetry = ServeTelemetry()
        names = telemetry.registry.names()
        assert "repro_requests_total" in names
        assert "repro_replication_epoch_lag" in names
        # The unbound render still exposes every family header.
        text = telemetry.registry.render()
        for name in names:
            assert f"# TYPE {name} " in text


def test_every_registered_metric_is_documented():
    """docs/OBSERVABILITY.md's catalog must cover the full registry —
    the same check CI runs via tools/check_metrics_docs.py."""
    doc = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
    telemetry = ServeTelemetry()
    missing = [
        name for name in telemetry.registry.names() if name not in doc
    ]
    assert not missing, f"undocumented metrics: {missing}"
