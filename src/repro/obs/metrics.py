"""A dependency-free Prometheus-style metrics registry.

Three instrument kinds, matching the Prometheus data model:

- :class:`Counter` — a monotonically increasing total (requests served,
  cache hits).  Counters here also support :meth:`Counter.set` because
  many of the repo's totals are *mirrored* from existing stats dicts at
  render time rather than incremented on the hot path; Prometheus only
  requires the exposed value never to decrease, which the sources
  (cumulative counts) guarantee.
- :class:`Gauge` — a value that can go up and down (queue depth, epoch
  lag, uptime).
- :class:`Histogram` — fixed cumulative buckets plus ``_sum`` and
  ``_count``, enough for server-side p50/p99 via ``histogram_quantile``.

All instruments are labelled: a metric is declared once with its label
*names* and each observation supplies the label *values*, creating child
series on first use.  One registry-wide lock guards every mutation and
the render pass — observations are a dict lookup plus a float add under
a lock, cheap enough for the serving hot path (``repro-serve`` always
records them, so their cost is inside the ``serve_*`` benchmark
workloads).

Rendering (:meth:`MetricsRegistry.render`) produces the Prometheus text
exposition format (version 0.0.4): ``# HELP`` / ``# TYPE`` headers, one
line per series, label values escaped per the spec.  *Collectors*
registered with :meth:`MetricsRegistry.add_collector` run at the top of
each render so pull-style metrics (mirrored from ``/stats``-era dicts)
are refreshed exactly when scraped instead of on every request.

No third-party dependencies — stdlib only — so the serve layer stays
installable everywhere the engine is.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Iterable

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Metric names per the Prometheus data model.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: Label names; the ``__`` prefix is reserved by Prometheus itself.
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): 1ms .. 30s, roughly 1-2-5 spaced.
#: Wide enough for cache hits (sub-ms) through multi-second engine runs.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` line (backslash and newline only, per spec)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Base: one metric family (name + help + label names + children).

    Children (one per label-value tuple) are plain dict entries; all
    access happens under the owning registry's lock, which the family
    holds a reference to.  Unlabelled metrics have a single child keyed
    by the empty tuple.
    """

    kind = "untyped"

    def __init__(
        self, name: str, help: str, labels: tuple[str, ...],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._lock = lock
        self._children: dict[tuple[str, ...], object] = {}

    def _label_values(self, labels: dict[str, str]) -> tuple[str, ...]:
        if set(labels) != set(self.labels):
            raise ObservabilityError(
                f"metric {self.name!r} declared labels {self.labels}, "
                f"observation supplied {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labels)

    def _series(self, label_values: tuple[str, ...]) -> str:
        if not label_values:
            return self.name
        pairs = ", ".join(
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.labels, label_values)
        )
        return f"{self.name}{{{pairs}}}"

    def _render_header(self, lines: list[str]) -> None:
        lines.append(f"# HELP {self.name} {_escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (>= 0) to the child named by ``labels``."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        key = self._label_values(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def set(self, value: float, **labels: str) -> None:
        """Mirror a cumulative total maintained elsewhere.

        For counters whose source of truth is an existing stats dict
        (scheduler submits, cache hits, ...) refreshed by a render-time
        collector.  The caller owns monotonicity.
        """
        key = self._label_values(labels)
        with self._lock:
            self._children[key] = float(value)

    def value(self, **labels: str) -> float:
        """Current total for one child (0 if never observed)."""
        key = self._label_values(labels)
        with self._lock:
            return float(self._children.get(key, 0.0))

    def render(self, lines: list[str]) -> None:
        self._render_header(lines)
        for key in sorted(self._children):
            lines.append(
                f"{self._series(key)} {_format_value(self._children[key])}"
            )


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = self._label_values(labels)
        with self._lock:
            self._children[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._label_values(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        key = self._label_values(labels)
        with self._lock:
            return float(self._children.get(key, 0.0))

    def render(self, lines: list[str]) -> None:
        self._render_header(lines)
        for key in sorted(self._children):
            lines.append(
                f"{self._series(key)} {_format_value(self._children[key])}"
            )


class Histogram(_Metric):
    """Fixed cumulative buckets + ``_sum`` + ``_count``.

    Buckets are upper bounds (``le`` is inclusive, per Prometheus); the
    implicit ``+Inf`` bucket is always appended.  Each child stores
    per-bucket counts, so an observation is one bisect plus a handful of
    adds under the registry lock.
    """

    kind = "histogram"

    def __init__(
        self, name: str, help: str, labels: tuple[str, ...],
        lock: threading.Lock, buckets: tuple[float, ...],
    ) -> None:
        super().__init__(name, help, labels, lock)
        if not buckets:
            raise ObservabilityError(
                f"histogram {self.name!r} needs at least one bucket"
            )
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ObservabilityError(
                f"histogram {self.name!r} buckets must be strictly "
                f"increasing, got {buckets}"
            )
        if bounds and bounds[-1] == math.inf:
            bounds = bounds[:-1]
        self.buckets = bounds

    def observe(self, value: float, **labels: str) -> None:
        key = self._label_values(labels)
        value = float(value)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = {
                    "counts": [0] * (len(self.buckets) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
                self._children[key] = child
            # Linear scan: bucket lists are short (~15) and the scan is
            # branch-predictable; bisect wins only past ~30 buckets.
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            child["counts"][index] += 1
            child["sum"] += value
            child["count"] += 1

    def child_count(self, **labels: str) -> int:
        """Total observation count for one child (0 if never observed)."""
        key = self._label_values(labels)
        with self._lock:
            child = self._children.get(key)
            return 0 if child is None else int(child["count"])

    def render(self, lines: list[str]) -> None:
        self._render_header(lines)
        for key in sorted(self._children):
            child = self._children[key]
            cumulative = 0
            for bound, count in zip(
                (*self.buckets, math.inf),
                child["counts"],
            ):
                cumulative += count
                le = _format_value(bound)
                pairs = [
                    f'{name}="{_escape_label_value(value)}"'
                    for name, value in zip(self.labels, key)
                ]
                pairs.append(f'le="{le}"')
                lines.append(
                    f"{self.name}_bucket{{{', '.join(pairs)}}} {cumulative}"
                )
            lines.append(
                f"{self._series(key).replace(self.name, self.name + '_sum', 1)}"
                f" {_format_value(child['sum'])}"
            )
            lines.append(
                f"{self._series(key).replace(self.name, self.name + '_count', 1)}"
                f" {child['count']}"
            )


class MetricsRegistry:
    """A named collection of metric families with one shared lock.

    Families are declared once (``counter`` / ``gauge`` / ``histogram``);
    re-declaring an existing name returns the existing family when the
    kind, labels, and (for histograms) buckets match, and raises
    :class:`~repro.errors.ObservabilityError` otherwise — silent
    redefinition is how dashboards break.

    ``render()`` runs registered *collectors* first (outside the lock —
    collectors call instrument methods which take it), then serialises
    every family in registration order.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Metric] = {}
        self._collectors: list[Callable[[], None]] = []

    def _declare(self, cls, name, help, labels, **kwargs) -> _Metric:
        if not _NAME_RE.match(name):
            raise ObservabilityError(f"invalid metric name {name!r}")
        labels = tuple(labels)
        for label in labels:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ObservabilityError(
                    f"invalid label name {label!r} on metric {name!r}"
                )
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                same = type(existing) is cls and existing.labels == labels
                if same and isinstance(existing, Histogram):
                    declared = tuple(
                        float(b) for b in kwargs.get("buckets", ())
                    )
                    if declared and declared[-1] == math.inf:
                        declared = declared[:-1]
                    same = existing.buckets == declared
                if not same:
                    raise ObservabilityError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labels}"
                    )
                return existing
            family = cls(name, help, labels, self._lock, **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str, labels: Iterable[str] = ()
    ) -> Counter:
        """Declare (or fetch) a counter family."""
        return self._declare(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str, labels: Iterable[str] = ()
    ) -> Gauge:
        """Declare (or fetch) a gauge family."""
        return self._declare(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Iterable[str] = (),
    ) -> Histogram:
        """Declare (or fetch) a histogram family with fixed buckets."""
        return self._declare(
            Histogram, name, help, labels, buckets=tuple(buckets)
        )

    def add_collector(self, collect: Callable[[], None]) -> None:
        """Register a callable run at the top of every ``render()``.

        Collectors refresh pull-style metrics from external stats
        sources; they run outside the registry lock (their instrument
        calls take it per observation) and must not raise.
        """
        with self._lock:
            self._collectors.append(collect)

    def names(self) -> tuple[str, ...]:
        """Every registered family name, in registration order.

        The docs lint (``tools/check_metrics_docs.py``) uses this to
        assert the OBSERVABILITY.md catalog is complete.
        """
        with self._lock:
            return tuple(self._families)

    def render(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        with self._lock:
            collectors = list(self._collectors)
        for collect in collectors:
            collect()
        lines: list[str] = []
        with self._lock:
            families = list(self._families.values())
        for family in families:
            with self._lock:
                family.render(lines)
        return "\n".join(lines) + "\n"
