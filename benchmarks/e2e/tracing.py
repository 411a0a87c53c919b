"""Spans recorded from the benchmark's side of the product's public API.

The traced run wraps the public entry points listed in :data:`TARGETS`
(resolved by name when the run starts; one that is gone is noted and
skipped) and hands the engine a ``profile_hook`` for superstep
durations.  Spans stay in memory and are written out once at exit.  A
layer's *self time* is its spans' duration minus what their child spans
cover; with one client the self times of one request add up to the
time the client observed.  Spans inside ``src/`` are a later change
(ROADMAP item 5); nothing here edits the product.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path

#: (public package, dotted attribute, layer, how to wrap).  ``engine``
#: targets also get the superstep hook; ``request`` targets take their
#: request id from the ``request_id`` keyword and may parent spans that
#: open on other threads (the HTTP handler, the dispatcher).
TARGETS = (
    ("repro.serve", "ServeClient.query", "serve.client", "request"),
    ("repro.serve", "ServeClient.mutate", "serve.client", "request"),
    ("repro.serve", "GraphService.query", "serve.service", "request"),
    ("repro.serve", "GraphService.mutate", "serve.service", "request"),
    ("repro.serve", "ResultCache.get", "serve.cache", "plain"),
    ("repro.serve", "ResultCache.put", "serve.cache", "plain"),
    ("repro.serve", "QueryResult.to_dict", "serve.encode", "plain"),
    ("repro.core", "run_graph_program", "core.engine", "engine"),
    ("repro.core", "run_graph_programs_batched", "core.engine", "engine"),
    ("repro.store", "load_snapshot", "store", "plain"),
    ("repro.store", "ingest_file", "store", "plain"),
    ("repro.dynamic", "DeltaGraph.apply_delta", "dynamic", "plain"),
)
#: Every layer a span can carry; the budget reports each, 0 if unused.
#: ``algorithms`` is the self time of the library calls the workload
#: makes itself (initialisation and result extraction around the engine).
LAYERS = (
    "serve.client",
    "serve.service",
    "serve.cache",
    "serve.encode",
    "core.engine",
    "core.superstep",
    "algorithms",
    "store",
    "dynamic",
)


class Tracer:
    """In-memory span recorder with run-time wrapping of public API."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        #: Targets that could not be resolved: ``{name: reason}``.
        self.missing: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Open request spans, innermost last; parents spans that open
        #: on a thread with no span of its own.  One client, so at most
        #: one request is in flight and the innermost one is the cause.
        self._open_requests: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent_of_new_span(self) -> dict | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._open_requests[-1] if self._open_requests else None

    @contextlib.contextmanager
    def span(self, name: str, layer: str, *, request=None, shared=False):
        """Record one span around the ``with`` body (no-op when disabled)."""
        if not self.enabled:
            yield None
            return
        parent = self._parent_of_new_span()
        record = {
            "id": next(self._ids),
            "name": name,
            "layer": layer,
            "parent": parent["id"] if parent else None,
            "request": request or (parent["request"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
        }
        stack = self._stack()
        stack.append(record)
        if shared:
            self._open_requests.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if shared:
                self._open_requests.remove(record)
            self.spans.append(record)

    def _superstep_hook(self, stats) -> None:
        """``EngineOptions.profile_hook``: one closed span per superstep."""
        if not self.enabled:
            return
        parent = self._parent_of_new_span()
        end = time.perf_counter()
        self.spans.append(
            {
                "id": next(self._ids),
                "name": f"superstep[{stats.iteration}]",
                "layer": "core.superstep",
                "parent": parent["id"] if parent else None,
                "request": parent["request"] if parent else None,
                "start": end - float(stats.seconds),
                "end": end,
            }
        )

    # -- wrapping ------------------------------------------------------------
    def install(self) -> None:
        """Wrap every resolvable target; record the ones that are gone."""
        # Import everything first: rebinding a function (below) has to
        # see every module that has already copied its name.
        for package in {target[0] for target in TARGETS}:
            with contextlib.suppress(ImportError):
                importlib.import_module(package)
        for package, dotted, layer, how in TARGETS:
            label = f"{package}:{dotted}"
            try:
                owner = importlib.import_module(package)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[label] = f"{type(exc).__name__}: {exc}"
                continue
            wrapper = self._wrap(original, dotted, layer, how)
            if path:
                self._patch(owner, attr, wrapper)
            else:
                # ``from x import f`` copies the binding into every
                # importer, so rebind each module-level name that is
                # this function, not just the defining module's.
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro"):
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, original, name: str, layer: str, how: str):
        tracer = self
        signature = inspect.signature(original)
        takes_options = how == "engine" and "options" in signature.parameters
        if how == "engine" and not takes_options:
            self.missing[f"{name}(options=)"] = "no 'options' parameter"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if takes_options:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                options = bound.arguments["options"]
                bound.arguments["options"] = options.with_(
                    profile_hook=_chain(options.profile_hook, tracer._superstep_hook)
                )
                args, kwargs = bound.args, bound.kwargs
            request = kwargs.get("request_id") if how == "request" else None
            with tracer.span(
                name, layer, request=request, shared=how == "request"
            ):
                return original(*args, **kwargs)

        return wrapper

    def write(self, path: Path) -> None:
        origin = min((s["start"] for s in self.spans), default=0.0)
        document = {
            "clock": "perf_counter seconds, relative to the first span",
            "missing_targets": self.missing,
            "spans": [
                {
                    **s,
                    "start": round(s["start"] - origin, 7),
                    "end": round(s["end"] - origin, 7),
                }
                for s in sorted(self.spans, key=lambda s: s["start"])
            ],
        }
        path.write_text(json.dumps(document))


def self_seconds_by_layer(spans: list[dict]) -> dict[str, float]:
    """Sum over ``spans`` of (duration - time covered by child spans)."""
    covered: dict[int, float] = {}
    by_id = {s["id"]: s for s in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            overlap = min(span["end"], parent["end"]) - max(
                span["start"], parent["start"]
            )
            covered[parent["id"]] = covered.get(parent["id"], 0.0) + max(0.0, overlap)
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        own = (span["end"] - span["start"]) - covered.get(span["id"], 0.0)
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + max(0.0, own)
    return totals


def root_seconds(spans: list[dict]) -> float:
    """Total duration of the spans that have no parent."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


def _chain(first, second):
    """Call the caller's own profile hook (if any), then the tracer's."""
    if first is None:
        return second

    def both(stats) -> None:
        first(stats)
        second(stats)

    return both
