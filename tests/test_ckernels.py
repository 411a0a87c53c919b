"""The C kernel loader: where it builds, and every way it falls back.

Each fallback must leave results bit for bit unchanged and say why in
exactly one log line; concurrent first builds must each load a complete
library and leave no partial file behind.  The `+` sweeps and their
NumPy fallback must both be the documented left fold.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import shutil
import signal
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.sssp import run_sssp
from repro.core import ckernels
from repro.core.graph_program import SemiringProgram
from repro.core.semiring import PLUS_TIMES
from repro.core.spmv import _tiled_process_reduce, fold_plus
from repro.graph.generators import rmat_graph
from repro.graph.preprocess import with_random_weights

HAVE_GCC = shutil.which(ckernels.COMPILER) is not None
needs_gcc = pytest.mark.skipif(not HAVE_GCC, reason="no gcc on PATH")


@pytest.fixture(scope="module")
def graph():
    return with_random_weights(rmat_graph(8, 8, seed=42), seed=7)


@pytest.fixture(scope="module")
def expected(graph):
    """SSSP distances as this process computes them by default (module
    scope: resolved before any test's ``fresh`` state)."""
    return _distances(graph)


def _distances(graph):
    root = int(np.bincount(graph.edges.rows).argmax())
    return run_sssp(graph, root).distances


@pytest.fixture
def fresh(monkeypatch, caplog):
    """Forget the process's load outcome (restored afterwards)."""
    for name, value in (
        ("_resolved", False), ("_functions", None),
        ("_reason", None), ("_path", None),
    ):
        monkeypatch.setattr(ckernels, name, value)
    monkeypatch.delenv(ckernels.ENV_SWITCH, raising=False)
    caplog.set_level(logging.INFO, logger=ckernels.logger.name)
    return caplog


@pytest.fixture
def private_source(monkeypatch, tmp_path):
    """The kernel source copied to its own package directory, so the
    cache starts empty."""
    source = tmp_path / "pkg" / "_ckernels.c"
    source.parent.mkdir()
    shutil.copy(ckernels.SOURCE, source)
    monkeypatch.setattr(ckernels, "SOURCE", source)
    return source


def _one_reason(caplog) -> str:
    records = [r for r in caplog.records if r.name == ckernels.logger.name]
    assert len(records) == 1, [r.getMessage() for r in records]
    return records[0].getMessage()


def test_env_switch_runs_the_numpy_fold(fresh, monkeypatch, graph, expected):
    monkeypatch.setenv(ckernels.ENV_SWITCH, "0")
    assert np.array_equal(_distances(graph), expected)
    assert ckernels.status()["loaded"] is False
    assert "REPRO_CKERNELS=0" in _one_reason(fresh)


def test_no_compiler_on_path(fresh, monkeypatch, tmp_path, graph, expected):
    monkeypatch.setenv("PATH", str(tmp_path))
    assert np.array_equal(_distances(graph), expected)
    assert ckernels.status() == {
        "loaded": False, "reason": "no gcc on PATH", "path": None,
    }
    assert "no gcc on PATH" in _one_reason(fresh)


@needs_gcc
def test_source_that_fails_to_compile(fresh, private_source, graph, expected):
    private_source.write_text("this is not C;\n")
    assert np.array_equal(_distances(graph), expected)
    status = ckernels.status()
    assert status["loaded"] is False and "gcc failed" in status["reason"]
    assert "gcc failed" in _one_reason(fresh)
    cache = ckernels.cache_dir()
    assert not any(cache.iterdir())  # no partial library left behind


@pytest.fixture
def unwritable_pycache(private_source, monkeypatch, tmp_path):
    """A regular file where ``__pycache__`` should be (nothing can be
    created there, whatever the user's privileges) and a scratch
    directory standing in for the system temporary directory."""
    ckernels.cache_dir().write_text("")
    ckernels.cache_dir().chmod(0o444)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr("tempfile.gettempdir", lambda: str(scratch))
    return scratch


@needs_gcc
def test_unwritable_pycache_builds_a_private_copy(
    fresh, unwritable_pycache, graph, expected
):
    assert np.array_equal(_distances(graph), expected)
    status = ckernels.status()
    assert status["loaded"] is True
    assert Path(status["path"]).parent.parent == unwritable_pycache
    assert not any(unwritable_pycache.iterdir())  # deleted once loaded
    assert "not writable" in _one_reason(fresh)


@needs_gcc
def test_library_planted_in_tempdir_is_not_loaded(
    fresh, unwritable_pycache, graph, expected
):
    # Anyone can work out the library's name and write to the shared
    # temporary directory; a file waiting there must never be loaded.
    planted = unwritable_pycache / ckernels._library_name(ckernels.COMPILER)
    planted.write_bytes(b"not a shared object")
    assert np.array_equal(_distances(graph), expected)
    status = ckernels.status()
    assert status["loaded"] is True
    assert Path(status["path"]) != planted
    assert planted.read_bytes() == b"not a shared object"
    assert list(unwritable_pycache.iterdir()) == [planted]
    assert "not writable" in _one_reason(fresh)


def test_fork_during_first_build_does_not_deadlock(fresh, monkeypatch):
    # Another thread holding the lock through its first build when this
    # one forks: the child must resolve on its own, not wait for ever.
    monkeypatch.setenv(ckernels.ENV_SWITCH, "0")  # the child resolves fast
    with ckernels._lock:
        with warnings.catch_warnings():
            # Python 3.12+ warns on forking a multi-threaded process;
            # threads left by other tests are not this test's concern.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            os._exit(0 if ckernels.status()["loaded"] is False else 1)
    deadline = time.monotonic() + 60
    while True:
        done, code = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child blocked on the loader lock")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(code) == 0


@needs_gcc
def test_cached_library_is_reused(
    fresh, private_source, monkeypatch, graph, expected
):
    assert np.array_equal(_distances(graph), expected)
    first = ckernels.status()["path"]
    monkeypatch.setattr(ckernels, "_resolved", False)
    assert ckernels.status()["path"] == first
    assert [p.name for p in ckernels.cache_dir().iterdir()] == [Path(first).name]


def _first_build(source: str, barrier, results) -> None:
    ckernels.SOURCE = Path(source)
    barrier.wait()
    results.put(ckernels.status())


@needs_gcc
def test_concurrent_first_builds(private_source, monkeypatch):
    monkeypatch.delenv(ckernels.ENV_SWITCH, raising=False)  # children inherit it
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(2)
    results = context.Queue()
    workers = [
        context.Process(
            target=_first_build, args=(str(private_source), barrier, results)
        )
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    statuses = [results.get(timeout=120) for _ in workers]
    for worker in workers:
        worker.join(timeout=120)
        assert worker.exitcode == 0
    assert all(s["loaded"] for s in statuses), statuses
    assert statuses[0]["path"] == statuses[1]["path"]
    left = sorted(p.name for p in ckernels.cache_dir().iterdir())
    assert left == [Path(statuses[0]["path"]).name]


# ----------------------------------------------------------------------
# The `+` sweeps: the left fold from +0.0, in C and in NumPy
# ----------------------------------------------------------------------
#: ``plus-first`` and ``plus-times``.
PLUS_PROGRAMS = (PageRankProgram(), SemiringProgram(PLUS_TIMES))

_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]), st.floats()
)


@st.composite
def plus_groups(draw):
    """K = 1..17 lanes over destination groups of one edge, a few, and
    more than 128 (where ``np.add.reduceat`` sums pairwise)."""
    k = draw(st.integers(1, 17))
    n = draw(st.integers(1, 12))
    sizes = draw(
        st.lists(
            st.one_of(st.just(1), st.integers(2, 8), st.integers(129, 260)),
            min_size=1, max_size=5,
        )
    )
    edges = sum(sizes)
    starts = np.cumsum([0] + sizes[:-1]).astype(np.int64)
    cols = np.asarray(
        draw(st.lists(st.integers(0, n - 1), min_size=edges, max_size=edges)),
        dtype=np.int64,
    )
    vals = np.asarray(
        draw(st.lists(_VALUES, min_size=edges, max_size=edges)),
        dtype=np.float64,
    )
    x = np.asarray(
        draw(st.lists(_VALUES, min_size=k * n, max_size=k * n)),
        dtype=np.float64,
    ).reshape(k, n)
    return x, cols, vals, starts, edges


def _left_fold(program, x, cols, vals, starts, edges) -> np.ndarray:
    """Each lane's groups added left to right, from +0.0, in Python."""
    with np.errstate(invalid="ignore", over="ignore"):
        messages = program.process_message_lanes(x[:, cols], vals, None)
    ends = np.append(starts[1:], edges)
    out = np.empty((x.shape[0], starts.shape[0]))
    for lane, row in enumerate(messages.tolist()):
        for g, (lo, hi) in enumerate(zip(starts, ends)):
            acc = 0.0
            for v in row[lo:hi]:
                acc += v
            out[lane, g] = acc
    return out


def _fold_plus(program, x, cols, vals, starts, edges) -> np.ndarray:
    """The oracle: ``spmv.fold_plus`` over each lane's messages."""
    with np.errstate(invalid="ignore", over="ignore"):
        messages = program.process_message_lanes(x[:, cols], vals, None)
    group_ids = np.zeros(edges, dtype=np.int64)
    group_ids[starts[1:]] = 1
    np.cumsum(group_ids, out=group_ids)
    return fold_plus(messages, group_ids, starts.shape[0])


def _assert_same_bits(got, want):
    """Every bit, the sign of a zero included; a NaN's payload is free."""
    assert got.shape == want.shape and got.dtype == want.dtype
    same = (got.view(np.int64) == want.view(np.int64)) | (
        np.isnan(got) & np.isnan(want)
    )
    assert same.all(), (got[~same], want[~same])


@given(data=plus_groups())
@settings(max_examples=40, deadline=None)
def test_numpy_plus_fold_is_the_left_fold(data):
    x, cols, vals, starts, edges = data
    for program in PLUS_PROGRAMS:
        _assert_same_bits(
            _fold_plus(program, x, cols, vals, starts, edges),
            _left_fold(program, x, cols, vals, starts, edges),
        )


@given(data=plus_groups())
@settings(max_examples=40, deadline=None)
def test_csr_plus_fallback_is_fold_plus(data):
    """Without the library the keyed `+` programs fold through scipy's
    CSR product: the oracle's bits."""
    x, cols, vals, starts, edges = data
    with mock.patch.object(ckernels, "_ensure", return_value=None):
        for program in PLUS_PROGRAMS:
            with np.errstate(invalid="ignore", over="ignore"):
                got = _tiled_process_reduce(
                    program, x, cols, vals, starts, edges, None, None
                )
            _assert_same_bits(
                got, _fold_plus(program, x, cols, vals, starts, edges)
            )


@given(data=plus_groups())
@settings(max_examples=40, deadline=None)
def test_c_plus_sweeps_are_the_left_fold(data):
    # Resolved here, not at import: the spawned builders above import
    # this module and must not load the library first.
    status = ckernels.status()
    if not status["loaded"]:
        pytest.skip(f"C kernels not loaded: {status['reason']}")
    x, cols, vals, starts, edges = data
    for program in PLUS_PROGRAMS:
        got = ckernels.lane_sweep(
            program.lane_kernel, x, cols, vals, starts, edges
        )
        _assert_same_bits(
            got, _fold_plus(program, x, cols, vals, starts, edges)
        )
