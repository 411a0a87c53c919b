"""Parallel streaming ingest: byte-stability, degenerate inputs, cleanup.

The contract under test (see docs/FORMATS.md "Parallel ingest"): the
``.gmsnap`` a conversion writes is a pure function of the input file and
the conversion options — the worker count, chunk size, and gzip-vs-plain
transport must never change a single output byte.  Alongside that, the
ingest bugfix satellites: degenerate inputs produce valid loadable
snapshots, failures (injected crashes and malformed input alike) leave
no scratch directories or half-written snapshots behind, and the
per-pass counters aggregate across workers to the single-process totals.
"""

from __future__ import annotations

import filecmp
import gzip
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.algorithms.pagerank import run_pagerank
from repro.errors import IOFormatError
from repro.faults import InjectedFault
from repro.graph.io import read_edge_list, read_mtx
from repro.store import ingest_edge_list, ingest_file, ingest_mtx, load_snapshot
from repro.store.cli import main as cli_main
from repro.store.snapshot import open_snapshot


@pytest.fixture(autouse=True)
def disarm():
    """No test leaks armed crash points into the next one."""
    faults.deactivate()
    yield
    faults.deactivate()


def _write_edges(path: Path, n_vertices: int, n_edges: int, *, seed: int,
                 weighted: bool = False, comments: bool = True) -> Path:
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_vertices, size=n_edges)
    dst = rng.integers(0, n_vertices, size=n_edges)
    lines = []
    if comments:
        lines.append("# generated test graph")
    for k in range(n_edges):
        if weighted:
            lines.append(f"{src[k]} {dst[k]} {rng.random():.6f}")
        else:
            lines.append(f"{src[k]} {dst[k]}")
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


def _write_mtx(path: Path, n_vertices: int, n_entries: int, *, seed: int,
               field: str = "real", symmetry: str = "general") -> Path:
    rng = np.random.default_rng(seed)
    rows = rng.integers(1, n_vertices + 1, size=n_entries)
    cols = rng.integers(1, n_vertices + 1, size=n_entries)
    if symmetry == "symmetric":  # store one triangle only
        rows, cols = np.maximum(rows, cols), np.minimum(rows, cols)
    lines = [
        f"%%MatrixMarket matrix coordinate {field} {symmetry}",
        "% generated test graph",
        f"{n_vertices} {n_vertices} {n_entries}",
    ]
    for k in range(n_entries):
        if field == "pattern":
            lines.append(f"{rows[k]} {cols[k]}")
        elif field == "integer":
            lines.append(f"{rows[k]} {cols[k]} {int(rng.integers(1, 9))}")
        else:
            lines.append(f"{rows[k]} {cols[k]} {rng.random():.6f}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _no_scratch_left(temp_dir: Path) -> bool:
    return not list(temp_dir.glob("gm-ingest-*"))


# ---------------------------------------------------------------------------
# Byte-stability: the snapshot is a pure function of input + options.
# ---------------------------------------------------------------------------


class TestByteStability:
    @pytest.mark.parametrize("fmt", ["edgelist", "mtx"])
    def test_snapshot_bytes_independent_of_worker_count(self, tmp_path, fmt):
        if fmt == "edgelist":
            source = _write_edges(tmp_path / "g.el", 80, 400, seed=3)
            ingest = ingest_edge_list
        else:
            source = _write_mtx(
                tmp_path / "g.mtx", 80, 400, seed=3, symmetry="symmetric"
            )
            ingest = ingest_mtx
        kwargs = dict(n_partitions=4, chunk_edges=37, temp_dir=tmp_path)
        reference = tmp_path / "w1.gmsnap"
        ingest(source, reference, workers=1, **kwargs)
        for workers in (2, 4):
            out = tmp_path / f"w{workers}.gmsnap"
            report = ingest(source, out, workers=workers, **kwargs)
            assert report.workers == workers
            assert filecmp.cmp(reference, out, shallow=False), (
                f"{workers}-worker snapshot differs from single-process bytes"
            )

    def test_snapshot_bytes_independent_of_chunk_size(self, tmp_path):
        source = _write_edges(tmp_path / "g.el", 60, 300, seed=5)
        reference = tmp_path / "ref.gmsnap"
        ingest_edge_list(
            source, reference, chunk_edges=7, workers=2, temp_dir=tmp_path
        )
        other = tmp_path / "other.gmsnap"
        ingest_edge_list(
            source, other, chunk_edges=300, workers=3, temp_dir=tmp_path
        )
        assert filecmp.cmp(reference, other, shallow=False)

    def test_gzip_and_plain_produce_identical_arrays(self, tmp_path):
        """Gzip forces stream-mode chunking (no random access); the only
        permitted difference from the offset-mode plain file is the
        recorded source path in the manifest."""
        plain = _write_edges(tmp_path / "g.el", 60, 300, seed=7)
        zipped = tmp_path / "g.el.gz"
        with gzip.open(zipped, "wb") as handle:
            handle.write(plain.read_bytes())
        plain_snap = tmp_path / "plain.gmsnap"
        gzip_snap = tmp_path / "gzip.gmsnap"
        ingest_edge_list(plain, plain_snap, chunk_edges=41, workers=2,
                         temp_dir=tmp_path)
        report = ingest_edge_list(zipped, gzip_snap, chunk_edges=41, workers=2,
                                  temp_dir=tmp_path)
        assert report.extra["chunk_mode"] == "stream"
        a, b = open_snapshot(plain_snap), open_snapshot(gzip_snap)
        assert set(a.arrays_index) == set(b.arrays_index)
        for name in a.arrays_index:
            assert np.array_equal(a.array(name), b.array(name)), name
        doc_a, doc_b = dict(a.document), dict(b.document)
        assert doc_a.pop("meta")["source"] != doc_b.pop("meta")["source"]
        assert doc_a == doc_b

    def test_pagerank_bitwise_parity_with_in_memory_reader(self, tmp_path):
        source = _write_edges(tmp_path / "g.el", 100, 600, seed=9)
        snap = tmp_path / "g.gmsnap"
        ingest_edge_list(source, snap, n_partitions=4, chunk_edges=53,
                         workers=3, temp_dir=tmp_path)
        reference = run_pagerank(read_edge_list(source), max_iterations=5)
        loaded = run_pagerank(load_snapshot(snap), max_iterations=5)
        assert np.array_equal(reference.ranks, loaded.ranks)

    def test_mtx_symmetric_parity_with_in_memory_reader(self, tmp_path):
        source = _write_mtx(tmp_path / "g.mtx", 50, 200, seed=11,
                            symmetry="symmetric")
        snap = tmp_path / "g.gmsnap"
        ingest_mtx(source, snap, n_partitions=3, chunk_edges=17, workers=2,
                   temp_dir=tmp_path)
        reference = run_pagerank(read_mtx(source), max_iterations=5)
        loaded = run_pagerank(load_snapshot(snap), max_iterations=5)
        assert np.array_equal(reference.ranks, loaded.ranks)

    @given(
        seed=st.integers(0, 2**16),
        n_vertices=st.integers(2, 40),
        n_edges=st.integers(0, 120),
        chunk_edges=st.integers(1, 50),
    )
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property_parallel_equals_single(
        self, tmp_path, seed, n_vertices, n_edges, chunk_edges
    ):
        base = tmp_path / f"case-{seed}-{n_vertices}-{n_edges}-{chunk_edges}"
        base.mkdir(exist_ok=True)
        source = _write_edges(base / "g.el", n_vertices, n_edges, seed=seed)
        single = base / "w1.gmsnap"
        parallel = base / "w2.gmsnap"
        r1 = ingest_edge_list(source, single, n_partitions=3,
                              chunk_edges=chunk_edges, workers=1,
                              temp_dir=base)
        r2 = ingest_edge_list(source, parallel, n_partitions=3,
                              chunk_edges=chunk_edges, workers=2,
                              temp_dir=base)
        assert filecmp.cmp(single, parallel, shallow=False)
        assert (r1.n_edges, r1.n_edges_raw, r1.chunks) == (
            r2.n_edges, r2.n_edges_raw, r2.chunks
        )
        assert _no_scratch_left(base)


# ---------------------------------------------------------------------------
# Degenerate inputs must produce valid, loadable snapshots.
# ---------------------------------------------------------------------------


class TestDegenerateInputs:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_edge_file(self, tmp_path, workers):
        source = tmp_path / "empty.el"
        source.write_text("")
        snap = tmp_path / f"empty-w{workers}.gmsnap"
        report = ingest_edge_list(source, snap, workers=workers,
                                  temp_dir=tmp_path)
        assert (report.n_edges, report.n_vertices) == (0, 0)
        graph = load_snapshot(snap, verify=True)
        assert (graph.n_vertices, graph.n_edges) == (0, 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_edge_with_declared_vertices(self, tmp_path, workers):
        source = tmp_path / "empty.el"
        source.write_text("# nothing but comments\n")
        snap = tmp_path / f"declared-w{workers}.gmsnap"
        report = ingest_edge_list(source, snap, n_vertices=10,
                                  workers=workers, temp_dir=tmp_path)
        assert (report.n_edges, report.n_vertices) == (0, 10)
        graph = load_snapshot(snap, verify=True)
        assert (graph.n_vertices, graph.n_edges) == (10, 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_all_comment_mtx(self, tmp_path, workers):
        source = tmp_path / "empty.mtx"
        source.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% nothing stored\n"
            "6 6 0\n"
        )
        snap = tmp_path / f"mtx-w{workers}.gmsnap"
        report = ingest_mtx(source, snap, workers=workers, temp_dir=tmp_path)
        assert (report.n_edges, report.n_vertices) == (0, 6)
        graph = load_snapshot(snap, verify=True)
        assert (graph.n_vertices, graph.n_edges) == (6, 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_single_vertex_self_loop(self, tmp_path, workers):
        source = tmp_path / "one.el"
        source.write_text("0 0\n")
        snap = tmp_path / f"one-w{workers}.gmsnap"
        report = ingest_edge_list(source, snap, n_partitions=8,
                                  workers=workers, temp_dir=tmp_path)
        assert (report.n_edges, report.n_vertices) == (1, 1)
        # Partition count clamps to the vertex count.
        assert report.n_partitions == 1
        graph = load_snapshot(snap, verify=True)
        assert (graph.n_vertices, graph.n_edges) == (1, 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_negative_vertex_id_is_a_clear_error(self, tmp_path, workers):
        source = tmp_path / "neg.el"
        source.write_text("0 1\n2 -3\n")
        with pytest.raises(IOFormatError, match="negative vertex id -3"):
            ingest_edge_list(source, tmp_path / "neg.gmsnap",
                             workers=workers, temp_dir=tmp_path)
        assert _no_scratch_left(tmp_path)


# ---------------------------------------------------------------------------
# Failure paths: no orphaned scratch, no half-written snapshots.
# ---------------------------------------------------------------------------


class TestFailureCleanup:
    @pytest.mark.parametrize("point", [
        "ingest.parse.chunk",
        "ingest.route.shard",
        "ingest.finalize.block",
    ])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_injected_crash_leaves_no_debris(self, tmp_path, point, workers):
        source = _write_edges(tmp_path / "g.el", 40, 200, seed=13)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        snap = tmp_path / "g.gmsnap"
        faults.activate(f"{point}=raise")
        with pytest.raises(InjectedFault):
            ingest_edge_list(source, snap, n_partitions=4, chunk_edges=19,
                             workers=workers, temp_dir=scratch)
        faults.deactivate()
        assert _no_scratch_left(scratch)
        assert not snap.exists()
        assert not list(tmp_path.glob("*.tmp*"))
        # The same conversion succeeds once the fault is gone.
        ingest_edge_list(source, snap, n_partitions=4, chunk_edges=19,
                         workers=workers, temp_dir=scratch)
        assert load_snapshot(snap, verify=True).n_vertices > 0
        assert _no_scratch_left(scratch)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_malformed_input_mid_file_cleans_up(self, tmp_path, workers):
        source = tmp_path / "bad.el"
        lines = [f"{k % 10} {(k * 7) % 10}" for k in range(100)]
        lines[73] = "3 not-a-number"
        source.write_text("\n".join(lines) + "\n")
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        snap = tmp_path / "bad.gmsnap"
        with pytest.raises(IOFormatError, match="malformed numeric field"):
            ingest_edge_list(source, snap, chunk_edges=11, workers=workers,
                             temp_dir=scratch)
        assert _no_scratch_left(scratch)
        assert not snap.exists()

    def test_missing_source_leaves_no_scratch(self, tmp_path):
        """An unopenable source fails before the pipeline starts; the
        freshly made scratch directory must not be orphaned."""
        with pytest.raises(OSError):
            ingest_edge_list(tmp_path / "does-not-exist.el",
                             tmp_path / "x.gmsnap", temp_dir=tmp_path)
        assert _no_scratch_left(tmp_path)

    def test_mtx_nnz_mismatch_cleans_up(self, tmp_path):
        source = tmp_path / "short.mtx"
        source.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "5 5 4\n"
            "1 2\n2 3\n"
        )
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        with pytest.raises(IOFormatError, match="declared nnz=4 but read 2"):
            ingest_mtx(source, tmp_path / "short.gmsnap", workers=2,
                       chunk_edges=1, temp_dir=scratch)
        assert _no_scratch_left(scratch)


# ---------------------------------------------------------------------------
# Counter aggregation across workers.
# ---------------------------------------------------------------------------


class TestCounterAggregation:
    def test_counters_match_single_process(self, tmp_path):
        source = _write_edges(tmp_path / "g.el", 70, 500, seed=17)
        reports = {}
        for workers in (1, 2, 4):
            snap = tmp_path / f"g-w{workers}.gmsnap"
            reports[workers] = ingest_edge_list(
                source, snap, n_partitions=4, chunk_edges=43,
                workers=workers, temp_dir=tmp_path,
            )
        single = reports[1]
        assert single.chunks >= 2  # small chunk_edges forces real chunking
        for workers, report in reports.items():
            assert report.chunks == single.chunks
            assert report.n_edges == single.n_edges
            assert report.n_edges_raw == single.n_edges_raw
            assert report.peak_partition_edges == single.peak_partition_edges
            assert report.snapshot_bytes == single.snapshot_bytes
            assert report.workers == workers
            assert report.parse_seconds >= 0.0
            assert report.route_seconds >= 0.0
            assert report.finalize_seconds >= 0.0
            assert report.total_seconds >= report.parse_seconds


# ---------------------------------------------------------------------------
# CLI plumbing.
# ---------------------------------------------------------------------------


class TestCli:
    def test_convert_accepts_workers_and_temp_dir(self, tmp_path, capsys):
        source = _write_edges(tmp_path / "g.el", 30, 150, seed=19)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        snap = tmp_path / "g.gmsnap"
        code = cli_main([
            "convert", str(source), str(snap),
            "--workers", "2", "--temp-dir", str(scratch),
            "--partitions", "3", "--chunk-edges", "29",
        ])
        assert code == 0
        assert "2 workers" in capsys.readouterr().out
        assert _no_scratch_left(scratch)
        # Byte-identical to the API path with the same options.
        api = tmp_path / "api.gmsnap"
        ingest_file(source, api, n_partitions=3, chunk_edges=29, workers=1,
                    temp_dir=scratch)
        assert filecmp.cmp(snap, api, shallow=False)
