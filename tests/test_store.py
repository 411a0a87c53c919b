"""Snapshot subsystem tests: container, round-trips, streaming ingest,
engine integration, the repro-convert CLI and the CI regression gate."""

from __future__ import annotations

import gzip
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import run_bfs
from repro.algorithms.pagerank import PageRankProgram, init_pagerank, run_pagerank
from repro.core.engine import run_graph_program
from repro.core.options import DEFAULT_OPTIONS, EngineOptions
from repro.errors import IOFormatError
from repro.graph.builder import build_graph
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list, read_mtx, write_edge_list
from repro.matrix.coo import COOMatrix
from repro.matrix.dcsc import DCSCMatrix
from repro.matrix.partition import PartitionedMatrix
from tests.matrix_helpers import matrices_equal
from repro.store import (
    ALIGNMENT,
    SnapshotReader,
    SnapshotWriter,
    close_snapshots,
    ingest_edge_list,
    ingest_file,
    ingest_mtx,
    load_snapshot,
    open_snapshot,
    read_document,
    save_snapshot,
    sniff_format,
)
from repro.store.cli import main as cli_main

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _pagerank(graph, iterations=4):
    program = PageRankProgram()
    init_pagerank(graph, program)
    run_graph_program(graph, program, EngineOptions(max_iterations=iterations))
    return graph.vertex_properties.data.copy()


# ----------------------------------------------------------------------
# Container layer
# ----------------------------------------------------------------------
class TestContainer:
    def test_array_roundtrip_and_alignment(self, tmp_path):
        path = tmp_path / "c.gmsnap"
        a = np.arange(17, dtype=np.int64)
        b = np.linspace(0, 1, 9)
        with SnapshotWriter(path) as writer:
            writer.add_array("a", a)
            writer.add_array("b", b)
            stream = writer.stream("s", np.int32)
            stream.append(np.arange(5, dtype=np.int32))
            stream.append(np.arange(5, 11, dtype=np.int32))
            writer.close({"hello": 1})
        reader = SnapshotReader(path)
        assert np.array_equal(reader.array("a"), a)
        assert np.array_equal(reader.array("b"), b)
        assert np.array_equal(reader.array("s"), np.arange(11, dtype=np.int32))
        assert reader.document == {"hello": 1}
        for entry in reader.arrays_index.values():
            assert entry["offset"] % ALIGNMENT == 0
        reader.verify()

    def test_mmap_views_share_file_memory(self, tmp_path):
        path = tmp_path / "c.gmsnap"
        with SnapshotWriter(path) as writer:
            writer.add_array("a", np.arange(1000, dtype=np.int64))
            writer.close({})
        view = SnapshotReader(path, mmap=True).array("a")
        assert view.base is not None  # a view, not a copy
        assert not view.flags.writeable

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "c.gmsnap"
        with SnapshotWriter(path) as writer:
            writer.add_array("a", np.arange(64, dtype=np.int64))
            writer.close({})
        reader = SnapshotReader(path, mmap=False)
        offset = reader.arrays_index["a"]["offset"]
        raw = bytearray(path.read_bytes())
        raw[offset] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(IOFormatError, match="checksum"):
            SnapshotReader(path, mmap=False).verify()

    def test_not_a_snapshot(self, tmp_path):
        path = tmp_path / "junk.gmsnap"
        path.write_bytes(b"definitely not a snapshot, but long enough")
        with pytest.raises(IOFormatError):
            SnapshotReader(path)

    def test_duplicate_and_missing_names(self, tmp_path):
        path = tmp_path / "c.gmsnap"
        with SnapshotWriter(path) as writer:
            writer.add_array("a", np.zeros(1))
            with pytest.raises(IOFormatError, match="duplicate"):
                writer.add_array("a", np.zeros(1))
            writer.close({})
        with pytest.raises(IOFormatError, match="no array"):
            SnapshotReader(path).array("nope")

    def test_aborted_write_leaves_nothing(self, tmp_path):
        path = tmp_path / "c.gmsnap"
        with pytest.raises(RuntimeError):
            with SnapshotWriter(path) as writer:
                writer.add_array("a", np.zeros(4))
                raise RuntimeError("boom")
        assert not path.exists()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_read_document_without_data(self, tmp_path):
        path = tmp_path / "c.gmsnap"
        with SnapshotWriter(path) as writer:
            writer.add_array("a", np.zeros(4))
            writer.close({"kind": "test"})
        assert read_document(path)["kind"] == "test"


# ----------------------------------------------------------------------
# Graph snapshots
# ----------------------------------------------------------------------
class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_graph_roundtrip(self, tmp_path, rmat_weighted, mmap):
        path = tmp_path / "g.gmsnap"
        save_snapshot(rmat_weighted, path, n_partitions=4)
        close_snapshots()
        loaded = load_snapshot(path, mmap=mmap)
        assert loaded.n_vertices == rmat_weighted.n_vertices
        assert loaded.n_edges == rmat_weighted.n_edges
        assert matrices_equal(loaded.edges, rmat_weighted.edges)
        view = loaded.peek_partitions("out", 4)
        assert view is not None
        assert matrices_equal(
            view.to_coo(), rmat_weighted.out_partitions(4).to_coo()
        )

    def test_both_directions(self, tmp_path, rmat_small):
        path = tmp_path / "g.gmsnap"
        save_snapshot(rmat_small, path, directions=("out", "in"))
        loaded = load_snapshot(path)
        blocks = DEFAULT_OPTIONS.block_count(rmat_small.n_vertices)
        assert loaded.peek_partitions("out", blocks) is not None
        assert loaded.peek_partitions("in", blocks) is not None

    def test_include_caches_preloads_kernel_caches(self, tmp_path, rmat_small):
        path = tmp_path / "g.gmsnap"
        save_snapshot(rmat_small, path, include_caches=True)
        loaded = load_snapshot(path)
        blocks = DEFAULT_OPTIONS.block_count(rmat_small.n_vertices)
        block = loaded.peek_partitions("out", blocks).blocks[0]
        # Caches were installed from the file, not computed.
        assert block._col_expanded is not None
        assert block._dst_groups is not None
        reference = rmat_small.out_partitions(blocks).blocks[0]
        order, starts, rows = block.dst_groups()
        ref_order, ref_starts, ref_rows = reference.dst_groups()
        assert np.array_equal(order, ref_order)
        assert np.array_equal(starts, ref_starts)
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(block.col_expanded(), reference.col_expanded())

    def test_older_file_naming_its_row_split_loads(
        self, tmp_path, rmat_small, monkeypatch
    ):
        """Older writers stored a ``"strategy"`` per view and could cut
        rows to equal non-zero counts.  Such a file loads; its view is
        found under its block count; runs on it match a fresh graph's
        bit for bit, since results do not depend on where rows are cut."""
        n, n_blocks = rmat_small.n_vertices, 4
        at = rmat_small.edges.transpose()
        cumulative = np.concatenate(
            [[0], np.cumsum(np.bincount(at.rows, minlength=n))]
        )
        bounds = np.searchsorted(
            cumulative, np.linspace(0, cumulative[-1], n_blocks + 1)
        )
        bounds[0], bounds[-1] = 0, n
        ranges = [(int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:])]
        assert ranges != rmat_small.out_partitions(n_blocks).row_ranges()
        path = tmp_path / "older.gmsnap"
        with SnapshotWriter(path) as writer:
            blocks = []
            for p, (lo, hi) in enumerate(ranges):
                keep = (at.rows >= lo) & (at.rows < hi)
                block = DCSCMatrix.from_coo(
                    COOMatrix(at.shape, at.rows[keep], at.cols[keep],
                              at.vals[keep]),
                    row_range=(lo, hi),
                )
                entry = {"row_range": [lo, hi]}
                for key in ("jc", "cp", "ir", "num"):
                    entry[key] = writer.add_array(
                        f"views/0/blocks/{p}/{key}", getattr(block, key)
                    )
                blocks.append(entry)
            edges = rmat_small.edges
            writer.close({
                "kind": "graph",
                "meta": {},
                "graph": {"n_vertices": n, "n_edges": rmat_small.n_edges},
                "edges": {
                    key: writer.add_array(f"edges/{key}", getattr(edges, key))
                    for key in ("rows", "cols", "vals")
                },
                "views": [{
                    "direction": "out",
                    "n_partitions": n_blocks,
                    "strategy": "nnz",
                    "shape": [n, n],
                    "blocks": blocks,
                }],
            })
        loaded = load_snapshot(path)
        stored = loaded.peek_partitions("out", n_blocks)
        assert stored is not None and stored.row_ranges() == ranges

        def boom(*args, **kwargs):
            raise AssertionError("partition rebuild on a loaded snapshot")

        options = EngineOptions(blocks=n_blocks)
        root = int(np.argmax(loaded.out_degrees()))
        monkeypatch.setattr(PartitionedMatrix, "from_coo", boom)
        bfs = run_bfs(loaded, root, options=options).distances
        ranks = run_pagerank(loaded, max_iterations=8, options=options).ranks
        monkeypatch.undo()
        fresh = Graph(rmat_small.edges)
        assert np.array_equal(bfs, run_bfs(fresh, root).distances)
        assert np.array_equal(ranks, run_pagerank(fresh, max_iterations=8).ranks)

    def test_views_snapshot_kind_guard(self, tmp_path):
        path = tmp_path / "v.gmsnap"
        with SnapshotWriter(path) as writer:
            writer.close({"kind": "views", "views": []})
        with pytest.raises(IOFormatError, match="not a graph"):
            load_snapshot(path)

    def test_resave_invalidates_reader_cache(self, tmp_path):
        path = tmp_path / "g.gmsnap"
        g1 = build_graph([(0, 1), (1, 2)])
        save_snapshot(g1, path)
        assert load_snapshot(path).n_edges == 2
        g2 = build_graph([(0, 1), (1, 2), (2, 0)])
        save_snapshot(g2, path)
        assert load_snapshot(path).n_edges == 3


# ----------------------------------------------------------------------
# Streaming ingest
# ----------------------------------------------------------------------
class TestIngest:
    def test_duplicates_keep_last(self, tmp_path):
        source = tmp_path / "edges.tsv"
        source.write_text("# header\n0 1 2.0\n1 2 3.0\n0 1 9.0\n")
        snap = tmp_path / "g.gmsnap"
        ingest_edge_list(source, snap, weighted=True, n_partitions=2)
        loaded = load_snapshot(snap)
        reference = read_edge_list(source, weighted=True)
        assert matrices_equal(loaded.edges, reference.edges)
        assert 9.0 in loaded.edges.vals.tolist()
        assert 2.0 not in loaded.edges.vals.tolist()

    def test_gzip_source(self, tmp_path):
        source = tmp_path / "edges.tsv.gz"
        with gzip.open(source, "wt") as handle:
            handle.write("0 1\n2 3\n1 0\n")
        snap = tmp_path / "g.gmsnap"
        report = ingest_edge_list(source, snap, n_partitions=2)
        assert report.n_edges == 3
        assert matrices_equal(load_snapshot(snap).edges, read_edge_list(source).edges)

    def test_explicit_vertex_count_and_bounds(self, tmp_path):
        source = tmp_path / "edges.tsv"
        source.write_text("0 1\n")
        snap = tmp_path / "g.gmsnap"
        report = ingest_edge_list(source, snap, n_vertices=10)
        assert report.n_vertices == 10
        assert load_snapshot(snap).n_vertices == 10
        source.write_text("0 99\n")
        with pytest.raises(IOFormatError, match="outside"):
            ingest_edge_list(source, snap, n_vertices=10)

    def test_short_line_rejected(self, tmp_path):
        source = tmp_path / "edges.tsv"
        source.write_text("0 1\n2\n")
        with pytest.raises(IOFormatError, match="expected 2 tokens"):
            ingest_edge_list(source, tmp_path / "g.gmsnap")

    def test_empty_input(self, tmp_path):
        source = tmp_path / "edges.tsv"
        source.write_text("# nothing\n")
        report = ingest_edge_list(source, tmp_path / "g.gmsnap")
        assert report.n_vertices == 0
        assert report.n_edges == 0
        assert load_snapshot(tmp_path / "g.gmsnap").n_vertices == 0

    def test_more_partitions_than_vertices(self, tmp_path):
        source = tmp_path / "edges.tsv"
        source.write_text("0 1\n1 0\n")
        report = ingest_edge_list(source, tmp_path / "g.gmsnap", n_partitions=16)
        assert report.n_partitions == 2  # clamped like PartitionedMatrix
        loaded = load_snapshot(tmp_path / "g.gmsnap")
        assert matrices_equal(loaded.edges, read_edge_list(source).edges)

    def test_default_ingest_seeds_the_default_engine_view(
        self, tmp_path, rmat_small, monkeypatch
    ):
        """A default conversion stores the view a default run asks for:
        the run sweeps the mmap'd blocks and never re-partitions."""
        source = tmp_path / "rmat.tsv"
        write_edge_list(rmat_small, source, weighted=False)
        snap = tmp_path / "g.gmsnap"
        report = ingest_edge_list(source, snap)
        blocks = DEFAULT_OPTIONS.block_count(report.n_vertices)
        assert report.n_partitions == blocks
        loaded = load_snapshot(snap)
        stored = loaded.peek_partitions("out", blocks)
        assert stored is not None and stored.snapshot_path is not None

        def boom(*args, **kwargs):
            raise AssertionError("partition rebuild on a loaded snapshot")

        monkeypatch.setattr(PartitionedMatrix, "from_coo", boom)
        root = int(np.argmax(loaded.out_degrees()))
        got = run_bfs(loaded, root).distances
        assert loaded.peek_partitions("out", blocks) is stored
        monkeypatch.undo()
        assert np.array_equal(got, run_bfs(read_edge_list(source), root).distances)

    def test_default_ingest_keeps_blocks_within_the_radix_key(self, tmp_path):
        source = tmp_path / "edges.tsv"
        source.write_text("0 1\n1 65536\n")
        report = ingest_edge_list(source, tmp_path / "g.gmsnap", workers=1)
        assert report.n_vertices == 65_537
        assert report.n_partitions == 2

    def test_mtx_symmetric_integer(self, tmp_path):
        source = tmp_path / "g.mtx"
        source.write_text(
            "%%MatrixMarket matrix coordinate integer symmetric\n"
            "% comment\n"
            "4 4 3\n"
            "2 1 5\n"
            "3 2 7\n"
            "4 4 1\n"
        )
        snap = tmp_path / "g.gmsnap"
        ingest_mtx(source, snap, n_partitions=3)
        loaded = load_snapshot(snap)
        reference = read_mtx(source)
        assert matrices_equal(loaded.edges, reference.edges)
        assert loaded.edges.vals.dtype == np.int64

    def test_mtx_pattern(self, tmp_path):
        source = tmp_path / "g.mtx"
        source.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n3 1\n"
        )
        snap = tmp_path / "g.gmsnap"
        ingest_mtx(source, snap)
        loaded = load_snapshot(snap)
        assert matrices_equal(loaded.edges, read_mtx(source).edges)

    def test_mtx_nnz_mismatch(self, tmp_path):
        source = tmp_path / "g.mtx"
        source.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n"
        )
        with pytest.raises(IOFormatError, match="nnz"):
            ingest_mtx(source, tmp_path / "g.gmsnap")

    def test_sniff_and_dispatch(self, tmp_path):
        mtx = tmp_path / "g.mtx"
        mtx.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 1.0\n"
        )
        edges = tmp_path / "g.tsv"
        edges.write_text("0 1\n")
        assert sniff_format(mtx) == "mtx"
        assert sniff_format(edges) == "edgelist"
        for source in (mtx, edges):
            report = ingest_file(source, tmp_path / "out.gmsnap")
            assert report.n_edges == 1

    def test_report_accounting(self, tmp_path, rmat_small):
        source = tmp_path / "rmat.tsv"
        write_edge_list(rmat_small, source, weighted=False)
        report = ingest_edge_list(
            source, tmp_path / "g.gmsnap", n_partitions=4, chunk_edges=100
        )
        assert report.chunks > 1
        assert 0 < report.peak_partition_edges <= report.n_edges_raw
        assert report.snapshot_bytes == (tmp_path / "g.gmsnap").stat().st_size
        assert report.total_seconds > 0


# ----------------------------------------------------------------------
# Hypothesis round-trips (the satellite's exactness contract)
# ----------------------------------------------------------------------
@st.composite
def edge_list_cases(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=0, max_value=40))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    weighted = draw(st.booleans())
    weights = (
        draw(
            st.lists(
                st.floats(
                    allow_nan=False, allow_infinity=False, min_value=-1e6,
                    max_value=1e6,
                ),
                min_size=m,
                max_size=m,
            )
        )
        if weighted
        else None
    )
    n_partitions = draw(st.integers(min_value=1, max_value=16))
    return n, pairs, weighted, weights, n_partitions


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=edge_list_cases())
def test_edge_list_snapshot_roundtrip_exact(case, tmp_path_factory):
    """edge list -> Graph -> snapshot -> mmap load -> to_coo is exact
    (weights, duplicate edges, empty partitions included)."""
    n, pairs, weighted, weights, n_partitions = case
    tmp = tmp_path_factory.mktemp("hyp")
    source = tmp / "edges.tsv"
    lines = []
    for k, (u, v) in enumerate(pairs):
        lines.append(f"{u} {v} {weights[k]:.17g}" if weighted else f"{u} {v}")
    source.write_text("\n".join(lines) + ("\n" if lines else ""))

    reference = read_edge_list(source, weighted=weighted, n_vertices=n)

    # Path 1: streaming ingest of the text file.
    snap_a = tmp / "ingest.gmsnap"
    ingest_edge_list(
        source,
        snap_a,
        weighted=weighted,
        n_vertices=n,
        n_partitions=n_partitions,
        chunk_edges=7,  # force multi-chunk paths
    )
    loaded_a = load_snapshot(snap_a)
    assert loaded_a.n_vertices == reference.n_vertices
    assert matrices_equal(loaded_a.edges, reference.edges)
    view_doc = open_snapshot(snap_a).document["views"][0]
    # the count may have been clamped
    view = loaded_a.peek_partitions("out", view_doc["n_partitions"])
    assert matrices_equal(view.to_coo(), reference.edges.transpose())

    # Path 2: in-memory snapshot of the reference graph.
    snap_b = tmp / "memory.gmsnap"
    save_snapshot(reference, snap_b, n_partitions=n_partitions)
    loaded_b = load_snapshot(snap_b)
    assert matrices_equal(loaded_b.edges, reference.edges)
    assert np.array_equal(
        np.sort(loaded_b.edges.vals, kind="stable"),
        np.sort(reference.edges.vals, kind="stable"),
    )


@st.composite
def mtx_cases(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=0, max_value=30))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=n),  # 1-indexed on disk
                st.integers(min_value=1, max_value=n),
                st.integers(min_value=-50, max_value=50),
            ),
            min_size=m,
            max_size=m,
        )
    )
    field = draw(st.sampled_from(["real", "integer", "pattern"]))
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    n_partitions = draw(st.integers(min_value=1, max_value=6))
    return n, entries, field, symmetry, n_partitions


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=mtx_cases())
def test_mtx_snapshot_roundtrip_exact(case, tmp_path_factory):
    """1-indexed MTX (all fields/symmetries) -> snapshot load is exact."""
    n, entries, field, symmetry, n_partitions = case
    tmp = tmp_path_factory.mktemp("hyp_mtx")
    source = tmp / "g.mtx"
    lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}"]
    lines.append(f"{n} {n} {len(entries)}")
    for u, v, w in entries:
        if field == "pattern":
            lines.append(f"{u} {v}")
        elif field == "integer":
            lines.append(f"{u} {v} {w}")
        else:
            lines.append(f"{u} {v} {w / 4:.17g}")
    source.write_text("\n".join(lines) + "\n")

    reference = read_mtx(source)
    snap = tmp / "g.gmsnap"
    ingest_mtx(source, snap, n_partitions=n_partitions, chunk_edges=5)
    loaded = load_snapshot(snap)
    assert loaded.n_vertices == reference.n_vertices
    assert loaded.edges.vals.dtype == reference.edges.vals.dtype
    assert matrices_equal(loaded.edges, reference.edges)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_snapshot_graph_runs_identically(self, tmp_path, rmat_small):
        path = tmp_path / "g.gmsnap"
        save_snapshot(rmat_small, path, include_caches=True)
        expected = _pagerank(rmat_small)
        loaded = load_snapshot(path)
        assert np.array_equal(_pagerank(loaded), expected)

    def test_inverse_degrees_build_no_csr(self, tmp_path, rmat_small):
        """PageRank's degree normalization counts the mmap'd COO; it
        builds no CSR (the frameworks' view) on a served graph."""
        from repro.algorithms.pagerank import inverse_out_degrees

        path = tmp_path / "g.gmsnap"
        save_snapshot(rmat_small, path)
        loaded = load_snapshot(path)
        inv = inverse_out_degrees(loaded)
        assert loaded._out_csr is None and loaded._in_csr is None
        assert np.array_equal(inv, inverse_out_degrees(rmat_small))


class TestCLI:
    def test_convert_info_verify(self, tmp_path, capsys):
        source = tmp_path / "edges.tsv"
        source.write_text("0 1\n1 2\n2 0\n")
        snap = tmp_path / "g.gmsnap"
        assert cli_main(["convert", str(source), str(snap)]) == 0
        assert snap.exists()
        assert cli_main(["info", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "3 vertices" in out and "3 edges" in out
        assert cli_main(["verify", str(snap)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_info_json(self, tmp_path, capsys):
        source = tmp_path / "edges.tsv"
        source.write_text("0 1\n")
        snap = tmp_path / "g.gmsnap"
        cli_main(["convert", str(source), str(snap), "--partitions", "2"])
        capsys.readouterr()
        assert cli_main(["info", str(snap), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kind"] == "graph"
        assert summary["views"][0]["direction"] == "out"

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        code = cli_main(
            ["convert", str(tmp_path / "nope.tsv"), str(tmp_path / "o.gmsnap")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# CI regression gate
# ----------------------------------------------------------------------
def _load_gate_module():
    spec = importlib.util.spec_from_file_location(
        "check_regression", BENCHMARKS_DIR / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gate():
    return _load_gate_module()


def _backend_record(pr_iter_seconds=0.01, calibration=0.01):
    cell = lambda s: {"seconds_per_iteration": s, "seconds": s}  # noqa: E731
    return {
        "meta": {
            "benchmark": "bench_backends",
            "scale": 11,
            "edge_factor": 8,
            "pr_iterations": 3,
            "calibration_seconds": calibration,
        },
        "pagerank": {"serial": cell(pr_iter_seconds)},
        "bfs": {"serial": cell(pr_iter_seconds)},
    }


def _ingest_record(speedup):
    return {
        "meta": {"benchmark": "bench_ingest", "scale": 12, "edge_factor": 8},
        "speedup": {"snapshot_vs_cold": speedup},
    }


class TestRegressionGate:
    def test_pass_when_unchanged(self, gate):
        findings = gate.compare(_backend_record(), _backend_record())
        assert all(f["status"] == "ok" for f in findings)

    def test_fail_on_slowdown_beyond_tolerance(self, gate):
        findings = gate.compare(
            _backend_record(pr_iter_seconds=0.1), _backend_record()
        )
        failed = {f["metric"] for f in findings if f["status"] == "fail"}
        assert "pagerank.serial.seconds_per_iteration" in failed

    def test_noise_floor_forgives_tiny_timings(self, gate):
        # 4ms vs 1ms is a 4x "slowdown" but under the 5ms noise floor.
        findings = gate.compare(
            _backend_record(pr_iter_seconds=0.004),
            _backend_record(pr_iter_seconds=0.001),
        )
        assert all(f["status"] == "ok" for f in findings)

    def test_calibration_rescales_baseline(self, gate):
        # Host is 2x slower (calibration 0.02 vs 0.01): a 1.8x wall-time
        # increase on a 100ms metric is within budget once rescaled.
        current = _backend_record(pr_iter_seconds=0.18, calibration=0.02)
        baseline = _backend_record(pr_iter_seconds=0.10, calibration=0.01)
        findings = gate.compare(current, baseline)
        assert all(f["status"] == "ok" for f in findings)
        # Without the calibration difference the same pair fails.
        current["meta"]["calibration_seconds"] = 0.01
        findings = gate.compare(current, baseline)
        assert any(f["status"] == "fail" for f in findings)

    def test_ratio_floor_enforced(self, gate):
        # Unchanged against its baseline, but under the absolute floor.
        findings = gate.compare(_ingest_record(4.0), _ingest_record(4.0))
        failed = {f["metric"] for f in findings if f["status"] == "fail"}
        assert "speedup.snapshot_vs_cold" in failed

    def test_config_mismatch_rejected(self, gate, tmp_path):
        current, baseline = _backend_record(), _backend_record()
        current["meta"]["scale"] = 16
        a, b = tmp_path / "cur.json", tmp_path / "base.json"
        a.write_text(json.dumps(current))
        b.write_text(json.dumps(baseline))
        with pytest.raises(ValueError, match="scale"):
            gate.check_pair(a, b)

    def test_cli_update_and_verdicts(self, gate, tmp_path, capsys):
        current = tmp_path / "cur.json"
        baseline = tmp_path / "base.json"
        current.write_text(json.dumps(_backend_record()))
        assert (
            gate.main(
                ["--current", str(current), "--baseline", str(baseline)]
            )
            == 2  # baseline missing
        )
        assert (
            gate.main(
                ["--current", str(current), "--baseline", str(baseline),
                 "--update"]
            )
            == 0
        )
        assert baseline.exists()
        assert (
            gate.main(["--current", str(current), "--baseline", str(baseline)])
            == 0
        )
        slow = _backend_record(pr_iter_seconds=0.5)
        current.write_text(json.dumps(slow))
        assert (
            gate.main(["--current", str(current), "--baseline", str(baseline)])
            == 1
        )
        assert "REGRESSION" in capsys.readouterr().out

    def test_pair_with_no_metrics_fails(self, gate, tmp_path, capsys):
        # Neither record yields a metric: the gate checked nothing, so
        # it must not report a pass.
        empty = {"meta": {"benchmark": "bench_backends"}}
        assert gate.compare(empty, empty) == []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(empty))
        passed, report = gate.check_pair(path, path)
        assert not passed
        assert "REGRESSION (0/0 metrics" in report
        assert (
            gate.main(["--current", str(path), "--baseline", str(path)])
            == 1
        )
        capsys.readouterr()

    # Record kinds whose benchmark scripts were deleted: the gate must refuse them
    # instead of passing a pair it has no metrics for.
    @pytest.mark.parametrize(
        "kind", [f"bench_{name}" for name in ("serve", "batch", "governance")]
    )
    def test_deleted_record_kinds_are_unknown(
        self, gate, tmp_path, capsys, kind
    ):
        path = tmp_path / "record.json"
        path.write_text(json.dumps({"meta": {"benchmark": kind}}))
        assert (
            gate.main(["--current", str(path), "--baseline", str(path)])
            == 2
        )
        assert "unknown benchmark kind" in capsys.readouterr().err

    def test_committed_baselines_parse(self, gate):
        paths = sorted((BENCHMARKS_DIR / "baselines").iterdir())
        assert paths
        for path in paths:
            record = json.loads(path.read_text())
            metrics = gate.extract_metrics(record)
            assert metrics, path.name
            assert record["meta"]["calibration_seconds"] > 0

    def test_every_baseline_is_gated_in_ci(self):
        workflow = (
            BENCHMARKS_DIR.parent / ".github" / "workflows" / "ci.yml"
        ).read_text()
        gated = set(re.findall(r"--baseline\s+(\S+)", workflow))
        committed = {
            f"benchmarks/baselines/{path.name}"
            for path in (BENCHMARKS_DIR / "baselines").glob("BENCH_*.json")
        }
        assert gated == committed
