"""Graph I/O tests: MatrixMarket and edge-list round trips and error cases."""

import gzip

import numpy as np
import pytest

from repro.errors import IOFormatError
from repro.graph.builder import build_graph
from repro.graph.io import read_edge_list, read_mtx, write_edge_list, write_mtx
from tests.matrix_helpers import matrices_equal


@pytest.fixture
def weighted_graph():
    return build_graph([(0, 1, 2.5), (1, 2, 0.125), (2, 0, 9.0)])


class TestMTXRoundTrip:
    def test_real_roundtrip(self, tmp_path, weighted_graph):
        path = tmp_path / "g.mtx"
        write_mtx(weighted_graph, path)
        back = read_mtx(path)
        assert matrices_equal(back.edges, weighted_graph.edges)

    def test_integer_roundtrip(self, tmp_path):
        g = build_graph([(0, 1, 3), (1, 2, 4)])
        path = tmp_path / "g.mtx"
        write_mtx(g, path, field="integer")
        back = read_mtx(path)
        assert back.edges.vals.tolist() == [3, 4]

    def test_pattern_roundtrip(self, tmp_path):
        g = build_graph([(0, 1), (1, 0)])
        path = tmp_path / "g.mtx"
        write_mtx(g, path, field="pattern")
        back = read_mtx(path)
        assert back.n_edges == 2
        assert back.edges.vals.tolist() == [1.0, 1.0]

    def test_bad_field_rejected(self, tmp_path, weighted_graph):
        with pytest.raises(IOFormatError):
            write_mtx(weighted_graph, tmp_path / "g.mtx", field="complex")


class TestMTXParsing:
    def write(self, tmp_path, content):
        path = tmp_path / "in.mtx"
        path.write_text(content, encoding="utf-8")
        return path

    def test_symmetric_expansion(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "2 1 5.0\n"
            "3 3 1.0\n",
        )
        g = read_mtx(path)
        # Off-diagonal entry mirrored; diagonal entry not duplicated.
        assert g.n_edges == 3

    def test_comments_and_blank_lines(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "\n"
            "2 2 1\n"
            "% another\n"
            "1 2 4.0\n",
        )
        g = read_mtx(path)
        assert g.n_edges == 1
        assert g.edges.vals.tolist() == [4.0]

    def test_one_based_conversion(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n2 1 1.0\n",
        )
        g = read_mtx(path)
        assert g.edges.rows.tolist() == [1]
        assert g.edges.cols.tolist() == [0]

    def test_missing_header(self, tmp_path):
        path = self.write(tmp_path, "2 2 1\n1 2 1.0\n")
        with pytest.raises(IOFormatError, match="header"):
            read_mtx(path)

    def test_bad_object_kind(self, tmp_path):
        path = self.write(
            tmp_path, "%%MatrixMarket vector coordinate real general\n"
        )
        with pytest.raises(IOFormatError):
            read_mtx(path)

    def test_unsupported_field(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate complex general\n2 2 0\n",
        )
        with pytest.raises(IOFormatError, match="field"):
            read_mtx(path)

    def test_non_square_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 3 0\n",
        )
        with pytest.raises(IOFormatError, match="square"):
            read_mtx(path)

    def test_nnz_mismatch(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n",
        )
        with pytest.raises(IOFormatError, match="nnz"):
            read_mtx(path)

    def test_too_many_entries(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n1 2 1.0\n2 1 1.0\n",
        )
        with pytest.raises(IOFormatError):
            read_mtx(path)

    def test_pattern_entry_with_value_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 1\n1 2 1.0\n",
        )
        with pytest.raises(IOFormatError):
            read_mtx(path)


class TestEdgeList:
    def test_roundtrip_weighted(self, tmp_path, weighted_graph):
        path = tmp_path / "edges.tsv"
        write_edge_list(weighted_graph, path, weighted=True)
        back = read_edge_list(path, weighted=True)
        assert matrices_equal(back.edges, weighted_graph.edges)

    def test_roundtrip_unweighted(self, tmp_path):
        g = build_graph([(0, 1), (2, 3)])
        path = tmp_path / "edges.tsv"
        write_edge_list(g, path, weighted=False)
        back = read_edge_list(path)
        assert back.n_edges == 2

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# header\n0 1\n\n2 3\n", encoding="utf-8")
        assert read_edge_list(path).n_edges == 2

    def test_short_line_rejected(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0 1\n2\n", encoding="utf-8")
        with pytest.raises(IOFormatError):
            read_edge_list(path)

    def test_explicit_vertex_count(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0 1\n", encoding="utf-8")
        assert read_edge_list(path, n_vertices=10).n_vertices == 10

    def test_weighted_requires_third_column(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0 1\n", encoding="utf-8")
        with pytest.raises(IOFormatError):
            read_edge_list(path, weighted=True)


class TestGzipTransparency:
    def test_edge_list_gz_suffix(self, tmp_path, weighted_graph):
        plain = tmp_path / "edges.tsv"
        write_edge_list(weighted_graph, plain, weighted=True)
        compressed = tmp_path / "edges.tsv.gz"
        with gzip.open(compressed, "wt", encoding="utf-8") as handle:
            handle.write(plain.read_text())
        back = read_edge_list(compressed, weighted=True)
        assert matrices_equal(back.edges, weighted_graph.edges)

    def test_mtx_gz_suffix(self, tmp_path, weighted_graph):
        plain = tmp_path / "g.mtx"
        write_mtx(weighted_graph, plain)
        compressed = tmp_path / "g.mtx.gz"
        with gzip.open(compressed, "wt", encoding="utf-8") as handle:
            handle.write(plain.read_text())
        back = read_mtx(compressed)
        assert matrices_equal(back.edges, weighted_graph.edges)

    def test_gzip_magic_without_suffix(self, tmp_path):
        """A gzipped file with a plain name still reads (magic sniff)."""
        path = tmp_path / "edges.tsv"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("0 1\n1 2\n")
        assert read_edge_list(path).n_edges == 2

    def test_plain_text_still_reads(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0 1\n", encoding="utf-8")
        assert read_edge_list(path).n_edges == 1


def test_mtx_survives_rmat(tmp_path, rmat_small):
    """Generator output round-trips exactly through the mtx format."""
    path = tmp_path / "rmat.mtx"
    write_mtx(rmat_small, path, field="integer")
    back = read_mtx(path)
    assert back.n_vertices == rmat_small.n_vertices
    assert matrices_equal(back.edges, rmat_small.edges)
