"""Shared fixtures: small graphs with known answers, generator workloads."""

from __future__ import annotations

import numpy as np
import pytest

import repro.exec.jit as jitmod
from repro.graph.generators import (
    bipartite_rating_graph,
    BipartiteSpec,
    figure1_graph,
    figure3_graph,
    gnm_random_graph,
    rmat_graph,
    road_graph,
)
from repro.graph.preprocess import symmetrize, to_dag, with_random_weights


@pytest.fixture
def jit_tier(monkeypatch):
    """Make the jit backends run their own kernels: compiled where numba
    is installed, else the same functions as plain Python."""
    if not jitmod.NUMBA_AVAILABLE:
        monkeypatch.setattr(jitmod, "FORCE_INTERPRETED", True)


@pytest.fixture
def fig1():
    return figure1_graph()


@pytest.fixture
def fig3():
    return figure3_graph()


@pytest.fixture(scope="session")
def rmat_small():
    """Deterministic RMAT graph: 256 vertices, ~2k edges."""
    return rmat_graph(8, 8, seed=42)


@pytest.fixture(scope="session")
def rmat_weighted():
    return with_random_weights(rmat_graph(8, 8, seed=42), seed=7)


@pytest.fixture(scope="session")
def rmat_sym():
    return symmetrize(rmat_graph(8, 8, seed=42))


@pytest.fixture(scope="session")
def rmat_dag():
    return to_dag(rmat_graph(8, 8, seed=42))


@pytest.fixture(scope="session")
def bipartite_small():
    spec = BipartiteSpec(n_users=120, n_items=30, ratings_per_user=10)
    return bipartite_rating_graph(spec, seed=11), 120


@pytest.fixture(scope="session")
def road_small():
    return road_graph(12, 12, seed=3)


@pytest.fixture(scope="session")
def gnm_small():
    return gnm_random_graph(60, 300, seed=9, weighted=True)


def as_networkx(graph, directed=True):
    """Convert a repro Graph to networkx (tests only)."""
    import networkx as nx

    nxg = nx.DiGraph() if directed else nx.Graph()
    nxg.add_nodes_from(range(graph.n_vertices))
    coo = graph.edges
    for k in range(coo.nnz):
        nxg.add_edge(
            int(coo.rows[k]), int(coo.cols[k]), weight=float(coo.vals[k])
        )
    return nxg


@pytest.fixture
def nx_of():
    return as_networkx
