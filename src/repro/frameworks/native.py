"""Native baseline: hand-optimized implementations outside any framework.

Stands in for the paper's "native, hand-optimized code" from [27]: each
algorithm is written directly against compiled kernels (scipy sparse /
csgraph, vectorized numpy) with no vertex-program abstraction, message
materialization or engine bookkeeping.  This is the performance ceiling
Table 3 measures GraphMat against.

Collaborative filtering follows the paper exactly: the native
implementation is *SGD* (mini-batched for vectorization), not GD — which
is why Table 3 reports GraphMat's GD as faster per iteration (0.73x
"slowdown") than native SGD.  SGD's per-iteration factors therefore do
not equal the GD frameworks'; tests compare its RMSE trajectory instead.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.frameworks.base import Framework, RunRecord, cf_initial_factors
from repro.graph.graph import Graph
from repro.perf.counters import EventCounters
from repro.perf.parallel_model import ScalingProfile

UNREACHED = np.inf


class NativeFramework(Framework):
    """Hand-optimized scipy/numpy implementations (the Table 3 ceiling)."""

    name = "Native"
    scaling_profile = ScalingProfile(
        name="Native",
        schedule="dynamic",
        sync_units=12.0,
        per_unit_overhead=0.5,
        bandwidth_beta=0.04,
        streaming_fraction=0.60,
    )

    def __init__(self) -> None:
        self._scipy_cache: dict[tuple[int, str], object] = {}

    def _csr(self, graph: Graph, transpose: bool) -> sparse.csr_matrix:
        key = (id(graph), "T" if transpose else "N")
        if key not in self._scipy_cache:
            mat = graph.edges.to_scipy().tocsr()
            self._scipy_cache[key] = mat.T.tocsr() if transpose else mat
        return self._scipy_cache[key]

    def _pagerank_matrix(self, graph: Graph) -> tuple[sparse.csr_matrix, np.ndarray]:
        """``M = A^T diag(1/outdeg)`` (unweighted) and the has-in-edge
        mask, built once per graph like :meth:`_csr`'s matrices."""
        key = (id(graph), "pagerank")
        if key not in self._scipy_cache:
            out_deg = graph.out_degrees().astype(np.float64)
            inv_deg = np.divide(
                1.0, out_deg, out=np.zeros_like(out_deg), where=out_deg > 0
            )
            at = self._csr(graph, transpose=True)
            pattern = sparse.csr_matrix(
                (np.ones_like(at.data), at.indices, at.indptr), shape=at.shape
            )
            self._scipy_cache[key] = (
                pattern @ sparse.diags(inv_deg), np.diff(at.indptr) > 0
            )
        return self._scipy_cache[key]

    # ------------------------------------------------------------------
    def pagerank(self, graph: Graph, *, r: float = 0.15, iterations: int = 10):
        counters = EventCounters()
        scaled, has_in = self._pagerank_matrix(graph)
        start = time.perf_counter()
        ranks = np.ones(graph.n_vertices, dtype=np.float64)
        for _ in range(iterations):
            sums = scaled @ ranks
            ranks = np.where(has_in, r + (1.0 - r) * sums, ranks)
            counters.record(
                user_calls=2,
                element_ops=2 * graph.n_edges + 2 * graph.n_vertices,
                random_accesses=graph.n_edges,
                sequential_bytes=16 * graph.n_edges,
                allocations=2,
            )
        seconds = time.perf_counter() - start
        record = RunRecord(
            self.name,
            "pagerank",
            seconds=seconds,
            iterations=iterations,
            counters=counters,
            per_iteration_work=[
                np.asarray([float(graph.n_edges)]) for _ in range(iterations)
            ],
        )
        return ranks, record

    # ------------------------------------------------------------------
    def bfs(self, graph: Graph, root: int):
        counters = EventCounters()
        mat = self._csr(graph, transpose=False)
        start = time.perf_counter()
        dist = csgraph.dijkstra(mat, indices=root, unweighted=True)
        seconds = time.perf_counter() - start
        counters.record(
            user_calls=1,
            element_ops=2 * graph.n_edges,
            random_accesses=graph.n_edges,
            sequential_bytes=16 * graph.n_edges,
            allocations=2,
        )
        levels = int(np.nanmax(dist[np.isfinite(dist)])) if np.isfinite(dist).any() else 0
        record = RunRecord(
            self.name,
            "bfs",
            seconds=seconds,
            iterations=levels,
            counters=counters,
            per_iteration_work=[np.asarray([float(graph.n_edges)])],
        )
        return dist, record

    # ------------------------------------------------------------------
    def sssp(self, graph: Graph, source: int):
        counters = EventCounters()
        mat = self._csr(graph, transpose=False)
        start = time.perf_counter()
        dist = csgraph.dijkstra(mat, indices=source)
        seconds = time.perf_counter() - start
        counters.record(
            user_calls=1,
            element_ops=3 * graph.n_edges,
            random_accesses=2 * graph.n_edges,
            sequential_bytes=16 * graph.n_edges,
            allocations=2,
        )
        record = RunRecord(
            self.name,
            "sssp",
            seconds=seconds,
            iterations=1,
            counters=counters,
            per_iteration_work=[np.asarray([float(graph.n_edges)])],
        )
        return dist, record

    # ------------------------------------------------------------------
    def triangle_count(self, dag: Graph):
        counters = EventCounters()
        mat = self._csr(dag, transpose=False)
        pattern = sparse.csr_matrix(
            (np.ones_like(mat.data, dtype=np.int64), mat.indices, mat.indptr),
            shape=mat.shape,
        )
        start = time.perf_counter()
        wedges = pattern @ pattern
        closed = wedges.multiply(pattern)
        total = int(closed.sum())
        seconds = time.perf_counter() - start
        counters.record(
            user_calls=2,
            element_ops=int(wedges.nnz) + int(pattern.nnz),
            random_accesses=int(wedges.nnz),
            sequential_bytes=16 * int(wedges.nnz),
            allocations=3,
        )
        record = RunRecord(
            self.name,
            "tc",
            seconds=seconds,
            iterations=1,
            counters=counters,
            per_iteration_work=[np.asarray([float(dag.n_edges)])],
        )
        return total, record

    # ------------------------------------------------------------------
    def collaborative_filtering(
        self,
        graph: Graph,
        n_users: int,
        *,
        k: int = 8,
        gamma: float = 0.001,
        lam: float = 0.05,
        iterations: int = 5,
        seed: int = 0,
        batch_size: int = 4096,
    ):
        """Mini-batched SGD (the paper's native CF is SGD, not GD).

        Ratings are shuffled once per epoch and consumed in batches; within
        a batch the updates are computed from the pre-batch factors and
        applied together (the standard vectorized mini-batch scheme).
        """
        counters = EventCounters()
        coo = graph.edges
        ratings = coo.vals.astype(np.float64)
        rng = np.random.default_rng(seed + 1)
        start = time.perf_counter()
        factors = cf_initial_factors(graph.n_vertices, k, seed)
        for _ in range(iterations):
            order = rng.permutation(coo.nnz)
            counters.record(allocations=1, element_ops=coo.nnz)
            for lo in range(0, coo.nnz, batch_size):
                batch = order[lo : lo + batch_size]
                users = coo.rows[batch]
                items = coo.cols[batch]
                pu = factors[users]
                pv = factors[items]
                err = ratings[batch] - np.einsum("ij,ij->i", pu, pv)
                grad_u = err[:, None] * pv - lam * pu
                grad_v = err[:, None] * pu - lam * pv
                np.add.at(factors, users, gamma * grad_u)
                np.add.at(factors, items, gamma * grad_v)
                counters.record(
                    user_calls=1,
                    element_ops=6 * k * batch.shape[0],
                    random_accesses=4 * batch.shape[0],
                    sequential_bytes=32 * k * batch.shape[0],
                    allocations=4,
                )
        seconds = time.perf_counter() - start
        record = RunRecord(
            self.name,
            "cf",
            seconds=seconds,
            iterations=iterations,
            counters=counters,
            per_iteration_work=[
                np.asarray([float(graph.n_edges)]) for _ in range(iterations)
            ],
        )
        return factors, record
