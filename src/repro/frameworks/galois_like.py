"""Galois-like baseline: an asynchronous chunked-worklist engine.

Models the task-based framework of the paper's comparison.  Galois's
distinguishing properties, reproduced structurally here:

- **asynchronous execution**: "updated vertex state can be read
  immediately before the end of the iteration" (section 5.3) — the SSSP
  operator reads the *live* distance array, so it executes far fewer
  relaxations than a bulk-synchronous engine (the paper credits Galois's
  1.35x SSSP win to exactly this),
- **worklists**: work arrives as vertex tasks popped in chunks; priority
  buckets (a delta-stepping-style ordering) keep SSSP work-efficient,
- **per-chunk overhead**: each chunk pop costs bookkeeping, modelled in
  both the event counters and the scaling profile.

Operator bodies are vectorized per chunk (Galois's operators are compiled
C++; per-chunk numpy is the closest Python analogue, sitting between
GraphLab's per-vertex interpretation and GraphMat's whole-frontier fusion).

PR/BFS/TC/CF semantics match GraphMat exactly.  SSSP converges to the
same distances through a different (asynchronous) schedule.
"""

from __future__ import annotations

import time

import numpy as np

from repro.frameworks.base import Framework, RunRecord, cf_initial_factors
from repro.graph.graph import Graph
from repro.matrix import expand_spans
from repro.perf.counters import EventCounters
from repro.perf.parallel_model import ScalingProfile

UNREACHED = np.inf
_CHUNK = 64


def _expand_tasks(
    csr, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All out-edges of ``vertices``: (sources-per-edge, dsts, weights)."""
    starts = csr.indptr[vertices]
    lengths = csr.indptr[vertices + 1] - starts
    take = expand_spans(starts, lengths)
    srcs = np.repeat(vertices, lengths)
    return srcs, csr.indices[take], csr.data[take]


class GaloisLikeFramework(Framework):
    """Chunked asynchronous worklist engine."""

    name = "Galois-like"
    scaling_profile = ScalingProfile(
        name="Galois",
        schedule="dynamic",
        sync_units=120.0,
        per_unit_overhead=1.0,
        bandwidth_beta=0.06,
        streaming_fraction=0.40,
    )

    # ------------------------------------------------------------------
    def pagerank(self, graph: Graph, *, r: float = 0.15, iterations: int = 10):
        counters = EventCounters()
        start = time.perf_counter()
        in_csr = graph.in_csr()
        out_deg = graph.out_degrees().astype(np.float64)
        inv_deg = np.divide(
            1.0, out_deg, out=np.zeros_like(out_deg), where=out_deg > 0
        )
        ranks = np.ones(graph.n_vertices, dtype=np.float64)
        n = graph.n_vertices
        chunk_bounds = np.arange(0, n + _CHUNK, _CHUNK)
        chunk_bounds[-1] = min(int(chunk_bounds[-1]), n)
        in_deg = in_csr.degrees().astype(np.float64)
        work: list[np.ndarray] = []
        for _ in range(iterations):
            new_ranks = ranks.copy()
            counters.record(allocations=1)
            chunk_work = []
            for c in range(chunk_bounds.shape[0] - 1):
                lo, hi = int(chunk_bounds[c]), int(chunk_bounds[c + 1])
                if lo >= hi:
                    continue
                vertices = np.arange(lo, hi, dtype=np.int64)
                srcs, dsts_unused, _ = _expand_tasks(in_csr, vertices)
                # For the pull direction, `srcs` repeats the chunk vertex
                # and csr.indices hold the in-neighbors.
                nbrs = in_csr.indices[
                    in_csr.indptr[lo] : in_csr.indptr[hi]
                ]
                contrib = ranks[nbrs] * inv_deg[nbrs]
                sums = np.zeros(hi - lo, dtype=np.float64)
                np.add.at(sums, srcs - lo, contrib)
                has_in = in_deg[lo:hi] > 0
                new_ranks[lo:hi][has_in] = r + (1.0 - r) * sums[has_in]
                edges = int(nbrs.shape[0])
                chunk_work.append(edges + 1.0)
                counters.record(
                    user_calls=2,
                    element_ops=3 * edges,
                    random_accesses=edges,
                    sequential_bytes=16 * edges,
                    allocations=3,
                    messages=edges,
                )
            ranks = new_ranks
            work.append(np.asarray(chunk_work, dtype=np.float64))
        record = RunRecord(
            self.name,
            "pagerank",
            seconds=time.perf_counter() - start,
            iterations=iterations,
            counters=counters,
            per_iteration_work=work,
        )
        return ranks, record

    # ------------------------------------------------------------------
    def bfs(self, graph: Graph, root: int):
        counters = EventCounters()
        start = time.perf_counter()
        out_csr = graph.out_csr()
        dist = np.full(graph.n_vertices, UNREACHED)
        dist[root] = 0.0
        frontier = np.asarray([root], dtype=np.int64)
        level = 0.0
        rounds = 0
        work: list[np.ndarray] = []
        while frontier.size:
            srcs, dsts, _ = _expand_tasks(out_csr, frontier)
            fresh = dsts[dist[dsts] == UNREACHED]
            fresh = np.unique(fresh)
            dist[fresh] = level + 1.0
            counters.record(
                user_calls=1 + frontier.shape[0] // _CHUNK,
                element_ops=int(dsts.shape[0]),
                random_accesses=2 * int(dsts.shape[0]),
                sequential_bytes=8 * int(dsts.shape[0]),
                allocations=3,
                messages=int(dsts.shape[0]),
            )
            work.append(
                np.asarray(
                    [float(dsts.shape[0]) / max(1, frontier.shape[0] // _CHUNK + 1)]
                    * max(1, frontier.shape[0] // _CHUNK + 1)
                )
            )
            frontier = fresh
            level += 1.0
            rounds += 1
        record = RunRecord(
            self.name,
            "bfs",
            seconds=time.perf_counter() - start,
            iterations=rounds,
            counters=counters,
            per_iteration_work=work,
        )
        return dist, record

    # ------------------------------------------------------------------
    def sssp(self, graph: Graph, source: int):
        """Asynchronous delta-stepping-style SSSP.

        Buckets order work by distance so most vertices settle near-final
        values the first time they are processed; relaxations read live
        state.  Total relaxations approach |E| instead of the
        bulk-synchronous |E| x rounds.
        """
        counters = EventCounters()
        start = time.perf_counter()
        out_csr = graph.out_csr()
        n = graph.n_vertices
        dist = np.full(n, UNREACHED)
        dist[source] = 0.0
        weights = out_csr.data
        mean_w = float(weights.mean()) if weights.shape[0] else 1.0
        delta = max(mean_w, 1e-9)
        in_bucket = np.full(n, -1, dtype=np.int64)
        buckets: dict[int, list[int]] = {0: [source]}
        in_bucket[source] = 0
        current = 0
        rounds = 0
        work: list[np.ndarray] = []
        while buckets:
            while current not in buckets:
                current = min(buckets)
            batch = np.asarray(sorted(set(buckets.pop(current))), dtype=np.int64)
            batch = batch[in_bucket[batch] == current]
            in_bucket[batch] = -1
            if batch.size == 0:
                if not buckets:
                    break
                continue
            srcs, dsts, edge_w = _expand_tasks(out_csr, batch)
            candidates = dist[srcs] + edge_w
            counters.record(
                user_calls=1 + batch.shape[0] // _CHUNK,
                element_ops=2 * int(dsts.shape[0]),
                random_accesses=2 * int(dsts.shape[0]),
                sequential_bytes=16 * int(dsts.shape[0]),
                allocations=3,
            )
            work.append(
                np.asarray(
                    [float(dsts.shape[0])]
                    if dsts.shape[0]
                    else [1.0]
                )
            )
            rounds += 1
            better = candidates < dist[dsts]
            if not better.any():
                continue
            np.minimum.at(dist, dsts[better], candidates[better])
            changed = np.unique(dsts[better])
            target_buckets = (dist[changed] / delta).astype(np.int64)
            for v, b in zip(changed.tolist(), target_buckets.tolist()):
                if in_bucket[v] == -1 or b < in_bucket[v]:
                    buckets.setdefault(int(b), []).append(int(v))
                    in_bucket[v] = int(b)
        record = RunRecord(
            self.name,
            "sssp",
            seconds=time.perf_counter() - start,
            iterations=rounds,
            counters=counters,
            per_iteration_work=work,
        )
        return dist, record

    # ------------------------------------------------------------------
    def triangle_count(self, dag: Graph):
        """Edge-iterator triangle counting on CSR adjacency.

        Galois's TC operator is compiled C++ run per edge from a chunked
        worklist; the analogue here processes edge chunks with a
        tagged-merge intersection (edge-id-keyed ``searchsorted``), giving
        per-chunk worklist overhead and kernel-speed operator bodies.
        """
        counters = EventCounters()
        start = time.perf_counter()
        in_csr = dag.in_csr()
        indptr, indices = in_csr.indptr, in_csr.indices
        coo = dag.edges
        n = dag.n_vertices
        stride = np.int64(n)
        total = 0
        chunk = 64 * _CHUNK
        work_units: list[float] = []
        for lo in range(0, coo.nnz, chunk):
            hi = min(coo.nnz, lo + chunk)
            src = coo.rows[lo:hi]
            dst = coo.cols[lo:hi]
            local = np.arange(hi - lo, dtype=np.int64)
            src_lens = indptr[src + 1] - indptr[src]
            dst_lens = indptr[dst + 1] - indptr[dst]
            src_cat = indices[expand_spans(indptr[src], src_lens)]
            dst_cat = indices[expand_spans(indptr[dst], dst_lens)]
            if src_cat.shape[0] == 0 or dst_cat.shape[0] == 0:
                work_units.append(float(hi - lo))
                continue
            src_keys = np.repeat(local, src_lens) * stride + src_cat
            dst_keys = np.repeat(local, dst_lens) * stride + dst_cat
            pos = np.searchsorted(dst_keys, src_keys)
            pos[pos == dst_keys.shape[0]] = dst_keys.shape[0] - 1
            total += int(np.count_nonzero(dst_keys[pos] == src_keys))
            touched = int(src_cat.shape[0] + dst_cat.shape[0])
            work_units.append(float(touched))
            counters.record(
                user_calls=1,
                element_ops=2 * touched,
                random_accesses=touched,
                sequential_bytes=16 * touched,
                allocations=5,
                messages=hi - lo,
            )
        record = RunRecord(
            self.name,
            "tc",
            seconds=time.perf_counter() - start,
            iterations=1,
            counters=counters,
            per_iteration_work=[np.asarray(work_units, dtype=np.float64)],
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
    ):
        counters = EventCounters()
        start = time.perf_counter()
        out_csr = graph.out_csr()
        in_csr = graph.in_csr()
        factors = cf_initial_factors(graph.n_vertices, k, seed)
        n = graph.n_vertices
        # Chunks must not straddle the user/item boundary: users pull
        # ratings from out-edges, items from in-edges.
        chunk_bounds = sorted(set(range(0, n, _CHUNK)) | {n_users, n})
        degrees = (out_csr.degrees() + in_csr.degrees()).astype(np.float64)
        work: list[np.ndarray] = []
        for _ in range(iterations):
            new_factors = factors.copy()
            counters.record(allocations=1)
            chunk_work = []
            for c in range(len(chunk_bounds) - 1):
                lo, hi = chunk_bounds[c], chunk_bounds[c + 1]
                vertices = np.arange(lo, hi, dtype=np.int64)
                csr = out_csr if hi <= n_users else in_csr
                srcs, nbrs, ratings = _expand_tasks(csr, vertices)
                if nbrs.shape[0]:
                    other = factors[nbrs]
                    mine = factors[srcs]
                    errors = ratings.astype(np.float64) - np.einsum(
                        "ij,ij->i", mine, other
                    )
                    weighted = other * errors[:, None]
                    grad = np.zeros((hi - lo, k), dtype=np.float64)
                    np.add.at(grad, srcs - lo, weighted)
                    has_edges = csr.degrees()[lo:hi] > 0
                    rows = np.flatnonzero(has_edges) + lo
                    new_factors[rows] = factors[rows] + gamma * (
                        grad[rows - lo] - lam * factors[rows]
                    )
                edges = int(nbrs.shape[0])
                chunk_work.append(edges + 1.0)
                counters.record(
                    user_calls=2,
                    element_ops=5 * k * edges,
                    random_accesses=2 * edges,
                    sequential_bytes=(16 + 16 * k) * edges,
                    allocations=4,
                    messages=edges,
                )
            factors = new_factors
            work.append(np.asarray(chunk_work, dtype=np.float64))
        record = RunRecord(
            self.name,
            "cf",
            seconds=time.perf_counter() - start,
            iterations=iterations,
            counters=counters,
            per_iteration_work=work,
        )
        return factors, record
