"""CombBLAS-like baseline: a pure semiring matrix backend on a 2-D grid.

Models the matrix-programming framework of the paper's comparison:

- the matrix lives on a square process grid ("CombBLAS requires the total
  number of processes to be a square"); SpMV broadcasts vector segments
  down grid columns and reduces partial results across grid rows, each
  step materializing copies and re-sorting — the structural overheads the
  paper's Figure 6 counters show as extra instructions and stalls,
- sparse vectors are sorted ``(index, value)`` arrays (GraphMat's rejected
  option 1),
- user code sees only ``multiply(message, edge)`` / ``add`` — **no access
  to destination vertex state** (section 4.2).  Triangle counting is
  therefore forced through a masked sparse matrix-matrix product whose
  intermediate "results are so large as to overflow memory or come close
  to memory limits" (section 5.2.1): the expansion size is tracked and a
  configurable cap turns the overflow into an error the harness reports
  as a DNF, mirroring the paper's "fails to complete" entries.
  Collaborative filtering needs extra edge-wise materialization passes.

Semantics of PR/BFS/SSSP/CF match GraphMat exactly; TC matches when the
expansion fits.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.semiring import Semiring
from repro.errors import BenchmarkError
from repro.frameworks.base import Framework, RunRecord, cf_initial_factors
from repro.graph.graph import Graph
from repro.matrix import expand_spans
from repro.perf.counters import EventCounters
from repro.perf.parallel_model import ScalingProfile

UNREACHED = np.inf

#: Fixed process count: 16 on the paper's 24-core machine (largest square).
GRID_PROCESSES = 16


def _log2_cost(n: int) -> int:
    return int(n * max(1, math.log2(n))) if n > 1 else n


class _GridBlock:
    """One process's block of the distributed matrix, stored CSC."""

    __slots__ = ("row_lo", "row_hi", "col_lo", "col_hi", "indptr", "rows", "vals")

    def __init__(self, row_range, col_range, cols, rows, vals) -> None:
        self.row_lo, self.row_hi = row_range
        self.col_lo, self.col_hi = col_range
        width = self.col_hi - self.col_lo
        order = np.lexsort((rows, cols))
        cols, self.rows, self.vals = cols[order], rows[order], vals[order]
        self.indptr = np.zeros(width + 1, dtype=np.int64)
        np.add.at(self.indptr, cols - self.col_lo + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)

    @property
    def nnz(self) -> int:
        return int(self.rows.shape[0])


class _Grid:
    """sqrt(P) x sqrt(P) block decomposition of ``A^T`` (message matrix)."""

    def __init__(self, graph: Graph, processes: int = GRID_PROCESSES) -> None:
        side = max(1, math.isqrt(processes))
        self.side = side
        n = graph.n_vertices
        coo = graph.edges  # A[u, v]: u -> v; message matrix is A^T.
        rows, cols, vals = coo.cols, coo.rows, coo.vals
        bounds = np.linspace(0, n, side + 1).astype(np.int64)
        self.bounds = bounds
        self.blocks: list[list[_GridBlock]] = []
        row_bin = np.searchsorted(bounds, rows, side="right") - 1
        col_bin = np.searchsorted(bounds, cols, side="right") - 1
        for i in range(side):
            row_blocks = []
            for j in range(side):
                keep = (row_bin == i) & (col_bin == j)
                row_blocks.append(
                    _GridBlock(
                        (int(bounds[i]), int(bounds[i + 1])),
                        (int(bounds[j]), int(bounds[j + 1])),
                        cols[keep],
                        rows[keep],
                        vals[keep],
                    )
                )
            self.blocks.append(row_blocks)


class CombBLASLikeFramework(Framework):
    """Semiring SpMV on a square process grid, sorted-tuple vectors."""

    name = "CombBLAS-like"
    scaling_profile = ScalingProfile(
        name="CombBLAS",
        schedule="static",
        sync_units=900.0,
        per_unit_overhead=0.0,
        square_processes_only=True,
        bandwidth_beta=0.07,
        streaming_fraction=0.45,
    )

    #: Default SpGEMM intermediate cap (entries).  The paper's machine has
    #: 64 GB; its real-world TC runs overflowed.  Scaling that ceiling by
    #: the proxy-to-paper edge ratio (~2000x) and CombBLAS's ~4x triple/
    #: hash replication overhead in SpGEMM gives an O(10^6)-entry budget.
    #: With this cap, the real-world proxies (LiveJournal, Wikipedia) DNF
    #: and the TC-tuned synthetic rmat_20 completes, matching Figure 4(c).
    DEFAULT_SPGEMM_LIMIT = 1_500_000

    def __init__(self, spgemm_limit: int = DEFAULT_SPGEMM_LIMIT) -> None:
        self.spgemm_limit = int(spgemm_limit)
        self._grid_cache: dict[int, _Grid] = {}

    def _grid(self, graph: Graph) -> _Grid:
        key = id(graph)
        if key not in self._grid_cache:
            self._grid_cache[key] = _Grid(graph)
        return self._grid_cache[key]

    # ------------------------------------------------------------------
    # Distributed semiring SpMV (the framework's one backend primitive)
    # ------------------------------------------------------------------
    def _spmv(
        self,
        grid: _Grid,
        x_idx: np.ndarray,
        x_val: np.ndarray,
        semiring: Semiring,
        counters: EventCounters,
        work_units: list[float],
    ) -> tuple[np.ndarray, np.ndarray]:
        """y = A^T (semiring) x with x a sorted sparse (idx, val) vector."""
        y_idx_parts: list[np.ndarray] = []
        y_val_parts: list[np.ndarray] = []
        for i in range(grid.side):
            partial_rows: list[np.ndarray] = []
            partial_vals: list[np.ndarray] = []
            for j in range(grid.side):
                block = grid.blocks[i][j]
                # "Broadcast" the x segment owned by grid column j: a copy.
                lo = np.searchsorted(x_idx, block.col_lo)
                hi = np.searchsorted(x_idx, block.col_hi)
                seg_idx = x_idx[lo:hi]
                seg_val = x_val[lo:hi]
                counters.record(
                    allocations=2,
                    sequential_bytes=16 * (hi - lo),
                    element_ops=int(hi - lo),
                )
                if seg_idx.shape[0] == 0 or block.nnz == 0:
                    work_units.append(0.0)
                    continue
                local = seg_idx - block.col_lo
                starts = block.indptr[local]
                lengths = block.indptr[local + 1] - starts
                take = expand_spans(starts, lengths)
                edges = int(take.shape[0])
                work_units.append(float(edges))
                if edges == 0:
                    continue
                dst = block.rows[take]
                edge_vals = block.vals[take]
                messages = np.repeat(seg_val, lengths)
                products = semiring.multiply_ufunc(messages, edge_vals)
                # Local sort + reduce by destination row.
                order = np.argsort(dst, kind="stable")
                dst, products = dst[order], np.asarray(products)[order]
                boundary = np.empty(edges, dtype=bool)
                boundary[0] = True
                boundary[1:] = dst[1:] != dst[:-1]
                starts_r = np.flatnonzero(boundary)
                partial_rows.append(dst[starts_r])
                partial_vals.append(
                    semiring.add_ufunc.reduceat(products, starts_r)
                )
                counters.record(
                    user_calls=4,
                    element_ops=2 * edges + _log2_cost(edges),
                    random_accesses=2 * edges,
                    sequential_bytes=24 * edges,
                    allocations=6,
                    messages=int(seg_idx.shape[0]),
                )
            if not partial_rows:
                continue
            # "Reduce across the grid row": merge the per-process partials
            # with a second sort+reduce (the MPI allreduce analogue).
            merged_rows = np.concatenate(partial_rows)
            merged_vals = np.concatenate(partial_vals)
            order = np.argsort(merged_rows, kind="stable")
            merged_rows, merged_vals = merged_rows[order], merged_vals[order]
            boundary = np.empty(merged_rows.shape[0], dtype=bool)
            boundary[0] = True
            boundary[1:] = merged_rows[1:] != merged_rows[:-1]
            starts_m = np.flatnonzero(boundary)
            y_idx_parts.append(merged_rows[starts_m])
            y_val_parts.append(semiring.add_ufunc.reduceat(merged_vals, starts_m))
            counters.record(
                element_ops=2 * merged_rows.shape[0]
                + _log2_cost(int(merged_rows.shape[0])),
                allocations=4,
                sequential_bytes=16 * merged_rows.shape[0],
            )
        if not y_idx_parts:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        return np.concatenate(y_idx_parts), np.concatenate(y_val_parts)

    # ------------------------------------------------------------------
    def pagerank(self, graph: Graph, *, r: float = 0.15, iterations: int = 10):
        counters = EventCounters()
        start = time.perf_counter()
        grid = self._grid(graph)
        out_deg = graph.out_degrees().astype(np.float64)
        inv_deg = np.divide(
            1.0, out_deg, out=np.zeros_like(out_deg), where=out_deg > 0
        )
        ranks = np.ones(graph.n_vertices, dtype=np.float64)
        all_idx = np.arange(graph.n_vertices, dtype=np.int64)
        semiring = Semiring(
            "plus-first",
            add=lambda a, b: a + b,
            multiply=lambda m, e: m,
            add_identity=0.0,
            add_ufunc=np.add,
            multiply_ufunc=lambda m, e: m,
        )
        work: list[np.ndarray] = []
        for _ in range(iterations):
            x_val = ranks * inv_deg  # dense vector op: a full copy
            counters.record(
                allocations=1,
                element_ops=graph.n_vertices,
                sequential_bytes=8 * graph.n_vertices,
            )
            units: list[float] = []
            y_idx, y_val = self._spmv(grid, all_idx, x_val, semiring, counters, units)
            new_ranks = ranks.copy()
            new_ranks[y_idx] = r + (1.0 - r) * y_val
            counters.record(
                allocations=1,
                element_ops=int(y_idx.shape[0]),
                random_accesses=int(y_idx.shape[0]),
            )
            ranks = new_ranks
            work.append(np.asarray(units, dtype=np.float64))
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
    def _frontier_sssp(
        self,
        graph: Graph,
        source: int,
        semiring: Semiring,
        algorithm: str,
    ):
        """Shared BFS/SSSP loop (they differ only in the semiring)."""
        counters = EventCounters()
        start = time.perf_counter()
        grid = self._grid(graph)
        dist = np.full(graph.n_vertices, UNREACHED)
        dist[source] = 0.0
        frontier_idx = np.asarray([source], dtype=np.int64)
        work: list[np.ndarray] = []
        iterations = 0
        while frontier_idx.size:
            x_val = dist[frontier_idx]
            counters.record(allocations=1, random_accesses=frontier_idx.shape[0])
            units: list[float] = []
            y_idx, y_val = self._spmv(
                grid, frontier_idx, x_val, semiring, counters, units
            )
            improved = y_val < dist[y_idx]
            frontier_idx = y_idx[improved]
            dist[frontier_idx] = y_val[improved]
            counters.record(
                element_ops=int(y_idx.shape[0]),
                random_accesses=2 * int(y_idx.shape[0]),
                allocations=2,
            )
            iterations += 1
            work.append(np.asarray(units, dtype=np.float64))
        record = RunRecord(
            self.name,
            algorithm,
            seconds=time.perf_counter() - start,
            iterations=iterations,
            counters=counters,
            per_iteration_work=work,
        )
        return dist, record

    def bfs(self, graph: Graph, root: int):
        semiring = Semiring(
            "min-hop",
            add=min,
            multiply=lambda m, e: m + 1.0,
            add_identity=UNREACHED,
            add_ufunc=np.minimum,
            multiply_ufunc=lambda m, e: m + 1.0,
        )
        return self._frontier_sssp(graph, root, semiring, "bfs")

    def sssp(self, graph: Graph, source: int):
        semiring = Semiring(
            "min-plus",
            add=min,
            multiply=lambda m, e: m + e,
            add_identity=UNREACHED,
            add_ufunc=np.minimum,
            multiply_ufunc=np.add,
        )
        return self._frontier_sssp(graph, source, semiring, "sssp")

    # ------------------------------------------------------------------
    def triangle_count(self, dag: Graph):
        """Masked SpGEMM ``(A @ A) .* A``: the pure matrix TC formulation.

        Without destination-vertex access the neighbor-list intersection
        trick is unavailable (section 4.2), so triangles are closed wedges:
        ``C = A @ A`` materializes every length-2 path before masking by
        the edge set.  The product runs column by column (Gustavson's
        algorithm, as CombBLAS's SpGEMM does): for each vertex ``w``,
        concatenate the predecessor lists of ``w``'s predecessors, then
        count how many of those wedge endpoints are themselves
        predecessors of ``w``.

        The accumulated intermediate is the memory hog the paper blames
        for CombBLAS's TC failures ("intermediate results are so large as
        to overflow memory"); its total size is tracked and a configurable
        cap turns the overflow into an error the harness reports as DNF.
        """
        counters = EventCounters()
        start = time.perf_counter()
        in_csr = dag.in_csr()
        indptr, indices = in_csr.indptr, in_csr.indices
        # Predicted expansion: sum over edges (v, w) of indeg(v).
        in_deg = in_csr.degrees()
        expansion = int(in_deg[indices].sum())
        counters.record(allocations=2, element_ops=dag.n_edges)
        if expansion > self.spgemm_limit:
            raise BenchmarkError(
                f"CombBLAS-like SpGEMM intermediate ({expansion} entries) "
                f"exceeds the memory cap ({self.spgemm_limit}); the paper's "
                f"CombBLAS similarly fails TC on large real-world graphs"
            )
        total = 0
        work_units = np.zeros(dag.n_vertices, dtype=np.float64)
        for w in range(dag.n_vertices):
            lo, hi = int(indptr[w]), int(indptr[w + 1])
            preds = indices[lo:hi]
            if preds.shape[0] == 0:
                continue
            # Column w of C = sum of predecessor columns of A: materialize.
            pieces = [
                indices[indptr[v] : indptr[v + 1]] for v in preds.tolist()
            ]
            wedge_ends = np.concatenate(pieces) if pieces else preds[:0]
            work_units[w] = wedge_ends.shape[0] + preds.shape[0]
            counters.record(
                user_calls=1 + preds.shape[0],
                allocations=1 + preds.shape[0],
                element_ops=int(wedge_ends.shape[0]),
                random_accesses=int(wedge_ends.shape[0]) + preds.shape[0],
                sequential_bytes=8 * int(wedge_ends.shape[0]),
                messages=int(wedge_ends.shape[0]),
            )
            if wedge_ends.shape[0] == 0:
                continue
            # Mask by column w of A (preds is sorted: CSC order).
            pos = np.searchsorted(preds, wedge_ends)
            pos[pos == preds.shape[0]] = preds.shape[0] - 1
            total += int(np.count_nonzero(preds[pos] == wedge_ends))
            counters.record(
                element_ops=_log2_cost(int(wedge_ends.shape[0])),
                random_accesses=int(wedge_ends.shape[0]),
            )
        record = RunRecord(
            self.name,
            "tc",
            seconds=time.perf_counter() - start,
            iterations=1,
            counters=counters,
            per_iteration_work=[work_units],
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
        """GD without destination-vertex access.

        Each iteration materializes per-edge endpoint factors (two gathers
        = the extra "non-trivial accesses to internal data structures" the
        paper describes), computes per-edge errors, then segment-reduces
        gradients for users (edges are user-sorted) and for items (extra
        argsort).  The update math matches GraphMat's GD exactly.
        """
        counters = EventCounters()
        start = time.perf_counter()
        coo = graph.edges.sorted_by("row-major")
        factors = cf_initial_factors(graph.n_vertices, k, seed)
        ratings = coo.vals.astype(np.float64)
        item_order = np.argsort(coo.cols, kind="stable")
        # GraphMat's apply only runs for vertices that received messages;
        # match that by freezing vertices with no rating edges.
        touched = np.zeros(graph.n_vertices, dtype=bool)
        touched[coo.rows] = True
        touched[coo.cols] = True
        work: list[np.ndarray] = []
        for _ in range(iterations):
            user_f = factors[coo.rows]  # materialized copy #1
            item_f = factors[coo.cols]  # materialized copy #2
            errors = ratings - np.einsum("ij,ij->i", user_f, item_f)
            weighted_items = item_f * errors[:, None]
            weighted_users = user_f * errors[:, None]
            counters.record(
                allocations=5,
                element_ops=6 * k * coo.nnz,
                random_accesses=2 * coo.nnz,
                sequential_bytes=4 * 8 * k * coo.nnz,
                messages=2 * coo.nnz,
            )
            gradients = np.zeros_like(factors)
            _segment_add(gradients, coo.rows, weighted_items)
            # Item gradients need edges re-sorted by item: the extra pass.
            _segment_add(
                gradients, coo.cols[item_order], weighted_users[item_order]
            )
            counters.record(
                element_ops=2 * k * coo.nnz + _log2_cost(coo.nnz),
                random_accesses=2 * coo.nnz,
                allocations=3,
            )
            updated = factors + gamma * (gradients - lam * factors)
            factors = np.where(touched[:, None], updated, factors)
            counters.record(
                allocations=2, element_ops=3 * k * graph.n_vertices
            )
            work.append(
                np.asarray(
                    [2.0 * coo.nnz / GRID_PROCESSES] * GRID_PROCESSES
                )
            )
        record = RunRecord(
            self.name,
            "cf",
            seconds=time.perf_counter() - start,
            iterations=iterations,
            counters=counters,
            per_iteration_work=work,
        )
        return factors, record


def _segment_add(out: np.ndarray, sorted_keys: np.ndarray, values: np.ndarray) -> None:
    """out[key] += sum(values of that key); keys must be pre-sorted."""
    if sorted_keys.shape[0] == 0:
        return
    boundary = np.empty(sorted_keys.shape[0], dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(boundary)
    out[sorted_keys[starts]] += np.add.reduceat(values, starts, axis=0)
