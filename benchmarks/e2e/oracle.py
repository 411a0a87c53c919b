"""Independent scipy references, built from the generated edge list alone.

Nothing here imports ``repro``: the oracle shares no code with the
program it judges.  BFS and SSSP come from ``scipy.sparse.csgraph``;
PageRank and personalized PageRank replay the paper's fixed-iteration,
unnormalised recurrence (equation 1) as CSR mat-vecs and are compared
to 1e-9; connected components are compared as partitions, not labels.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

#: Relative/absolute agreement demanded of every float result.  Integer
#: weights make BFS/SSSP exact; the PageRank sums differ from the
#: engine's only in addition order (~1e-15 relative).
RTOL, ATOL = 1e-9, 1e-12
#: Server-side defaults the serve workloads rely on (``PPRAdapter``).
PPR_DEFAULT_ITERATIONS = 30
DAMPING_R = 0.15


class Oracle:
    """Reference results for one edge list, memoised per query."""

    def __init__(self, edges) -> None:
        n = edges.n_vertices
        self.n = n
        self._weighted = csr_matrix(
            (edges.weights.astype(np.float64), (edges.src, edges.dst)),
            shape=(n, n),
        )
        out_degree = np.bincount(edges.src, minlength=n).astype(np.float64)
        # transition[v, u] = 1/out_degree(u) for every edge u -> v.
        self._transition = csr_matrix(
            (1.0 / out_degree[edges.src], (edges.dst, edges.src)), shape=(n, n)
        )
        # The engine only applies to vertices that received a message;
        # a vertex without in-edges keeps its rank for ever.
        self._has_in = np.bincount(edges.dst, minlength=n) > 0
        self._memo: dict = {}
        #: Self-test hook: add this to one entry of every reference
        #: vector (``run.py --corrupt-oracle``) to prove a wrong answer
        #: fails the command.  Sourced queries are hit at the source,
        #: which every ``top=k`` answer contains.
        self.corruption = 0.0

    def _remember(self, key, compute, corrupt_at: int = 0) -> np.ndarray:
        if key not in self._memo:
            values = compute()
            if self.corruption:
                values = values.copy()
                values[corrupt_at] += self.corruption
            self._memo[key] = values
        return self._memo[key]

    def bfs(self, root: int) -> np.ndarray:
        return self._remember(
            ("bfs", root),
            lambda: dijkstra(self._weighted, indices=root, unweighted=True),
            corrupt_at=root,
        )

    def sssp(self, source: int) -> np.ndarray:
        return self._remember(
            ("sssp", source),
            lambda: dijkstra(self._weighted, indices=source),
            corrupt_at=source,
        )

    def _iterate(self, ranks, teleport, iterations: int) -> np.ndarray:
        for _ in range(iterations):
            pushed = DAMPING_R * teleport + (1.0 - DAMPING_R) * (
                self._transition @ ranks
            )
            ranks = np.where(self._has_in, pushed, ranks)
        return ranks

    def pagerank(self, iterations: int) -> np.ndarray:
        return self._remember(
            ("pagerank", iterations),
            lambda: self._iterate(np.ones(self.n), np.ones(self.n), iterations),
        )

    def ppr(self, source: int, iterations: int = PPR_DEFAULT_ITERATIONS):
        def compute():
            unit = np.zeros(self.n)
            unit[source] = 1.0
            return self._iterate(unit, unit, iterations)

        return self._remember(
            ("ppr", source, iterations), compute, corrupt_at=source
        )

    def components(self) -> np.ndarray:
        return self._remember(
            ("cc",),
            lambda: connected_components(
                self._weighted, directed=True, connection="weak"
            )[1].astype(np.float64),
        )

    def reference(self, kind: str, vertex: int, **params) -> np.ndarray:
        """Dispatch on the query kind of a sourced query."""
        if kind == "bfs":
            return self.bfs(vertex)
        if kind == "sssp":
            return self.sssp(vertex)
        if kind == "ppr":
            return self.ppr(vertex, **params)
        raise ValueError(f"no oracle for kind {kind!r}")


def from_json_values(values: list) -> np.ndarray:
    """A full-vector response back to floats (JSON ``null`` is ``inf``)."""
    return np.array(
        [np.inf if v is None else v for v in values], dtype=np.float64
    )


def check_vector(got: np.ndarray, want: np.ndarray) -> str | None:
    """None when ``got`` matches the reference, else what is wrong."""
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return f"shape {got.shape} != {want.shape}"
    if not np.array_equal(np.isfinite(got), np.isfinite(want)):
        return "reachability differs from the reference"
    finite = np.isfinite(want)
    close = np.isclose(got[finite], want[finite], rtol=RTOL, atol=ATOL)
    if not close.all():
        worst = np.abs(got[finite] - want[finite]).max()
        return f"{(~close).sum()} value(s) differ, max |diff| {worst:.3g}"
    return None


def check_partition(got_labels: np.ndarray, want_labels: np.ndarray) -> str | None:
    """Same grouping of vertices, whatever the label values are."""
    if got_labels.shape != want_labels.shape:
        return f"shape {got_labels.shape} != {want_labels.shape}"
    pairs = np.unique(np.stack([got_labels, want_labels], axis=1), axis=0)
    n_got = np.unique(got_labels).shape[0]
    n_want = np.unique(want_labels).shape[0]
    if not pairs.shape[0] == n_got == n_want:
        return f"{n_got} components vs {n_want} in the reference"
    return None


def check_top(top: list, want: np.ndarray, k: int, order: str) -> str | None:
    """A ``top=k`` response against the full reference vector.

    Ties may be broken either way, so the rule is: every returned value
    is that vertex's reference value, the list is sorted best-first,
    it is as long as it can be, and no vertex left out is strictly
    better than the worst one returned.
    """
    sign = 1.0 if order == "min" else -1.0
    eligible = np.isfinite(want)
    expected_len = min(k, int(eligible.sum()))
    if len(top) != expected_len:
        return f"{len(top)} entries returned, {expected_len} expected"
    if not top:
        return None
    vertices = np.array([int(v) for v, _ in top])
    values = np.array(
        [np.inf if x is None else x for _, x in top], dtype=np.float64
    )
    if np.unique(vertices).shape[0] != vertices.shape[0]:
        return "a vertex is listed twice"
    problem = check_vector(values, want[vertices])
    if problem is not None:
        return problem
    if (np.diff(sign * values) < 0).any():
        return "entries are not sorted best-first"
    eligible[vertices] = False
    if eligible.any():
        best_left_out = (sign * want[eligible]).min()
        worst_returned = (sign * values).max()
        slack = ATOL + RTOL * abs(worst_returned)
        if best_left_out < worst_returned - slack:
            return "a vertex left out beats a returned one"
    return None
