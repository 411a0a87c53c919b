"""Seeded inputs: the R-MAT edge list on disk and the request plans.

Everything the program under test sees comes from here and is a pure
function of ``--seed``: one weighted R-MAT graph written as a plain
``u<TAB>v<TAB>w`` text file, the roots/sources of the analytics passes,
the query streams of the serve workloads and the mutation batches.  The
generator is the benchmark's own (NumPy only) so that later changes to
``repro.graph.generators`` cannot move the inputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: Graph500 R-MAT quadrant probabilities (d = 1 - a - b - c).
RMAT_A, RMAT_B, RMAT_C = 0.57, 0.19, 0.19
#: Roots are drawn from vertices with at least this many out-edges: a
#: uniformly drawn R-MAT vertex is often a sink whose BFS ends in one
#: superstep, which would fill a run with no-op queries.
MIN_ROOT_OUT_DEGREE = 8
#: Roots/sources per run; also the lane count K of the batched passes.
N_ROOTS = 16
#: ``serve_payload`` draws from N_PAYLOAD_SOURCES sources x 3 kinds with
#: this exponent; filling the hot set is set-up time, hence only 8.
N_PAYLOAD_SOURCES, ZIPF_EXPONENT = 8, 1.1
#: Fixed iteration counts of the analytics passes (PageRank, PPR).
PAGERANK_ITERATIONS, PPR_ITERATIONS = 20, 10
#: Workloads that call the library API; the others go through HTTP.
LIBRARY_WORKLOADS = ("offline_analytics", "batch_analytics")
#: ``serve_mutate_mix``: edges per posted batch.
BATCH_INSERTS, BATCH_DELETES = 256, 64


class EdgeList:
    """A deduplicated, self-loop-free weighted directed edge list."""

    def __init__(self, src: np.ndarray, dst: np.ndarray, weights: np.ndarray):
        self.src, self.dst, self.weights = src, dst, weights
        #: What the readers infer from a plain edge list: max id + 1.
        self.n_vertices = int(max(src.max(), dst.max())) + 1

    @property
    def n_edges(self) -> int:
        return int(self.src.shape[0])

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.n_vertices)

    def write_tsv(self, path: Path) -> None:
        table = np.column_stack([self.src, self.dst, self.weights])
        np.savetxt(path, table, fmt="%d", delimiter="\t")


def rmat_edges(scale: int, edge_factor: int, seed: int) -> EdgeList:
    """R-MAT ``2**scale`` vertices, ``edge_factor`` edges per vertex.

    Vertex ids are permuted (so degree does not follow id), duplicates
    and self-loops are dropped (so "keep-last" ingest policy is never
    exercised and the oracle needs no policy of its own), and weights
    are small integers: path sums are exact in float64, whichever order
    the engine and the oracle add them in.
    """
    rng = np.random.default_rng([seed, scale, edge_factor])
    n, m = 1 << scale, (1 << scale) * edge_factor
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        draw = rng.random(m)
        src |= (draw >= RMAT_A + RMAT_B).astype(np.int64) << bit
        dst_bit = ((draw >= RMAT_A) & (draw < RMAT_A + RMAT_B)) | (
            draw >= RMAT_A + RMAT_B + RMAT_C
        )
        dst |= dst_bit.astype(np.int64) << bit
    relabel = rng.permutation(n)
    src, dst = relabel[src], relabel[dst]
    keep = src != dst
    src, dst = src[keep], dst[keep]
    _, first = np.unique(src * n + dst, return_index=True)
    first.sort()
    src, dst = src[first], dst[first]
    weights = rng.integers(1, 256, size=src.shape[0], dtype=np.int64)
    return EdgeList(src, dst, weights)


def sample_roots(edges: EdgeList, seed: int, count: int = N_ROOTS) -> list[int]:
    """``count`` distinct vertices with out-degree >= MIN_ROOT_OUT_DEGREE."""
    rng = np.random.default_rng([seed, 1])
    candidates = np.flatnonzero(edges.out_degrees() >= MIN_ROOT_OUT_DEGREE)
    if candidates.shape[0] < count:
        raise ValueError(
            f"only {candidates.shape[0]} vertices have out-degree >= "
            f"{MIN_ROOT_OUT_DEGREE}: the graph is too small"
        )
    return [int(v) for v in rng.choice(candidates, size=count, replace=False)]


def query_body(kind: str, vertex: int) -> dict:
    """The adapter parameters of one query (server defaults otherwise)."""
    return {"root": vertex} if kind == "bfs" else {"source": vertex}


def topk_plan(edges: EdgeList, seed: int, length: int) -> list[tuple[str, int]]:
    """Distinct BFS/SSSP/PPR queries 2:2:1, so the cache always misses.

    At most ``length`` of them, fewer on a graph too small to supply
    that many distinct roots per kind.
    """
    rng = np.random.default_rng([seed, 2])
    candidates = np.flatnonzero(edges.out_degrees() >= MIN_ROOT_OUT_DEGREE)
    kinds = ("bfs", "sssp", "bfs", "sssp", "ppr")
    # Distinct per kind: each kind walks its own permutation; no kind
    # takes more than half of the plan.
    orders = {k: iter(rng.permutation(candidates)) for k in dict.fromkeys(kinds)}
    length = min(length, 2 * candidates.shape[0])
    return [
        (kind, int(next(orders[kind])))
        for kind in (kinds[i % len(kinds)] for i in range(length))
    ]


def payload_plan(
    roots: list[int], seed: int, length: int
) -> tuple[list[tuple[str, int]], list[int]]:
    """The hot queries and ``length`` Zipf-distributed indices into them."""
    rng = np.random.default_rng([seed, 3])
    hot = [(kind, root) for root in roots for kind in ("bfs", "sssp", "ppr")]
    ranks = np.arange(1, len(hot) + 1, dtype=np.float64)
    weights = ranks**-ZIPF_EXPONENT
    draws = rng.choice(len(hot), size=length, p=weights / weights.sum())
    return hot, [int(i) for i in draws]


def mutation_batches(
    edges: EdgeList, seed: int, count: int
) -> list[tuple[list[list[int]], list[list[int]]]]:
    """``count`` batches of (inserts ``[u, v, w]``, deletes ``[u, v]``).

    Inserts are edges absent from the base graph and from every other
    batch; deletes are edges inserted by *earlier* batches and not yet
    deleted, so every row has an effect and the final edge set is the
    base plus surviving inserts.
    """
    rng = np.random.default_rng([seed, 4])
    n = edges.n_vertices
    taken = set((edges.src * n + edges.dst).tolist())
    alive: list[tuple[int, int]] = []
    batches = []
    for _ in range(count):
        deletes = []
        if len(alive) >= BATCH_DELETES:
            picks = rng.choice(len(alive), size=BATCH_DELETES, replace=False)
            chosen = set(int(i) for i in picks)
            deletes = [list(alive[i]) for i in sorted(chosen)]
            alive = [e for i, e in enumerate(alive) if i not in chosen]
        inserts = []
        while len(inserts) < BATCH_INSERTS:
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            if u == v or u * n + v in taken:
                continue
            taken.add(u * n + v)
            inserts.append([u, v, int(rng.integers(1, 256))])
        alive.extend((u, v) for u, v, _ in inserts)
        batches.append((inserts, deletes))
    return batches


def apply_batches(edges: EdgeList, batches) -> EdgeList:
    """The edge list after ``batches`` (for the post-window oracle)."""
    n = edges.n_vertices
    inserted = np.array(
        [row for inserts, _ in batches for row in inserts], dtype=np.int64
    ).reshape(-1, 3)
    deleted = np.array(
        [row for _, deletes in batches for row in deletes], dtype=np.int64
    ).reshape(-1, 2)
    # Inserts are distinct and absent from the base (mutation_batches),
    # so the final set is the plain union minus the deleted keys.
    src = np.concatenate([edges.src, inserted[:, 0]])
    dst = np.concatenate([edges.dst, inserted[:, 1]])
    weights = np.concatenate([edges.weights, inserted[:, 2]])
    keep = ~np.isin(src * n + dst, deleted[:, 0] * n + deleted[:, 1])
    result = EdgeList(src[keep], dst[keep], weights[keep])
    # Mutations never grow the vertex set the server was started with.
    result.n_vertices = n
    return result
