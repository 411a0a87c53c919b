"""Print SHA-256 digests of eight algorithms x two backends.

A parity check across commits for engine refactors: results must be
bitwise equal before and after.  Either run the same script in two
checkouts and diff the output, or compare against a committed record:

    PYTHONPATH=src python tools/parity_digests.py [scale] [--blocks N]
    PYTHONPATH=src python tools/parity_digests.py 10 \
        --check tools/parity_digests.expected

``--check FILE`` exits 1 and prints the differing lines when the output
is not ``FILE``, which holds the output of a run at the same scale; CI
runs it so that a kernel or selector change that moves one bit on any
backend fails the build.  To re-record after an intended change of
results, redirect the output of a run without ``--check`` into the file.

``--blocks N`` (N >= 1) runs every cell on ``N`` row blocks
(``EngineOptions(blocks=N)``) instead of the count the backend and graph
imply, and fails unless every graph's views were cut into ``min(N, n)``
blocks.  The block count is a schedule, so the digests must not change:
CI checks the same file at the default count and at ``--blocks 8``.
"""

import argparse
import difflib
import hashlib
import sys

import numpy as np

from repro.algorithms import (
    run_bfs,
    run_collaborative_filtering,
    run_connected_components,
    run_label_propagation,
    run_pagerank,
    run_personalized_pagerank,
    run_sssp,
    run_triangle_count,
)
from repro.core.options import KNOWN_BACKENDS, EngineOptions
from repro.graph.generators.bipartite import BipartiteSpec, bipartite_rating_graph
from repro.graph.generators.rmat import rmat_graph
from repro.graph.preprocess import symmetrize, to_dag, with_random_weights

def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def digest_lines(scale: int, blocks: int | None = None) -> list[str]:
    """One ``backend algorithm digest`` line per cell, then the ``ALL`` line."""
    g = rmat_graph(scale=scale, edge_factor=8, seed=7)
    sym = symmetrize(g)
    weighted = with_random_weights(sym, seed=3)
    dag = to_dag(sym)
    deg = sym.out_degrees()
    root = int(np.argmax(deg))
    spec = BipartiteSpec(n_users=400, n_items=60, ratings_per_user=8.0)
    bip = bipartite_rating_graph(spec, seed=5)
    seeds = {root: 0, int(np.argsort(deg)[-2]): 1, int(np.argsort(deg)[-3]): 2}
    total = hashlib.sha256()
    lines = []
    for backend in KNOWN_BACKENDS:
        opts = EngineOptions(backend=backend, n_workers=2, blocks=blocks)
        rows = {
            "pagerank10": digest(run_pagerank(g, max_iterations=10, options=opts).ranks),
            "ppr10": digest(
                run_personalized_pagerank(g, root, max_iterations=10, options=opts).ranks
            ),
            "bfs": digest(run_bfs(sym, root, options=opts).distances),
            "sssp": digest(run_sssp(weighted, root, options=opts).distances),
            "cc": digest(run_connected_components(sym, options=opts).labels),
            "labelprop": digest(
                *(lambda r: (r.labels, r.distances))(
                    run_label_propagation(sym, seeds, options=opts)
                )
            ),
            "cf": digest(
                run_collaborative_filtering(
                    bip, spec.n_users, k=4, iterations=3, track_rmse=False,
                    options=opts,
                ).factors
            ),
            "triangles": digest(run_triangle_count(dag, options=opts).per_vertex),
        }
        for name, d in rows.items():
            lines.append(f"{backend:13s} {name:11s} {d}")
            total.update(f"{backend}{name}{d}".encode())
    lines.append(f"ALL {total.hexdigest()}")
    if blocks is not None:
        for graph in (g, sym, weighted, dag, bip):
            _check_blocks(graph, blocks)
    return lines


def _check_blocks(graph, blocks: int) -> None:
    """Fail unless the runs on ``graph`` swept views of ``blocks`` blocks."""
    views = [
        view
        for direction in ("out", "in")
        if (view := graph.peek_partitions(direction, blocks)) is not None
    ]
    want = min(blocks, graph.n_vertices)
    if not views or any(view.n_partitions != want for view in views):
        raise SystemExit(
            f"--blocks {blocks}: a {graph.n_vertices}-vertex graph ran on "
            f"{[view.n_partitions for view in views]} blocks, not {want}"
        )


def main() -> int:
    """Print the digests, or compare them with ``--check FILE``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scale", nargs="?", type=int, default=12)
    parser.add_argument(
        "--check", metavar="FILE",
        help="compare with FILE (a recorded run at the same scale)",
    )
    parser.add_argument(
        "--blocks", type=int, metavar="N",
        help="run every cell on N row blocks (default: the derived count)",
    )
    args = parser.parse_args()
    if args.blocks is not None and args.blocks < 1:
        parser.error("--blocks needs N >= 1")
    lines = digest_lines(args.scale, args.blocks)
    if args.check is None:
        print("\n".join(lines))
        return 0
    with open(args.check, encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    if lines == expected:
        print(f"{len(lines) - 1} digests match {args.check}")
        return 0
    for line in difflib.unified_diff(
        expected, lines, args.check, f"scale {args.scale}, this checkout",
        lineterm="", n=0,
    ):
        print(line)
    print("results are no longer bitwise what was recorded", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
