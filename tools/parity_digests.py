"""Print SHA-256 digests of eight algorithms x five backends.

A parity check across commits for engine refactors: run the same script
in two checkouts and diff the output — results must be bitwise equal.

    REPRO_JIT_INTERPRET=1 PYTHONPATH=src python tools/parity_digests.py [scale]

(``REPRO_JIT_INTERPRET=1`` makes the jit backends run their own kernels
without numba instead of falling back.)
"""

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

SCALE = int(sys.argv[1]) if len(sys.argv) > 1 else 12


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def main() -> None:
    g = rmat_graph(scale=SCALE, edge_factor=8, seed=7)
    sym = symmetrize(g)
    weighted = with_random_weights(sym, seed=3)
    dag = to_dag(sym)
    deg = sym.out_degrees()
    root = int(np.argmax(deg))
    spec = BipartiteSpec(n_users=400, n_items=60, ratings_per_user=8.0)
    bip = bipartite_rating_graph(spec, seed=5)
    seeds = {root: 0, int(np.argsort(deg)[-2]): 1, int(np.argsort(deg)[-3]): 2}
    total = hashlib.sha256()
    for backend in KNOWN_BACKENDS:
        opts = EngineOptions(backend=backend, n_workers=2)
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
            print(f"{backend:13s} {name:11s} {d}")
            total.update(f"{backend}{name}{d}".encode())
    print("ALL", total.hexdigest())


if __name__ == "__main__":
    main()
