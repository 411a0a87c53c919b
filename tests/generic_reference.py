"""An independent reference for the K-lane kernel, without a new option.

Every built-in scalar algorithm is lane-capable, so both sides of
"batched = single" and "backend = serial" sweep with
``run_block_batch``.  The engine picks the kernel family from what the
program declares; a subclass that withdraws its ``reduce_identity``
certification is therefore *not* lane-capable and runs the generic
``run_block`` kernel (sort/bincount/reduceat over one sparse vector,
per-vertex ``apply_batch``) through the same driver — a second
implementation of the same algorithm to compare bits against.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bfs import BFSProgram, init_bfs
from repro.algorithms.connected_components import MinLabelProgram
from repro.algorithms.pagerank import (
    PageRankProgram,
    PersonalizedPageRankProgram,
    init_pagerank,
    init_personalized_pagerank,
)
from repro.algorithms.sssp import SSSPProgram, init_sssp
from repro.core.engine import RunStats, run_graph_program
from repro.core.options import EngineOptions
from repro.vector.sparse_vector import FLOAT64


def generic(program_cls):
    """``program_cls`` minus its identity certification (generic kernel)."""
    return type(
        f"Generic{program_cls.__name__}",
        (program_cls,),
        {"reduce_identity": None},
    )


def _run(graph, program, max_iterations) -> RunStats:
    assert not program.supports_batched()
    return run_graph_program(
        graph, program, EngineOptions(max_iterations=max_iterations)
    )


def reference_pagerank(graph, iterations, r=0.15):
    program = generic(PageRankProgram)(r=r)
    init_pagerank(graph, program)
    stats = _run(graph, program, iterations)
    return graph.vertex_properties.data[:, 0].copy(), stats


def reference_ppr(graph, source, iterations, r=0.15):
    program = generic(PersonalizedPageRankProgram)(r=r)
    init_personalized_pagerank(graph, program, source)
    stats = _run(graph, program, iterations)
    return graph.vertex_properties.data[:, 0].copy(), stats


def reference_bfs(graph, root):
    init_bfs(graph, root)
    stats = _run(graph, generic(BFSProgram)(), -1)
    return graph.vertex_properties.data.copy(), stats


def reference_sssp(graph, source):
    init_sssp(graph, source)
    stats = _run(graph, generic(SSSPProgram)(), -1)
    return graph.vertex_properties.data.copy(), stats


def reference_components(graph):
    graph.init_properties(FLOAT64)
    graph.vertex_properties.data[:] = np.arange(
        graph.n_vertices, dtype=np.float64
    )
    graph.set_all_active()
    stats = _run(graph, generic(MinLabelProgram)(), -1)
    return graph.vertex_properties.data.astype(np.int64), stats
