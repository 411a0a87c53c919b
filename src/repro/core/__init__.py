"""GraphMat core: vertex programs, generalized SpMV and the BSP engine."""

from repro.core.cancellation import CancellationToken
from repro.core.engine import (
    BatchRun,
    IterationStats,
    RunStats,
    run_graph_program,
    run_graph_programs_batched,
)
from repro.core.graph_program import EdgeDirection, GraphProgram, SemiringProgram
from repro.core.options import (
    DEFAULT_OPTIONS,
    KNOWN_BACKENDS,
    EngineOptions,
)
from repro.core.semiring import (
    MAX_TIMES,
    MIN_FIRST,
    MIN_PLUS,
    OR_AND,
    PLUS_FIRST,
    PLUS_TIMES,
    STANDARD_SEMIRINGS,
    Semiring,
    get_semiring,
)
from repro.core.spmv import PartitionWork, spmv_scalar, sweep_view

__all__ = [
    "EdgeDirection",
    "GraphProgram",
    "SemiringProgram",
    "EngineOptions",
    "DEFAULT_OPTIONS",
    "KNOWN_BACKENDS",
    "BatchRun",
    "CancellationToken",
    "IterationStats",
    "RunStats",
    "run_graph_program",
    "run_graph_programs_batched",
    "Semiring",
    "get_semiring",
    "STANDARD_SEMIRINGS",
    "PLUS_TIMES",
    "MIN_PLUS",
    "MIN_FIRST",
    "OR_AND",
    "MAX_TIMES",
    "PLUS_FIRST",
    "PartitionWork",
    "spmv_scalar",
    "sweep_view",
]
