"""Benchmark harness library used by the benchmarks/ pytest suite."""

from repro.bench.cases import prepare_case, run_params
from repro.bench.harness import run_grid
from repro.bench.tables import format_table, grid_table, write_result

__all__ = [
    "prepare_case",
    "run_params",
    "run_grid",
    "format_table",
    "grid_table",
    "write_result",
]
