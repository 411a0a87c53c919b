"""Figure 5: multicore scalability of the four frameworks (simulated).

Paper setup: PageRank on Facebook and SSSP on Flickr, 1-24 cores.  Paper
result: GraphMat scales 13-15x at 24 cores; GraphLab ~8x; CombBLAS 2-6x
(square process grid: only 16 of 24 cores usable); Galois 6-12x.

Per the substitution table in DESIGN.md, scaling is simulated: each
framework's *measured* per-superstep work-unit distribution (partitions,
vertex tasks, grid blocks) is scheduled onto T model cores under that
framework's scheduling policy and bandwidth model.
"""

import numpy as np

from repro.bench import format_table, prepare_case, run_params, write_result
from repro.bench.paper import FIG5_SPEEDUP_AT_24
from repro.core.options import EngineOptions
from repro.frameworks.graphmat import GraphMatFramework
from repro.frameworks.registry import make_framework
from repro.perf.parallel_model import speedup_curve

THREADS = [1, 2, 4, 8, 12, 16, 20, 24]

_LABELS = {
    "graphmat": "GraphMat",
    "graphlab": "GraphLab",
    "combblas": "CombBLAS",
    "galois": "Galois",
}


def _framework_for_scaling(name):
    if name == "graphmat":
        # Over-partition so the dynamic scheduler has units to balance
        # (the paper's nthreads*8 partitions at 24 threads).
        return GraphMatFramework(
            EngineOptions(blocks=24 * 8, record_partition_stats=True)
        )
    return make_framework(name)


def _curves(algorithm: str, dataset: str, params=None):
    case = prepare_case(dataset, algorithm, params)
    args, kwargs = run_params(case)
    curves = {}
    for name, label in _LABELS.items():
        framework = _framework_for_scaling(name)
        framework.run(case.algorithm, case.graph, *args, **kwargs)  # warm
        _, record = framework.run(case.algorithm, case.graph, *args, **kwargs)
        curves[label] = speedup_curve(
            record.per_iteration_work, THREADS, framework.scaling_profile
        )
    return curves


def _render(title, curves):
    rows = []
    for label, curve in curves.items():
        low, high = FIG5_SPEEDUP_AT_24[label]
        rows.append(
            [label]
            + [f"{curve[t]:.1f}x" for t in THREADS]
            + [f"{low:g}-{high:g}x"]
        )
    return format_table(
        ["framework"] + [f"T={t}" for t in THREADS] + ["paper@24"],
        rows,
        title=title,
    )


def test_fig5a_pagerank_scalability(benchmark, pedantic_kwargs):
    curves = _curves("pagerank", "facebook", {"iterations": 3})
    table = _render("Figure 5(a) - PageRank/Facebook simulated scaling", curves)
    print("\n" + table)
    write_result("fig5a_scalability_pagerank", table)
    at24 = {label: curve[24] for label, curve in curves.items()}
    # Paper shape: GraphMat scales best; CombBLAS worst (square grid).
    assert at24["GraphMat"] > at24["GraphLab"]
    assert at24["GraphMat"] > at24["CombBLAS"]
    assert at24["GraphMat"] > at24["Galois"]
    assert at24["GraphMat"] > 8.0
    assert at24["CombBLAS"] <= 16.0
    # Speedup never decreases with cores for the dynamic schedulers.
    for label in ("GraphMat", "Galois"):
        values = [curves[label][t] for t in THREADS]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    benchmark.pedantic(
        lambda: _curves("pagerank", "facebook", {"iterations": 2}),
        **pedantic_kwargs,
    )


def test_fig5b_sssp_scalability(benchmark, pedantic_kwargs):
    curves = _curves("sssp", "flickr")
    table = _render("Figure 5(b) - SSSP/Flickr simulated scaling", curves)
    print("\n" + table)
    write_result("fig5b_scalability_sssp", table)
    at24 = {label: curve[24] for label, curve in curves.items()}
    assert at24["GraphMat"] > at24["GraphLab"]
    assert at24["GraphMat"] > at24["CombBLAS"]
    benchmark.pedantic(lambda: _curves("sssp", "flickr"), **pedantic_kwargs)


def test_fig5_speedup_model_timing(benchmark, pedantic_kwargs):
    case = prepare_case("facebook", "pagerank", {"iterations": 2})
    framework = _framework_for_scaling("graphmat")
    args, kwargs = run_params(case)
    _, record = framework.run(case.algorithm, case.graph, *args, **kwargs)
    benchmark.pedantic(
        lambda: speedup_curve(
            record.per_iteration_work, THREADS, framework.scaling_profile
        ),
        **pedantic_kwargs,
    )
