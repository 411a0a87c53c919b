"""Figure 7: effect of the backend optimizations (cumulative speedup).

Paper setup: PageRank/Facebook and SSSP/Flickr; bars = naive, +bitvector,
+ipo, +parallel, +load balance.  Paper result: overall 27.3x (PR) and
19.9x (SSSP) over naive scalar code, with load balancing mattering far
more for SSSP/Flickr (2.8x) than PR/Facebook (1.2x).

The first three bars are measured wall time of the serial engine under
the corresponding EngineOptions; the two parallel bars multiply the +ipo
time by the simulated 24-core speedup computed from measured partition
work (static 24 partitions vs dynamic 8x24 — see DESIGN.md).
"""

import time

import numpy as np

from repro.bench import format_table, prepare_case, run_params, write_result
from repro.bench.paper import FIG7_CUMULATIVE
from repro.core.options import EngineOptions
from repro.frameworks.graphmat import GraphMatFramework
from repro.perf.parallel_model import ScalingProfile, speedup_curve

SERIAL_RUNGS = (
    ("naive", EngineOptions(use_bitvector=False, fused=False)),
    ("+bitvector", EngineOptions(use_bitvector=True, fused=False)),
    ("+ipo", EngineOptions(use_bitvector=True, fused=True)),
)

#: The parallel bars share GraphMat's bandwidth model but differ in
#: scheduling: static with partitions == threads, vs dynamic with 8x
#: over-partitioning (section 4.5 item 4).
_STATIC = ScalingProfile(
    name="static", schedule="static", sync_units=24.0, bandwidth_beta=0.05,
    streaming_fraction=0.75,
)
_DYNAMIC = ScalingProfile(
    name="dynamic", schedule="dynamic", sync_units=24.0, bandwidth_beta=0.05,
    streaming_fraction=0.75, per_unit_overhead=2.0,
)


def _measure(case, options):
    framework = GraphMatFramework(options)
    args, kwargs = run_params(case)
    framework.run(case.algorithm, case.graph, *args, **kwargs)  # warm
    start = time.perf_counter()
    _, record = framework.run(case.algorithm, case.graph, *args, **kwargs)
    return time.perf_counter() - start, record


def _ablation(algorithm, dataset, params=None):
    case = prepare_case(dataset, algorithm, params)
    times = {}
    for name, options in SERIAL_RUNGS:
        times[name], _ = _measure(case, options)
    # Parallel bars: measured partition work + simulated 24-core schedule.
    _, static_record = _measure(
        case, EngineOptions(blocks=24, record_partition_stats=True)
    )
    static_speedup = speedup_curve(
        static_record.per_iteration_work, [24], _STATIC
    )[24]
    _, dynamic_record = _measure(
        case, EngineOptions(blocks=24 * 8, record_partition_stats=True)
    )
    dynamic_speedup = speedup_curve(
        dynamic_record.per_iteration_work, [24], _DYNAMIC
    )[24]
    times["+parallel"] = times["+ipo"] / static_speedup
    times["+load balance"] = times["+ipo"] / dynamic_speedup
    cumulative = {name: times["naive"] / t for name, t in times.items()}
    return times, cumulative


def _render(tag, cumulative):
    paper = FIG7_CUMULATIVE[tag]
    rows = [
        [name, f"{cumulative[name]:.1f}x"]
        for name in ("naive", "+bitvector", "+ipo", "+parallel", "+load balance")
    ]
    rows.append(["paper overall", f"{paper['overall']}x"])
    return format_table(
        ["configuration", "cumulative speedup over naive"],
        rows,
        title=f"Figure 7 - {tag}",
    )


def test_fig7_pagerank_ablation(benchmark, pedantic_kwargs):
    times, cumulative = _ablation("pagerank", "facebook", {"iterations": 2})
    table = _render("pagerank/facebook", cumulative)
    print("\n" + table)
    write_result("fig7_pagerank", table)
    # Monotone ladder: each optimization helps (or at worst is neutral).
    assert cumulative["+bitvector"] >= 0.9  # bitvector: small serial gain
    assert cumulative["+ipo"] > cumulative["+bitvector"]
    assert cumulative["+parallel"] > cumulative["+ipo"]
    assert cumulative["+load balance"] >= cumulative["+parallel"] * 0.95
    assert cumulative["+load balance"] > 5.0
    benchmark.pedantic(
        lambda: _measure(
            prepare_case("facebook", "pagerank", {"iterations": 2}),
            EngineOptions(),
        ),
        **pedantic_kwargs,
    )


def test_fig7_sssp_ablation(benchmark, pedantic_kwargs):
    times, cumulative = _ablation("sssp", "flickr")
    table = _render("sssp/flickr", cumulative)
    print("\n" + table)
    write_result("fig7_sssp", table)
    assert cumulative["+ipo"] > cumulative["naive"]
    assert cumulative["+load balance"] > cumulative["+ipo"]
    benchmark.pedantic(
        lambda: _measure(prepare_case("flickr", "sssp"), EngineOptions()),
        **pedantic_kwargs,
    )


def test_fig7_load_balance_helps_skew_more(benchmark, pedantic_kwargs):
    """Paper: load balancing buys 2.8x on SSSP/Flickr vs 1.2x on
    PR/Facebook.  Check the direction: the skewed-frontier workload gains
    at least as much from dynamic over-partitioning as the dense one."""
    _, pr = _ablation("pagerank", "facebook", {"iterations": 2})
    _, sssp = _ablation("sssp", "flickr")
    pr_gain = pr["+load balance"] / pr["+parallel"]
    sssp_gain = sssp["+load balance"] / sssp["+parallel"]
    print(f"\nload-balance gain: PR {pr_gain:.2f}x, SSSP {sssp_gain:.2f}x")
    assert sssp_gain >= pr_gain * 0.8
    benchmark.pedantic(lambda: (pr_gain, sssp_gain), **pedantic_kwargs)


def test_fig7_fused_engine_timing(benchmark, pedantic_kwargs):
    case = prepare_case("facebook", "pagerank", {"iterations": 2})
    framework = GraphMatFramework(EngineOptions())
    args, kwargs = run_params(case)
    framework.run(case.algorithm, case.graph, *args, **kwargs)
    benchmark.pedantic(
        lambda: framework.run(case.algorithm, case.graph, *args, **kwargs),
        **pedantic_kwargs,
    )
