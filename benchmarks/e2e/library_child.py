"""The program under test of the library workloads, as its own process.

``run.py`` spawns this once per set-up round, so CPU time and peak RSS
are those of the library doing analytics, not of the harness (graph
generation, scipy oracle).  Protocol on stdout, one JSON object per line:
``{"loaded": ...}`` after ``load_snapshot``, then (unless
``--setup-only``) ``{"ready": ...}`` after one warm-up pass and
``{"done": ...}`` after the timed window.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--roots", required=True, help="comma-separated ids")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--results", required=True, help="output .npz")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy as np

    from passes import PassRunner
    from repro.store import load_snapshot

    begin = time.perf_counter()
    graph = load_snapshot(args.snapshot)
    load_s = time.perf_counter() - begin
    print(json.dumps({"loaded": {"load_s": load_s}}), flush=True)
    if args.setup_only:
        return 0
    roots = [int(r) for r in args.roots.split(",")]
    runner = PassRunner(args.workload, graph, roots)
    print(json.dumps({"ready": {"warmup_s": runner.run_pass()}}), flush=True)

    latencies = []
    cpu_begin = time.process_time()
    window_begin = time.perf_counter()
    while time.perf_counter() - window_begin < args.seconds:
        latencies.append(runner.run_pass())
    window_s = time.perf_counter() - window_begin
    cpu_s = time.process_time() - cpu_begin
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    np.savez(args.results, **runner.first)
    print(
        json.dumps(
            {
                "done": {
                    "latencies_s": latencies,
                    "window_s": window_s,
                    "cpu_s": cpu_s,
                    "peak_rss_mb": peak_rss_mb,
                    "repeat_mismatches": runner.repeat_mismatches,
                }
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
