"""Smoke test of the end-to-end benchmark (collected by the tier-1 command).

The benchmark is frozen for later changes, so this is their early
warning: if a change removes or breaks an entry point the benchmark
drives (``repro-convert``, ``repro-serve``, ``ServeClient``, the library
API), a tiny run of it fails here, long before a full benchmark run.
Five runs at scale 10 cover the five workloads, both modes and the
self-test that a wrong answer fails the command.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def run_benchmark(tmp_path, workload: str, trace: int, *extra: str):
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0.5",
         "--workload", workload, "--trace", str(trace),
         "--out", str(tmp_path), *extra],
        capture_output=True, text=True, timeout=150,
    )
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return child, result


@pytest.mark.parametrize(
    ("workload", "trace"),
    [
        ("offline_analytics", 0),
        ("batch_analytics", 1),
        ("serve_payload", 0),
        ("serve_mutate_mix", 1),
    ],
)
def test_smoke_run_emits_every_metric(tmp_path, workload, trace):
    child, result = run_benchmark(tmp_path, workload, trace)
    # A server that does not exit 0 on SIGTERM, a non-200 reply and an
    # answer the oracle rejects all end up in ``failed``.
    assert child.returncode == 0, child.stdout[-2000:] + child.stderr[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    for metric in group:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"]), metric["name"]
    document = json.loads(
        (tmp_path / f"result-{workload}-trace{trace}.json").read_text()
    )
    for name, reported in document["metrics"].items():
        # null is allowed only with the reason written next to it.
        assert reported["value"] is not None or name in document["notes"], name
    if trace:
        spans = json.loads((tmp_path / f"trace-{workload}.json").read_text())
        assert spans["spans"] and not spans["missing_targets"]
    assert not list(tmp_path.glob("work-*")), "scratch directory left behind"


def test_wrong_answer_fails_the_command(tmp_path):
    child, result = run_benchmark(tmp_path, "serve_topk", 0, "--corrupt-oracle")
    assert child.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_compare_fails_missing_and_failed_runs():
    """Faster medians do not pass a set that lost a workload or an answer."""
    sys.path.insert(0, str(HERE))
    try:
        import compare
    finally:
        sys.path.remove(str(HERE))

    def run(workload, value, **result):
        return {
            "workload": workload, "trace": 0, "correct": True, "failed": 0,
            "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}, **result,
        }

    a = {"runs": [run("serve_topk", 10.0), run("serve_payload", 30.0)]}
    lost = {"runs": [run("serve_topk", 12.0)]}
    wrong = {"runs": [run("serve_topk", 12.0, correct=False, failed=9),
                      run("serve_payload", 30.0)]}
    assert compare.health(a, a, (0,)) == []
    assert len(compare.health(a, lost, (0,))) == 1
    assert len(compare.health(a, wrong, (0,))) == 2
    rows = compare.compare(
        compare.collect(a, 0), compare.collect(lost, 0), SPEC["end_to_end"]
    )
    assert {r["workload"]: r["verdict"] for r in rows} == {
        "serve_topk": "ok", "serve_payload": "REGRESSION",
    }


def test_benchmark_spec_is_consistent():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in SPEC["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
