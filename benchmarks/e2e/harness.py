"""What every run shares: sizing constants, the run context, the outcome."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import oracle as oracle_module

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Scale 15 x edge factor 16 (~470k edges, 7 MB of text): the largest
#: graph whose three set-up rounds, measured window and verification fit
#: the ~25 s a run may take on 2 cores.  Not an option: another graph
#: gives numbers the bounds of BENCHMARK.json do not apply to.
DEFAULT_SCALE, EDGE_FACTOR = 15, 16
SMOKE_SCALE = 10
#: The name the one graph is served under (server flag and client calls).
GRAPH_NAME = "g"
#: Conversion and bring-up are repeated and the median reported (one
#: conversion's wall time on a shared box is the noisiest number in the
#: run); the warm-up traffic is paid once, on the measured instance.
SETUP_ROUNDS = 3
TOP_K = 10
#: ``serve_mutate_mix``: one batch posted every period, open loop.
WRITE_PERIOD_S = 0.5
#: Engine counts of the serve workloads are summed over this many
#: requests made just before the traced window: a fixed set of requests
#: repeats exactly, what fits in a timed window does not.
COUNTED_OPS = 8
CHILD_TIMEOUT_S = 170.0
#: Block kernels the engine selects between (``kernel_totals()`` keys).
KERNELS = ("scalar", "sparse-gather", "dense-pull")


@dataclass
class Outcome:
    """What one run measured, before it is mapped onto metric names."""

    latencies_ms: list = field(default_factory=list)
    window_s: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    #: Conversion + bring-up (load / spawn until ready), once per round.
    setup_rounds_s: list = field(default_factory=list)
    #: The warm-up traffic, paid once on the instance that is measured.
    warmup_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: Per-layer values by metric name (traced runs).
    layer: dict = field(default_factory=dict)
    #: Why a metric is null, by metric name.
    notes: dict = field(default_factory=dict)


class Context:
    """Inputs, scratch space and lazily built helpers of one run."""

    def __init__(self, args) -> None:
        self.args = args
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.scale = SMOKE_SCALE if args.smoke else DEFAULT_SCALE
        self.setup_rounds = 1 if args.smoke else SETUP_ROUNDS
        #: Repetitions inside each probe.
        self.repeats = 1 if args.smoke else 3
        self.clients = args.clients
        self.out = Path(args.out).resolve()
        self.workdir = self.out / f"work-{self.workload}-{os.getpid()}"
        self.env = {
            **os.environ,
            "PYTHONPATH": str(ROOT / "src"),
            # Ingest scratch defaults to the system temp dir; keep every
            # byte the run writes inside the checkout.
            "TMPDIR": str(self.workdir),
        }
        self.generate_s = self.verify_s = 0.0
        self._oracle = None
        #: Set by traced runs for the probes: the loaded ``Graph``, the
        #: in-process ``GraphService`` and the subprocess server's URL.
        self.graph = self.service = None
        self.server_url = ""

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(self.workdir)
        begin = time.perf_counter()
        self.edges = inputs.rmat_edges(self.scale, EDGE_FACTOR, self.seed)
        self.tsv = self.workdir / "graph.tsv"
        self.edges.write_tsv(self.tsv)
        self.roots = inputs.sample_roots(self.edges, self.seed)
        self.generate_s = time.perf_counter() - begin

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def snapshot_path(self, round_index: int) -> Path:
        return self.workdir / f"graph-{round_index}.gmsnap"

    def convert(self, round_index: int) -> tuple[float, Path]:
        """``repro-convert convert in.tsv out.gmsnap --weighted``."""
        snapshot = self.snapshot_path(round_index)
        begin = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.store.cli", "convert",
             str(self.tsv), str(snapshot), "--weighted"],
            env=self.env, check=True, timeout=CHILD_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        return time.perf_counter() - begin, snapshot

    @property
    def oracle(self):
        if self._oracle is None:
            self._oracle = oracle_module.Oracle(self.edges)
            if self.args.corrupt_oracle:
                self._oracle.corruption = 1.0
        return self._oracle

    def mutation_batches(self, count: int):
        return inputs.mutation_batches(self.edges, self.seed, count)
