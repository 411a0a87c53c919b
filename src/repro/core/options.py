"""Engine configuration: the optimization knobs of paper section 4.5.

Each knob corresponds to one bar of the Figure 7 ablation:

1. ``use_bitvector`` — sparse vectors as bitvector + dense values instead of
   sorted (index, value) tuples (section 4.4.2).
2. ``fused`` — vectorized kernels with the user functions fused in, our
   analogue of compiling with ``-ipo`` (inlining user functions into the
   SpMV inner loop removes per-edge call dispatch).
3. ``blocks`` — the number of matrix partitions, the paper's other
   tunable.  Unset, the count is derived from the backend and the graph
   (:meth:`EngineOptions.block_count`); the Figure 5 and 7 drivers set it
   to the partition counts of the paper's simulated cores (``24`` static,
   ``24 * 8`` over-partitioned, section 4.5 item 4), which
   :mod:`repro.perf.parallel_model` schedules onto model cores.

Beyond the paper's knobs, the engine's SpMV can be scheduled onto real
threads (:func:`repro.core.spmv.sweep_view`):

4. ``backend`` / ``n_workers`` — where the per-block SpMV kernels run:
   ``"serial"`` (calling thread) or ``"threaded"`` (a thread pool of
   ``n_workers`` over the GIL-releasing NumPy and C kernels).
5. ``dense_pull_crossover`` — the lane kernel selector's crossover, in
   edges (:func:`repro.core.kernels.select_kernel`).  The default is
   measured (docs/KERNELS.md); the option is the override
   ``repro.bench.backends`` sweeps it with.

The paper notes the only user-visible tunables are the thread count and the
number of matrix partitions; everything else defaults on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.cancellation import CancellationToken
from repro.core.kernels import DENSE_PULL_CROSSOVER
from repro.core.spmv import RADIX_KEY_MAX_ROWS
from repro.errors import ProgramError

#: Execution backends the engine can schedule SpMV blocks on: the one
#: list of backend names (option validation, ``repro-serve --backend``).
KNOWN_BACKENDS: tuple[str, ...] = ("serial", "threaded")


@dataclass(frozen=True)
class EngineOptions:
    """Configuration of the GraphMat engine."""

    #: Sparse vector representation (section 4.4.2, option 2 when True).
    use_bitvector: bool = True
    #: Use fused/vectorized kernels when the program supports them.
    fused: bool = True
    #: Row blocks (matrix partitions) to cut the views into; None derives
    #: the count from the backend and the graph (:meth:`block_count`).
    blocks: int | None = None
    #: Upper bound on supersteps; -1 means run until convergence
    #: (the paper's ``run_graph_program(..., -1, ...)``).
    max_iterations: int = -1
    #: Record per-partition work each superstep (feeds the parallel model
    #: and Figure 5/7; cheap, but off by default for micro-benchmarks).
    record_partition_stats: bool = False
    #: Execution backend for the fused SpMV blocks: ``"serial"`` or
    #: ``"threaded"`` (see ``repro.core.spmv.sweep_view``).
    backend: str = "serial"
    #: Worker count for the threaded backend (ignored by serial).
    n_workers: int = 1
    #: Kernel-selection threshold: the lane kernel pulls every stored
    #: edge of a block when ``dense_pull_crossover * frontier_edges >
    #: block.nnz``, ``frontier_edges`` being the exact edge count under
    #: the frontier's columns (``repro.core.kernels.select_kernel``).
    #: The value is what a gathered edge costs relative to a pulled one;
    #: the default is the measured ratio.
    dense_pull_crossover: float = DENSE_PULL_CROSSOVER
    #: Hard superstep bound for run-to-quiescence runs
    #: (``max_iterations == -1``): past it the program evidently does
    #: not quiesce and the engine raises
    #: :class:`~repro.errors.ConvergenceError`.  A bug detector, not a
    #: budget — use ``max_iterations`` or a token ``superstep_budget``
    #: to bound a run intentionally (see :meth:`iteration_bound`).
    safety_cap: int = 100_000
    #: Cooperative cancellation (:class:`~repro.core.cancellation.
    #: CancellationToken`): deadline, explicit cancel, and/or superstep
    #: budget, polled at the top of every superstep.  Excluded from
    #: equality/hashing — a token is per-run control flow, not engine
    #: configuration (two runs with different tokens still share caches
    #: keyed on options).
    token: CancellationToken | None = field(default=None, compare=False)
    #: Optional per-superstep profiling hook: called once per completed
    #: superstep with that superstep's :class:`~repro.core.engine.
    #: IterationStats` (timings, frontier density, kernel counts) as the
    #: run records it.  The cost when unset is a single ``is not None``
    #: check per superstep; when set, the hook runs on the engine thread
    #: and must be fast and must not raise.  Like ``token``, excluded
    #: from equality/hashing — profiling is per-run instrumentation, not
    #: engine configuration.
    profile_hook: Callable[..., None] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.blocks is not None and self.blocks < 1:
            raise ProgramError(f"blocks must be >= 1 or None, got {self.blocks}")
        if self.max_iterations == 0 or self.max_iterations < -1:
            raise ProgramError(
                f"max_iterations must be -1 (until convergence) or positive, "
                f"got {self.max_iterations}"
            )
        if self.backend not in KNOWN_BACKENDS:
            raise ProgramError(
                f"unknown execution backend {self.backend!r}; "
                f"available: {', '.join(KNOWN_BACKENDS)}"
            )
        if self.n_workers < 1:
            raise ProgramError(f"n_workers must be >= 1, got {self.n_workers}")
        if not self.dense_pull_crossover > 0:
            raise ProgramError(
                f"dense_pull_crossover must be > 0, "
                f"got {self.dense_pull_crossover}"
            )
        if self.safety_cap < 1:
            raise ProgramError(
                f"safety_cap must be >= 1, got {self.safety_cap}"
            )
        if self.token is not None and not isinstance(
            self.token, CancellationToken
        ):
            raise ProgramError(
                f"token must be a CancellationToken or None, "
                f"got {type(self.token).__name__}"
            )
        if self.profile_hook is not None and not callable(self.profile_hook):
            raise ProgramError(
                f"profile_hook must be callable or None, "
                f"got {type(self.profile_hook).__name__}"
            )

    def iteration_bound(self) -> tuple[int | None, str]:
        """The run's superstep bound and which knob owns it.

        One precedence rule for every run:

        1. Explicit ``max_iterations`` (when not -1) is the *result
           contract*: the run stops there normally (``cancelled`` stays
           False) — a token ``superstep_budget`` can only cut it
           *short*, never extend it.
        2. The token's ``superstep_budget`` (and its deadline /
           explicit cancel) is *governance*: crossing it marks the run
           cancelled with the reason recorded in ``RunStats``.
        3. ``safety_cap`` backstops run-to-quiescence runs only
           (``max_iterations == -1``): crossing it raises
           :class:`~repro.errors.ConvergenceError` naming the cap —
           a program that needs more supersteps than the cap is a bug
           or needs an explicit budget.

        Returns ``(bound, owner)`` where ``owner`` is
        ``"max_iterations"`` or ``"safety_cap"``; the token's bounds
        are enforced separately via ``token.check`` (they stop the run
        *before* ``bound`` or not at all).
        """
        if self.max_iterations != -1:
            return self.max_iterations, "max_iterations"
        return self.safety_cap, "safety_cap"

    def block_count(self, n_vertices: int) -> int:
        """Row blocks the matrix views of an ``n_vertices`` graph are cut into.

        ``blocks`` when it is set.  Otherwise a block is a unit of real
        execution that costs a Python round per superstep and balances
        nothing on its own, so the count is the fewest that give each
        worker one block (``n_workers`` under ``"threaded"``, one under
        ``"serial"``) and keep every block within
        ``RADIX_KEY_MAX_ROWS`` rows, where the sparse-gather sort keeps
        its 16-bit key.  Results do not depend on the count: a
        destination row lives in exactly one block.
        """
        if self.blocks is not None:
            return self.blocks
        workers = self.n_workers if self.backend == "threaded" else 1
        return max(workers, -(-int(n_vertices) // RADIX_KEY_MAX_ROWS))

    def with_(self, **changes) -> "EngineOptions":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **changes)


#: The paper's default configuration: everything on.
DEFAULT_OPTIONS = EngineOptions()

