"""Pluggable execution backends for the GraphMat engine's edge sweeps.

The partition layer guarantees lock-free disjoint output row ranges;
this package turns that guarantee into actual parallel schedules.  The
backend is a runtime knob (``EngineOptions.backend`` + ``n_workers``),
not a property of the algorithm — the GraphBLAS framing of the kernel /
executor choice as a backend concern the API hides.

============= ===========================================================
backend       schedule
============= ===========================================================
serial        all blocks in the calling thread (reference)
threaded      thread pool; NumPy and C kernels release the GIL and overlap
============= ===========================================================

Both backends run the identical per-block kernels, so algorithm
outputs are bitwise identical across them.  See ``docs/EXECUTION.md``
for when ``threaded`` wins and ``docs/KERNELS.md`` for the kernel
taxonomy.
"""

from __future__ import annotations

from repro.core.options import KNOWN_BACKENDS
from repro.errors import ProgramError
from repro.exec.base import Executor, SerialExecutor, finish_view
from repro.exec.threaded import ThreadedExecutor
from repro.exec.workspace import (
    BatchBlockScratch,
    BlockScratch,
    SuperstepWorkspace,
)

#: Backend name -> executor class.  Must stay in sync with
#: ``repro.core.options.KNOWN_BACKENDS`` (options validates names early,
#: at construction time, without importing this package).
BACKENDS: dict[str, type[Executor]] = {
    SerialExecutor.name: SerialExecutor,
    ThreadedExecutor.name: ThreadedExecutor,
}

assert set(BACKENDS) == set(KNOWN_BACKENDS), (
    "repro.exec.BACKENDS and repro.core.options.KNOWN_BACKENDS diverged: "
    f"{sorted(BACKENDS)} != {sorted(KNOWN_BACKENDS)}"
)


def available_backends() -> tuple[str, ...]:
    """Names accepted by ``EngineOptions.backend``."""
    return tuple(BACKENDS)


def create_executor(options) -> Executor:
    """Build the executor configured by ``options``."""
    cls = BACKENDS.get(options.backend)
    if cls is None:
        raise ProgramError(
            f"unknown execution backend {options.backend!r}; "
            f"available: {', '.join(BACKENDS)}"
        )
    return cls(options.n_workers)


__all__ = [
    "BACKENDS",
    "BatchBlockScratch",
    "BlockScratch",
    "Executor",
    "SerialExecutor",
    "SuperstepWorkspace",
    "ThreadedExecutor",
    "available_backends",
    "create_executor",
    "finish_view",
]
