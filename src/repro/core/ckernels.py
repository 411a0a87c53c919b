"""Compiled min-family lane kernels: build, cache and load ``_ckernels.c``.

``_ckernels.c`` holds one destination-grouped pull sweep per lane
kernel a program may declare (``GraphProgram.lane_kernel``):

- ``min-plus``   — message + edge value (SSSP),
- ``min-plus-c`` — message + a constant (BFS, label propagation),
- ``min-first``  — the message unchanged (connected components).

:func:`repro.core.spmv._tiled_process_reduce` calls :func:`lane_sweep`
first; a ``None`` answer sends it down the NumPy fold, which stays the
fallback and the oracle.  ``min`` is exactly associative, so both give
the same bits (docs/KERNELS.md, "Compiled kernel shapes").

The library is compiled on first use with ``gcc`` and :data:`CFLAGS` —
``-ffp-contract=off`` and never ``-ffast-math`` or ``-march=native``,
so the C ``+`` is the IEEE add NumPy performs — into the package's
``__pycache__``, under a name keyed by the source, the flags, the
compiler version and the machine.  The build writes a temporary name
and ``os.replace``\\ s it, so processes racing through their first use
each load a complete library.  When ``__pycache__`` is not writable
each process builds its own copy in a fresh private directory under
``tempfile.gettempdir()`` and deletes it once loaded: a library found in
a shared temporary directory is never loaded, because anyone could have
put it there.  Without a compiler, when the build fails, or with
``REPRO_CKERNELS=0`` in the environment the NumPy fold runs and one
line says why.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.core.kernels import MIN_FIRST_KERNEL, MIN_PLUS_C_KERNEL, MIN_PLUS_KERNEL

#: Set to ``0`` to run the NumPy fold instead of the compiled kernels.
ENV_SWITCH = "REPRO_CKERNELS"
_DISABLED = f"{ENV_SWITCH}=0"
SOURCE = Path(__file__).with_name("_ckernels.c")
COMPILER = "gcc"
#: FMA contraction or fast-math would let the compiler move ``+`` bits.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

logger = logging.getLogger(__name__)

_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p
#: Kernel name -> (C symbol, argument types after the common head
#: ``k, n_groups, n, group_starts, edges, cols``).
_SIGNATURES = {
    MIN_PLUS_KERNEL: ("min_plus", (_ptr, _ptr, _ptr)),
    MIN_PLUS_C_KERNEL: ("min_plus_c", (ctypes.c_double, _ptr, _ptr)),
    MIN_FIRST_KERNEL: ("min_first", (_ptr, _ptr)),
}

_lock = threading.Lock()
_resolved = False
_functions: dict | None = None
_reason: str | None = None
_path: Path | None = None


def cache_dir() -> Path:
    """Where the compiled library is cached (inside the package)."""
    return SOURCE.parent / "__pycache__"


def _library_name(compiler: str) -> str:
    version = subprocess.run(
        [compiler, "-dumpfullversion"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    key = hashlib.sha256()
    for part in (SOURCE.read_bytes(), " ".join(CFLAGS).encode(),
                 version.encode(), platform.machine().encode()):
        key.update(part)
        key.update(b"\0")
    return f"_ckernels.{key.hexdigest()[:16]}.so"


def _build(compiler: str, target: Path) -> None:
    """Compile ``SOURCE`` to ``target`` through a temporary name.

    ``gcc``'s own scratch files go to ``target``'s directory too.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *CFLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "TMPDIR": str(target.parent)},
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(compiler: str, name: str) -> tuple[ctypes.CDLL, Path]:
    """Load the cached library, building it on a miss; ``__pycache__`` first."""
    target = cache_dir() / name
    if not target.exists():
        try:
            _build(compiler, target)
        except OSError as exc:
            logger.info(
                "C kernels: %s is not writable (%s); building a private copy",
                target.parent, exc.strerror or exc,
            )
            return _open_private(compiler, name)
    return ctypes.CDLL(str(target)), target


def _open_private(compiler: str, name: str) -> tuple[ctypes.CDLL, Path]:
    """Build into a fresh 0700 directory, load, then delete it."""
    private = Path(tempfile.mkdtemp(prefix="repro-ckernels-",
                                    dir=tempfile.gettempdir()))
    try:
        target = private / name
        _build(compiler, target)
        return ctypes.CDLL(str(target)), target
    finally:
        shutil.rmtree(private, ignore_errors=True)


def _load() -> tuple[dict | None, str | None, Path | None]:
    """``(functions, None, path)`` or ``(None, reason, None)``."""
    if os.environ.get(ENV_SWITCH) == "0":
        return None, _DISABLED, None
    compiler = shutil.which(COMPILER)
    if compiler is None:
        return None, f"no {COMPILER} on PATH", None
    try:
        library, path = _open(compiler, _library_name(compiler))
    except subprocess.CalledProcessError as exc:
        detail = (exc.stderr or "").strip().splitlines()
        return None, f"{COMPILER} failed: {detail[0] if detail else exc}", None
    except OSError as exc:
        return None, f"cannot build or load the library: {exc}", None
    functions = {}
    for name, (symbol, argtypes) in _SIGNATURES.items():
        function = getattr(library, symbol)
        function.argtypes = (_i64, _i64, _i64, _ptr, _i64, _ptr, *argtypes)
        function.restype = None
        functions[name] = function
    return functions, None, path


def _ensure() -> dict | None:
    global _resolved, _functions, _reason, _path
    if not _resolved:
        with _lock:
            if not _resolved:
                _functions, _reason, _path = _load()
                if _reason is not None:
                    # The switch is a choice; a failed build is a warning.
                    logger.log(
                        logging.INFO if _reason == _DISABLED else logging.WARNING,
                        "C kernels unavailable (%s); using the NumPy fold",
                        _reason,
                    )
                _resolved = True
    return _functions


def _after_fork_in_child() -> None:
    # A fork taken while another thread builds would copy ``_lock`` held
    # and ``_resolved`` still False: the child's first sweep would block
    # for ever.  It gets a fresh lock and resolves on its own.
    global _lock
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_after_fork_in_child)


def status() -> dict:
    """Whether the compiled kernels run in this process, and if not why."""
    _ensure()
    return {
        "loaded": _functions is not None,
        "reason": _reason,
        "path": str(_path) if _path is not None else None,
    }


def _usable(array: np.ndarray, dtype) -> bool:
    return array.dtype == dtype and array.flags.c_contiguous


def lane_sweep(
    lane_kernel,
    x_values: np.ndarray,
    sorted_cols: np.ndarray,
    sorted_vals: np.ndarray,
    group_starts: np.ndarray,
    edges: int,
) -> np.ndarray | None:
    """Process and min-reduce every destination group in compiled code.

    Arguments are those of :func:`repro.core.spmv._tiled_process_reduce`
    (``sorted_cols``/``sorted_vals`` may be longer than ``edges``).
    Returns the ``(K, n_groups)`` float64 result, or ``None`` when the
    library is not loaded, has no such kernel, or the arrays are not
    float64 values with int64 indices — the caller then runs the NumPy
    fold.
    """
    functions = _ensure()
    function = functions.get(lane_kernel.name) if functions else None
    if function is None or not (
        _usable(x_values, np.float64)
        and x_values.ndim == 2
        and _usable(sorted_cols, np.int64)
        and _usable(group_starts, np.int64)
        and (
            lane_kernel.name != MIN_PLUS_KERNEL
            or _usable(sorted_vals, np.float64)
        )
    ):
        return None
    n_lanes, n = x_values.shape
    n_groups = int(group_starts.shape[0])
    out = np.empty((n_lanes, n_groups), dtype=np.float64)
    head = (n_lanes, n_groups, n, group_starts.ctypes.data, edges,
            sorted_cols.ctypes.data)
    tail = (x_values.ctypes.data, out.ctypes.data)
    if lane_kernel.name == MIN_PLUS_KERNEL:
        function(*head, sorted_vals.ctypes.data, *tail)
    elif lane_kernel.name == MIN_PLUS_C_KERNEL:
        function(*head, lane_kernel.constant, *tail)
    else:
        function(*head, *tail)
    return out
