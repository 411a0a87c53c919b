"""Compiled-kernel tier: Numba-JIT lane kernels behind the Executor API.

The NumPy lane kernel in :mod:`repro.core.spmv` pays fixed per-call
costs (gather materialization, sort/reduceat passes, temporaries) on
every block of every superstep; GraphMat's native engine pays none of
them — its user functions inline into one loop nest over the DCSC
arrays.  This module is that loop nest, compiled with Numba:

- :class:`JitExecutor` (``backend="jit"``) runs one compiled per-edge
  kernel per block, in the calling thread,
- :class:`JitThreadedExecutor` (``backend="jit-threaded"``) runs one
  *packed* kernel per view with ``numba.prange`` over the blocks — the
  disjoint row ranges that make the NumPy executors lock-free make the
  parallel loop race-free here.

Which programs compile: a lane-capable program
(``GraphProgram.supports_batched``) naming a ``jit_semiring`` from
:data:`repro.core.kernels.JIT_SEMIRINGS` (min-plus, plus-times, or-and,
min-first, plus-first, min-plus-c) with scalar float64 message/result
specs.  The compiled kernels are K-lane kernels — a single query is the
one-lane case — so there is no compiled form of the generic
``run_block``: for every other program ``supports()`` is False and the
engine swaps in :meth:`~Executor.fallback` with one logged message.
Within a planned run, blocks with non-float64/int64 edge values
dispatch to the NumPy lane kernel *per block*, so a single run can mix
tiers; the ``kernel_counts`` breakdown records which tier ran each
block (``jit-sparse-gather`` vs ``sparse-gather`` etc., see
docs/KERNELS.md).

When Numba itself is absent ``supports()`` is False for every program —
the repo stays fully functional NumPy-only.  Setting
``REPRO_JIT_INTERPRET=1`` (or monkeypatching :data:`FORCE_INTERPRETED`)
runs the *same* kernel functions as pure Python instead: orders of
magnitude slower, but it exercises the full jit dispatch/merge machinery
without Numba, which is how the parity tests run on NumPy-only
installs.

Bitwise parity: the kernels replay the NumPy lane kernel's accumulation
order exactly.  Min-family ops fold per destination in ascending-column
order (adopt-first; min and or are exactly associative, so streaming is
safe).  Order-sensitive additive ops (``+``-reduce) instead replay
``reduceat``'s pairwise association over the cached destination
grouping (:func:`_pairwise_sum`), filtering union-inactive columns out
of the same order for sparse shapes.  Silent lanes hold the identity by
the ``MultiFrontier`` fill invariant, rows surface by received-mask
(never by value, unless the program certifies it), and block results
merge through the same ``apply_block_result``.  The parity suite asserts
bitwise equality for every algorithm against the serial NumPy schedule.
"""

from __future__ import annotations

import logging
import os
import time
from typing import NamedTuple

import numpy as np

from repro.core.kernels import (
    DEFAULT_THRESHOLDS,
    JIT_KERNEL_FOR,
    JIT_OP_PLUS_FIRST,
    JIT_OP_PLUS_TIMES,
    JIT_SEMIRINGS,
    KERNEL_DENSE,
    KERNEL_SPARSE,
    frontier_edge_count,
    select_kernel,
)
from repro.core.spmv import BlockResult, sweep_view, union_active_columns
from repro.exec.base import Executor, SerialExecutor, finish_view
from repro.exec.threaded import ThreadedExecutor

logger = logging.getLogger("repro.exec.jit")

try:  # pragma: no cover - exercised only where numba is installed
    import numba
    from numba import njit, prange
    from numba.typed import List as TypedList

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the NumPy-only environment
    numba = None
    TypedList = list
    NUMBA_AVAILABLE = False
    prange = range

    def njit(*args, **kwargs):  # noqa: D103 - identity decorator stand-in
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


#: Edge-value dtypes the compiled kernels accept.  Numba specializes a
#: kernel per dtype and the int64 -> float64 promotion inside matches
#: NumPy's, so unweighted (int64) and weighted (float64) graphs both
#: compile; anything else (float32, bool, object payloads) dispatches to
#: the NumPy kernel per block.
_JIT_NUM_DTYPES = (np.dtype(np.float64), np.dtype(np.int64))

#: Run the kernel functions as plain Python even when Numba is present
#: (and treat the tier as available when it is not).  Env:
#: ``REPRO_JIT_INTERPRET=1``.  This is a test/debug mode — the point is
#: that the pure-Python and compiled forms are the *same functions*, so
#: NumPy-only CI still covers the jit dispatch, merge and fallback
#: logic end to end.
FORCE_INTERPRETED = os.environ.get("REPRO_JIT_INTERPRET", "") not in ("", "0")


def jit_tier_available() -> bool:
    """True when the compiled tier can run (numba, or interpreted mode)."""
    return NUMBA_AVAILABLE or FORCE_INTERPRETED


# ----------------------------------------------------------------------
# Kernel bodies.  Written once, in nopython-compatible Python; compiled
# forms are created below when numba is importable.  The op/const pair
# comes from repro.core.kernels.JIT_SEMIRINGS; the if/elif dispatch
# compiles to a branch on a constant-foldable integer and keeps the
# kernels cacheable (closure-captured ops would defeat cache=True).
# ----------------------------------------------------------------------
#: NumPy's pairwise-summation block size (npy_pairwise_sum in the ufunc
#: inner loops).  The additive grouped kernels below replicate that
#: routine bit for bit — see :func:`_pairwise_sum`.
PW_BLOCKSIZE = 128


def _pairwise_sum(a, off, n):
    """Bit-exact replica of NumPy's pairwise summation over ``a[off:off+n]``.

    ``np.add.reduceat`` folds each destination group as ``first_element +
    pairwise_sum(rest)`` using this exact recursion (zero-initialized
    sequential tail under 8 elements, an 8-accumulator unrolled block up
    to 128, halved splits rounded to multiples of 8 above).  Additive
    reductions are order-sensitive in float64, so the compiled tier
    replays the association instead of streaming a sequential fold —
    that is what keeps ``backend="jit"`` bitwise identical to the NumPy
    kernels for PageRank-style sums.  Fuzz-verified against
    ``np.add.reduceat`` across group lengths in the jit test suite.
    """
    if n < 8:
        res = 0.0
        for i in range(n):
            res = res + a[off + i]
        return res
    elif n <= PW_BLOCKSIZE:
        r0 = a[off]
        r1 = a[off + 1]
        r2 = a[off + 2]
        r3 = a[off + 3]
        r4 = a[off + 4]
        r5 = a[off + 5]
        r6 = a[off + 6]
        r7 = a[off + 7]
        i = 8
        while i < n - (n % 8):
            r0 = r0 + a[off + i]
            r1 = r1 + a[off + i + 1]
            r2 = r2 + a[off + i + 2]
            r3 = r3 + a[off + i + 3]
            r4 = r4 + a[off + i + 4]
            r5 = r5 + a[off + i + 5]
            r6 = r6 + a[off + i + 6]
            r7 = r7 + a[off + i + 7]
            i += 8
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        while i < n:
            res = res + a[off + i]
            i += 1
        return res
    else:
        n2 = n // 2
        n2 -= n2 % 8
        return _pairwise_sum(a, off, n2) + _pairwise_sum(a, off + n2, n - n2)


def _spmm_add_grouped(
    op, const, sorted_cols, sorted_vals, group_starts, n_edges,
    unique_rows, x_valid, x_values, identity, filter_inactive, mode,
    compact, buf, recv_buf, out_dst, out_val, out_recv,
):
    """Additive K-lane SpMM over destination-grouped edges.

    One kernel for both SpMM shapes: ``filter_inactive`` skips edges
    whose column is active in *no* lane (the sparse union-gather), while
    the dense shape folds every edge (lane values at invalid slots hold
    the masking identity per the MultiFrontier fill invariant).  Each
    (group, lane) folds as ``first + pairwise_sum(rest)`` to match
    ``np.add.reduceat(..., axis=1)``.  ``buf`` is ``(K, max_group)``
    scratch, ``recv_buf`` a ``(K,)`` bool scratch for mode 2.
    """
    n_lanes = x_values.shape[0]
    n_groups = group_starts.shape[0]
    m = 0
    edges = 0
    for g in range(n_groups):
        lo = group_starts[g]
        hi = group_starts[g + 1] if g + 1 < n_groups else n_edges
        length = 0
        for lane in range(n_lanes):
            recv_buf[lane] = False
        for i in range(lo, hi):
            col = sorted_cols[i]
            take = True
            if filter_inactive:
                take = False
                for lane in range(n_lanes):
                    if x_valid[lane, col]:
                        take = True
                        break
            if take:
                e = sorted_vals[i]
                for lane in range(n_lanes):
                    xj = x_values[lane, col]
                    if op == 0:
                        r = xj * e
                    else:
                        r = xj
                    buf[lane, length] = r
                    if mode == 2 and x_valid[lane, col]:
                        recv_buf[lane] = True
                length += 1
        if length > 0:
            edges += length
            any_recv = False
            for lane in range(n_lanes):
                if length == 1:
                    s = buf[lane, 0]
                else:
                    s = buf[lane, 0] + _pairwise_sum(buf[lane], 1, length - 1)
                out_val[m, lane] = s
                if mode == 1:
                    got = s != identity
                    out_recv[m, lane] = got
                    if got:
                        any_recv = True
                elif mode == 2:
                    got = recv_buf[lane]
                    out_recv[m, lane] = got
                    if got:
                        any_recv = True
            if mode == 0:
                keep = True
            else:
                keep = any_recv or not compact
            if keep:
                out_dst[m] = unique_rows[g]
                m += 1
    return m, edges


def _spmm_block_py(
    op, const, jc, cp, ir, num, active_pos, x_valid, x_values, identity,
    mode, compact, row_lo, acc, touched, received, out_dst, out_val,
    out_recv,
):
    """K-lane SpMM block kernel (sparse and dense share the loop).

    The caller passes the union-active column positions for the sparse
    shape or *every* position for the dense shape — per the identity-fill
    invariant the lane values at invalid slots already hold the masking
    identity, so lanes never need masking here.  ``mode`` selects the
    received-mask regime of the NumPy kernel being mirrored: 0 = all
    listed rows received in every lane (uniform sends), 1 = derive by
    value (``!= identity``), 2 = track the sent mask per lane.
    """
    n_lanes = x_values.shape[0]
    edges = 0
    for i in range(active_pos.shape[0]):
        p = active_pos[i]
        col = jc[p]
        lo = cp[p]
        hi = cp[p + 1]
        edges += hi - lo
        for t in range(lo, hi):
            k = ir[t] - row_lo
            e = num[t]
            if touched[k]:
                for lane in range(n_lanes):
                    xj = x_values[lane, col]
                    if op == 0:
                        r = xj * e
                    elif op == 1:
                        r = xj + e
                    elif op == 2 or op == 3:
                        r = xj
                    elif op == 4:
                        r = 1.0 if (xj != 0.0 and e != 0.0) else 0.0
                    else:
                        r = xj + const
                    if op == 0 or op == 3:
                        acc[k, lane] = acc[k, lane] + r
                    elif op == 4:
                        acc[k, lane] = (
                            1.0 if (acc[k, lane] != 0.0 or r != 0.0) else 0.0
                        )
                    else:
                        if r < acc[k, lane]:
                            acc[k, lane] = r
            else:
                for lane in range(n_lanes):
                    xj = x_values[lane, col]
                    if op == 0:
                        r = xj * e
                    elif op == 1:
                        r = xj + e
                    elif op == 2 or op == 3:
                        r = xj
                    elif op == 4:
                        r = 1.0 if (xj != 0.0 and e != 0.0) else 0.0
                    else:
                        r = xj + const
                    acc[k, lane] = r
                touched[k] = True
        if mode == 2:
            for t in range(lo, hi):
                k = ir[t] - row_lo
                for lane in range(n_lanes):
                    if x_valid[lane, col]:
                        received[k, lane] = True
    m = 0
    for k in range(touched.shape[0]):
        if touched[k]:
            touched[k] = False
            keep = True
            if mode == 1:
                any_received = False
                for lane in range(n_lanes):
                    got = acc[k, lane] != identity
                    out_recv[m, lane] = got
                    if got:
                        any_received = True
                keep = any_received or not compact
            elif mode == 2:
                any_received = False
                for lane in range(n_lanes):
                    got = received[k, lane]
                    out_recv[m, lane] = got
                    received[k, lane] = False
                    if got:
                        any_received = True
                keep = any_received or not compact
            if keep:
                out_dst[m] = k + row_lo
                for lane in range(n_lanes):
                    out_val[m, lane] = acc[k, lane]
                m += 1
    return m, edges


def _spmm_packed_py(
    op, const, jcs, cps, irs, nums, poss, codes, modes, compacts,
    row_los, row_his, x_valid, x_values, identity, acc, touched,
    received, out_dst, out_val, out_recv, out_m, out_edges,
):
    """All of a view's SpMM blocks in one parallel loop (``prange``).

    ``codes[b]``: 0 = skip (empty/inactive or handled by the Python
    caller), 1 = sparse-gather, 2 = dense-pull (``poss[b]`` then lists
    every column position).  The full-width ``(n, K)``
    ``acc``/``received``/``out_*`` buffers and ``touched`` are shared;
    blocks only touch their disjoint ``[row_los[b], row_his[b])`` row
    ranges, so iterations never race.  Compacted results for block ``b``
    land at ``out_dst[row_los[b]:row_los[b]+out_m[b]]``.
    ``modes[b]``/``compacts[b]`` carry the per-block received regime of
    :func:`_spmm_block_py`.
    """
    n_lanes = x_values.shape[0]
    n_blocks = codes.shape[0]
    for b in prange(n_blocks):
        out_m[b] = 0
        out_edges[b] = 0
        if codes[b] != 0:
            jc = jcs[b]
            cp = cps[b]
            ir = irs[b]
            num = nums[b]
            pos = poss[b]
            mode = modes[b]
            compact = compacts[b]
            lo_row = row_los[b]
            hi_row = row_his[b]
            edges = 0
            for i in range(pos.shape[0]):
                p = pos[i]
                col = jc[p]
                lo = cp[p]
                hi = cp[p + 1]
                edges += hi - lo
                for t in range(lo, hi):
                    k = ir[t]
                    e = num[t]
                    if touched[k]:
                        for lane in range(n_lanes):
                            xj = x_values[lane, col]
                            if op == 0:
                                r = xj * e
                            elif op == 1:
                                r = xj + e
                            elif op == 2 or op == 3:
                                r = xj
                            elif op == 4:
                                r = 1.0 if (xj != 0.0 and e != 0.0) else 0.0
                            else:
                                r = xj + const
                            if op == 0 or op == 3:
                                acc[k, lane] = acc[k, lane] + r
                            elif op == 4:
                                acc[k, lane] = (
                                    1.0
                                    if (acc[k, lane] != 0.0 or r != 0.0)
                                    else 0.0
                                )
                            else:
                                if r < acc[k, lane]:
                                    acc[k, lane] = r
                    else:
                        for lane in range(n_lanes):
                            xj = x_values[lane, col]
                            if op == 0:
                                r = xj * e
                            elif op == 1:
                                r = xj + e
                            elif op == 2 or op == 3:
                                r = xj
                            elif op == 4:
                                r = 1.0 if (xj != 0.0 and e != 0.0) else 0.0
                            else:
                                r = xj + const
                            acc[k, lane] = r
                        touched[k] = True
                if mode == 2:
                    for t in range(lo, hi):
                        k = ir[t]
                        for lane in range(n_lanes):
                            if x_valid[lane, col]:
                                received[k, lane] = True
            m = 0
            for k in range(lo_row, hi_row):
                if touched[k]:
                    touched[k] = False
                    keep = True
                    if mode == 1:
                        any_received = False
                        for lane in range(n_lanes):
                            got = acc[k, lane] != identity
                            out_recv[lo_row + m, lane] = got
                            if got:
                                any_received = True
                        keep = any_received or not compact
                    elif mode == 2:
                        any_received = False
                        for lane in range(n_lanes):
                            got = received[k, lane]
                            out_recv[lo_row + m, lane] = got
                            received[k, lane] = False
                            if got:
                                any_received = True
                        keep = any_received or not compact
                    if keep:
                        out_dst[lo_row + m] = k
                        for lane in range(n_lanes):
                            out_val[lo_row + m, lane] = acc[k, lane]
                        m += 1
            out_m[b] = m
            out_edges[b] = edges
    return 0


def _max_group_len(group_starts, n_edges):
    """Largest destination-group length (scratch sizing for the grouped
    additive kernels)."""
    n_groups = int(group_starts.shape[0])
    if n_groups == 0:
        return 1
    if n_groups == 1:
        return max(int(n_edges), 1)
    inner = int(np.diff(group_starts).max())
    return max(inner, int(n_edges) - int(group_starts[-1]), 1)


def _spmm_add_packed_py(
    op, const, colss, valss, gstartss, urowss, n_edges, gcodes, filters,
    modes, compacts, row_los, x_valid, x_values, identity, bufs,
    recv_scratch, out_dst, out_val, out_recv, out_m, out_edges,
):
    """All of a view's grouped additive SpMM blocks in one ``prange``.

    ``recv_scratch`` is the shared ``(n, K)`` bool buffer; block ``b``
    borrows its first owned row as the per-group lane scratch.
    """
    n_blocks = gcodes.shape[0]
    for b in prange(n_blocks):
        if gcodes[b] != 0:
            lo = row_los[b]
            m, edges = _spmm_add_grouped(
                op, const, colss[b], valss[b], gstartss[b], n_edges[b],
                urowss[b], x_valid, x_values, identity, filters[b],
                modes[b], compacts[b], bufs[b], recv_scratch[lo],
                out_dst[lo:], out_val[lo:], out_recv[lo:],
            )
            out_m[b] = m
            out_edges[b] = edges
    return 0


if NUMBA_AVAILABLE:  # pragma: no cover - requires numba
    _spmm_block_nb = njit(cache=True, nogil=True)(_spmm_block_py)
    # The grouped additive kernel is called both directly (per-block)
    # and from inside the packed prange wrapper, so the module globals
    # are rebound to their compiled dispatchers *before* the dependent
    # compiles (nopython code can only call other njit functions).
    # _pairwise_sum's self-recursion is fine: the base branch is
    # non-recursive, so type inference converges.
    _pairwise_sum = njit(cache=True, nogil=True)(_pairwise_sum)
    _spmm_add_grouped = njit(cache=True, nogil=True)(_spmm_add_grouped)
    # The packed kernels take typed lists of per-block arrays; list
    # arguments defeat the on-disk cache, so these recompile per
    # process (the CI lane caches NUMBA_CACHE_DIR for the rest).
    _spmm_packed_nb = njit(parallel=True, nogil=True)(_spmm_packed_py)
    _spmm_add_packed_nb = njit(parallel=True, nogil=True)(_spmm_add_packed_py)
else:
    _spmm_block_nb = _spmm_block_py
    _spmm_packed_nb = _spmm_packed_py
    _spmm_add_packed_nb = _spmm_add_packed_py


def _kernels():
    """The (block, packed, packed-additive) entry points for the current mode.

    Consulted at call time (not import time) so tests can flip
    :data:`FORCE_INTERPRETED` with a monkeypatch.  (When numba is
    installed the interpreted packed wrapper still reaches the compiled
    grouped helper — the module globals are rebound at import; results
    are identical either way.)
    """
    if FORCE_INTERPRETED or not NUMBA_AVAILABLE:
        return _spmm_block_py, _spmm_packed_py, _spmm_add_packed_py
    return _spmm_block_nb, _spmm_packed_nb, _spmm_add_packed_nb


def _block_list(arrays):
    """A per-block array list in the form the packed kernels accept."""
    if NUMBA_AVAILABLE and not FORCE_INTERPRETED:
        lst = TypedList()
        for a in arrays:
            lst.append(a)
        return lst
    return list(arrays)


class _JitPlan(NamedTuple):
    """Per-program compiled-dispatch decision (op code + constants)."""

    op: int
    const: float
    identity: float


def _plan_for(program) -> _JitPlan | None:
    """Compiled plan for ``program``, or None to use the NumPy tier."""
    name = getattr(program, "jit_semiring", None)
    if name is None:
        return None
    jit_op = JIT_SEMIRINGS.get(name)
    if jit_op is None:
        return None
    for spec in (program.message_spec, program.result_spec):
        if not spec.is_scalar or spec.dtype != np.float64:
            return None
    if program.batch_needs_dst_props:
        # The jit ops ignore dst_props by construction; a program that
        # reads them in its lanes hook cannot be compiled.
        return None
    if not program.supports_batched():
        # The compiled kernels are lane kernels: no declared identity,
        # no plan (the engine sweeps such programs with run_block).
        return None
    return _JitPlan(
        jit_op.code,
        float(getattr(program, "jit_const", 0.0)),
        float(program.batch_reduce_identity()),
    )


def _empty_block_result(partition, t0=None):
    seconds = 0.0 if t0 is None else time.perf_counter() - t0
    return BlockResult(partition, None, None, 0, 0, "", seconds)


def _received_mode(program, uniform_send, dense, full_coverage):
    """Received-mask regime of the NumPy lane kernel being mirrored.

    0 = every listed row received in every lane (uniform sends), 1 =
    derive by value (``!= identity``), 2 = track the sent mask per lane.
    """
    if uniform_send and (not dense or full_coverage):
        return 0
    if program.batch_received_by_value:
        return 1
    return 2


def _lane_events(edges, m, n_lanes, n_active):
    return dict(
        user_calls=1,
        element_ops=edges * n_lanes,
        random_accesses=edges + m * n_lanes,
        sequential_bytes=edges * 8 * (1 + n_lanes),
        messages=n_active,
        allocations=0,
    )


class JitExecutor(Executor):
    """Run each block's lane kernel compiled, in the calling thread.

    Kernel *selection* is shared with the NumPy tier
    (:func:`repro.core.kernels.select_kernel`); this executor only swaps
    the implementation of the chosen shape.  It takes planned programs
    only (:func:`_plan_for`: a compiled ``jit_semiring`` on a
    lane-capable float64 program); the engine hands everything else to
    :meth:`fallback`.  Blocks whose edge values the compiled kernels are
    not typed for run the NumPy kernel the engine passed in, inside the
    same view sweep.  Per-view output buffers persist across supersteps,
    so the steady state allocates nothing.
    """

    name = "jit"

    def __init__(self, n_workers: int = 1) -> None:
        self.n_workers = int(n_workers)
        self._bufs: dict = {}
        self._group_bufs: dict = {}
        self._broken = False
        self._plan: _JitPlan | None = None

    # -- availability / fallback ---------------------------------------
    def supports(self, program) -> bool:
        """False (→ engine swaps in :meth:`fallback`) without a jit tier
        or without a compiled plan for ``program``."""
        if not jit_tier_available():
            logger.warning(
                "numba is not installed; backend %r falling back to %r "
                "(NumPy kernels, identical results)",
                self.name,
                self.fallback().name,
            )
            return False
        if _plan_for(program) is None:
            logger.info(
                "%s has no compiled (process, reduce) pair "
                "(jit_semiring=%r); backend %r falling back to %r",
                type(program).__name__,
                getattr(program, "jit_semiring", None),
                self.name,
                self.fallback().name,
            )
            return False
        return True

    def fallback(self) -> Executor:
        """Serial NumPy schedule (same kernels the per-block fallback uses)."""
        return SerialExecutor(self.n_workers)

    def prepare(self, views, program) -> None:
        self._plan = _plan_for(program)

    def _disable(self, exc) -> None:
        """Drop to the NumPy tier for the rest of this executor's life."""
        self._broken = True
        logger.warning(
            "compiled kernel failed (%s: %s); backend %r continuing on "
            "the NumPy kernels",
            type(exc).__name__,
            exc,
            self.name,
        )

    # -- buffers -------------------------------------------------------
    def _buffers(self, view_index, partition, width, n_lanes):
        key = (view_index, partition)
        bufs = self._bufs.get(key)
        if bufs is None or bufs[0].shape != (width, n_lanes):
            bufs = (
                np.zeros((width, n_lanes), dtype=np.float64),  # acc
                np.zeros(width, dtype=bool),                   # touched
                np.zeros((width, n_lanes), dtype=bool),        # received
                np.empty(width, dtype=np.int64),               # out_dst
                np.empty((width, n_lanes), dtype=np.float64),  # out_val
                np.empty((width, n_lanes), dtype=bool),        # out_recv
            )
            self._bufs[key] = bufs
        return bufs

    def _group_buf(self, view_index, partition, max_len, n_lanes):
        """Per-block ``(n_lanes, max_len)`` group-fold scratch for the
        additive kernels.  Grown (never shrunk) on reuse."""
        key = (view_index, partition)
        buf = self._group_bufs.get(key)
        if buf is None or buf.shape[1] < max_len or buf.shape[0] != n_lanes:
            buf = np.empty((n_lanes, max_len), dtype=np.float64)
            self._group_bufs[key] = buf
        return buf

    # -- sweep ---------------------------------------------------------
    def sweep(
        self,
        kernel,
        view_index,
        view,
        x,
        y,
        program,
        properties,
        counters=None,
        partition_work=None,
        kernel_counts=None,
        scratch=None,
        thresholds=DEFAULT_THRESHOLDS,
    ) -> int:
        """One K-lane sweep; per block, compiled kernel or ``kernel``."""
        x_valid = x.valid_mask()
        x_values = x.values
        results = []
        if not self._broken:
            for p, block in enumerate(view):
                results.append(
                    self._run_block(
                        kernel, view_index, p, block, x_valid, x_values,
                        program, properties, scratch, thresholds,
                    )
                )
                if self._broken:
                    break
        if self._broken:
            # A compiled call failed (now or earlier); run this view on
            # the NumPy tier from scratch (y is still untouched —
            # merging happens below, after every block succeeded).
            return sweep_view(
                kernel, view, x, y, program, properties,
                counters, partition_work,
                scratch=scratch, kernel_counts=kernel_counts,
                thresholds=thresholds,
            )
        return finish_view(
            results, y, program, counters, partition_work, kernel_counts
        )

    def _run_block(
        self, kernel, view_index, partition, block, x_valid, x_values,
        program, properties, scratch, thresholds,
    ) -> BlockResult:
        t0 = time.perf_counter()
        plan = self._plan
        if block.nzc == 0:
            return _empty_block_result(partition, t0)
        active_pos, uniform_send = union_active_columns(block, x_valid)
        n_active = int(active_pos.size)
        if n_active == 0:
            return _empty_block_result(partition, t0)
        if block.num.dtype not in _JIT_NUM_DTYPES:
            # Edge values the compiled kernels are not typed for: NumPy
            # tier, same selection, honest kernel_counts attribution.
            return kernel(
                partition, block, x_valid, x_values, program, properties,
                scratch.get(partition) if scratch is not None else None,
                thresholds,
            )
        shape = select_kernel(
            block, frontier_edge_count(block, active_pos), program,
            program.message_spec, program.result_spec, thresholds,
        )
        dense = shape == KERNEL_DENSE
        full_coverage = n_active == block.nzc
        mode = _received_mode(program, uniform_send, dense, full_coverage)
        compact = dense and not full_coverage and mode != 0
        row_lo, row_hi = block.row_range
        n_lanes = int(x_valid.shape[0])
        acc, touched, received, out_dst, out_val, out_recv = self._buffers(
            view_index, partition, row_hi - row_lo, n_lanes
        )
        try:
            if plan.op == JIT_OP_PLUS_TIMES or plan.op == JIT_OP_PLUS_FIRST:
                # The NumPy lane kernel always reduces via sort+reduceat
                # (dense: every stored edge, lanes masked by the
                # identity-fill invariant; sparse: the union-active
                # subsequence of the same dst-sorted order) — replay it.
                _, gstarts, urows = block.dst_groups()
                buf = self._group_buf(
                    view_index, partition,
                    _max_group_len(gstarts, block.nnz), n_lanes,
                )
                m, edges = _spmm_add_grouped(
                    plan.op, plan.const, block.dst_sorted_cols(),
                    block.dst_sorted_vals(), gstarts, block.nnz, urows,
                    x_valid, x_values, plan.identity,
                    0 if dense else 1, mode, compact, buf, received[0],
                    out_dst, out_val, out_recv,
                )
            else:
                pos = (
                    np.arange(block.nzc, dtype=np.int64) if dense else active_pos
                )
                m, edges = _kernels()[0](
                    plan.op, plan.const, block.jc, block.cp, block.ir,
                    block.num, pos, x_valid, x_values, plan.identity,
                    mode, compact, row_lo, acc, touched, received,
                    out_dst, out_val, out_recv,
                )
        except Exception as exc:  # pragma: no cover - compile-time issues
            self._disable(exc)
            return _empty_block_result(partition, t0)
        return BlockResult(
            partition,
            out_dst[:m],
            out_val[:m].T,
            int(edges),
            n_active,
            # The scalar shape never applies across lanes (see
            # run_block_batch); tiny frontiers run sparse-gather.
            JIT_KERNEL_FOR[KERNEL_DENSE if dense else KERNEL_SPARSE],
            time.perf_counter() - t0,
            events=_lane_events(int(edges), m, n_lanes, n_active),
            received=None if mode == 0 else out_recv[:m].T,
        )

    def close(self) -> None:
        """Release the cached per-view output buffers."""
        self._bufs.clear()
        self._group_bufs.clear()


class JitThreadedExecutor(JitExecutor):
    """Compiled view sweeps parallelized with ``numba.prange``.

    One *packed* kernel call runs every block of the view, with the
    parallel loop ranging over blocks — GraphMat's "partitions onto
    threads" schedule compiled.  Blocks the compiled tier cannot take
    run the NumPy kernel in the calling thread and merge with the rest
    in partition order.  Worker count: numba's own thread pool sizes
    the loop; ``n_workers`` is forwarded via ``numba.set_num_threads``
    when possible (interpreted mode runs the same packed kernel
    serially).
    """

    name = "jit-threaded"

    def __init__(self, n_workers: int = 1) -> None:
        super().__init__(n_workers)
        self._packed_bufs: dict = {}
        self._packed_broken = False
        if NUMBA_AVAILABLE and not FORCE_INTERPRETED and self.n_workers > 1:
            try:  # pragma: no cover - requires numba
                numba.set_num_threads(
                    min(self.n_workers, numba.config.NUMBA_NUM_THREADS)
                )
            except Exception:
                pass

    def fallback(self) -> Executor:
        """Threaded NumPy schedule — the nearest non-compiled equivalent."""
        return ThreadedExecutor(self.n_workers)

    def _packed_buffers(self, view_index, n, n_lanes):
        bufs = self._packed_bufs.get(view_index)
        if bufs is None or bufs[0].shape != (n, n_lanes):
            bufs = (
                np.zeros((n, n_lanes), dtype=np.float64),  # acc
                np.zeros(n, dtype=bool),                   # touched
                np.zeros((n, n_lanes), dtype=bool),        # received
                np.empty(n, dtype=np.int64),               # out_dst
                np.empty((n, n_lanes), dtype=np.float64),  # out_val
                np.empty((n, n_lanes), dtype=bool),        # out_recv
            )
            self._packed_bufs[view_index] = bufs
        return bufs

    def sweep(
        self,
        kernel,
        view_index,
        view,
        x,
        y,
        program,
        properties,
        counters=None,
        partition_work=None,
        kernel_counts=None,
        scratch=None,
        thresholds=DEFAULT_THRESHOLDS,
    ) -> int:
        """One K-lane sweep via the packed prange kernels (all blocks at once)."""
        if self._broken or self._packed_broken:
            return super().sweep(
                kernel, view_index, view, x, y, program, properties,
                counters, partition_work, kernel_counts, scratch, thresholds,
            )
        plan = self._plan
        x_valid = x.valid_mask()
        x_values = x.values
        blocks = list(view)
        n_blocks = len(blocks)
        codes = np.zeros(n_blocks, dtype=np.int64)
        gcodes = np.zeros(n_blocks, dtype=np.int64)
        filters = np.zeros(n_blocks, dtype=np.int64)
        modes = np.zeros(n_blocks, dtype=np.int64)
        compacts = np.zeros(n_blocks, dtype=bool)
        row_los = np.zeros(n_blocks, dtype=np.int64)
        row_his = np.zeros(n_blocks, dtype=np.int64)
        n_edges_arr = np.zeros(n_blocks, dtype=np.int64)
        actives = np.zeros(n_blocks, dtype=np.int64)
        jcs, cps, irs, nums, poss = [], [], [], [], []
        gcolss, gvalss, gstartss, urowss, gbufs = [], [], [], [], []
        results = []
        empty_i64 = np.zeros(0, dtype=np.int64)
        n_lanes = int(x_values.shape[0])
        empty_lanes = np.zeros((n_lanes, 0), dtype=np.float64)
        additive = plan.op == JIT_OP_PLUS_TIMES or plan.op == JIT_OP_PLUS_FIRST
        t0 = time.perf_counter()
        for p, block in enumerate(blocks):
            row_los[p], row_his[p] = block.row_range
            jcs.append(block.jc)
            cps.append(block.cp)
            irs.append(block.ir)
            nums.append(block.num)
            pos = empty_i64
            gcols = empty_i64
            gvals = block.num[:0]
            gstarts = empty_i64
            urows = empty_i64
            gbuf = empty_lanes
            if block.nzc:
                active_pos, uniform_send = union_active_columns(
                    block, x_valid
                )
                n_active = int(active_pos.size)
                actives[p] = n_active
                if n_active:
                    if block.num.dtype not in _JIT_NUM_DTYPES:
                        results.append(
                            kernel(
                                p, block, x_valid, x_values, program,
                                properties,
                                scratch.get(p) if scratch is not None else None,
                                thresholds,
                            )
                        )
                    else:
                        shape = select_kernel(
                            block, frontier_edge_count(block, active_pos),
                            program, program.message_spec,
                            program.result_spec, thresholds,
                        )
                        dense = shape == KERNEL_DENSE
                        full = n_active == block.nzc
                        modes[p] = _received_mode(
                            program, uniform_send, dense, full
                        )
                        compacts[p] = dense and not full and modes[p] != 0
                        if additive:
                            # Replay the NumPy tier's sort+reduceat
                            # association with the grouped kernel
                            # (sparse shapes filter union-inactive
                            # columns out of the same dst-sorted order).
                            gcodes[p] = 2 if dense else 1
                            filters[p] = 0 if dense else 1
                            gcols = block.dst_sorted_cols()
                            gvals = block.dst_sorted_vals()
                            _, gstarts, urows = block.dst_groups()
                            n_edges_arr[p] = block.nnz
                            gbuf = self._group_buf(
                                view_index, p,
                                _max_group_len(gstarts, block.nnz), n_lanes,
                            )
                        else:
                            codes[p] = 2 if dense else 1
                            pos = (
                                np.arange(block.nzc, dtype=np.int64)
                                if dense
                                else active_pos
                            )
            poss.append(pos)
            gcolss.append(gcols)
            gvalss.append(gvals)
            gstartss.append(gstarts)
            urowss.append(urows)
            gbufs.append(gbuf)
        live = int(np.count_nonzero(codes))
        glive = int(np.count_nonzero(gcodes))
        if live or glive:
            n = x_values.shape[1]
            acc, touched, received, out_dst, out_val, out_recv = (
                self._packed_buffers(view_index, n, n_lanes)
            )
            out_m = np.zeros(n_blocks, dtype=np.int64)
            out_edges = np.zeros(n_blocks, dtype=np.int64)
            _, packed, packed_additive = _kernels()
            try:
                if live:
                    packed(
                        plan.op, plan.const,
                        _block_list(jcs), _block_list(cps), _block_list(irs),
                        _block_list(nums), _block_list(poss),
                        codes, modes, compacts, row_los, row_his,
                        x_valid, x_values, plan.identity,
                        acc, touched, received, out_dst, out_val, out_recv,
                        out_m, out_edges,
                    )
                if glive:
                    packed_additive(
                        plan.op, plan.const,
                        _block_list(gcolss), _block_list(gvalss),
                        _block_list(gstartss), _block_list(urowss),
                        n_edges_arr, gcodes, filters, modes, compacts,
                        row_los, x_valid, x_values, plan.identity,
                        _block_list(gbufs), received,
                        out_dst, out_val, out_recv, out_m, out_edges,
                    )
            except Exception as exc:  # pragma: no cover - compile issues
                self._packed_broken = True
                logger.warning(
                    "packed prange kernel failed (%s: %s); backend %r "
                    "continuing on per-block compiled kernels",
                    type(exc).__name__, exc, self.name,
                )
                return super().sweep(
                    kernel, view_index, view, x, y, program, properties,
                    counters, partition_work, kernel_counts, scratch,
                    thresholds,
                )
            seconds = (time.perf_counter() - t0) / (live + glive)
            for p in range(n_blocks):
                code = codes[p] or gcodes[p]
                if not code:
                    continue
                lo = row_los[p]
                m = int(out_m[p])
                edges = int(out_edges[p])
                results.append(
                    BlockResult(
                        p,
                        out_dst[lo : lo + m],
                        out_val[lo : lo + m].T,
                        edges,
                        int(actives[p]),
                        JIT_KERNEL_FOR[
                            KERNEL_DENSE if code == 2 else KERNEL_SPARSE
                        ],
                        seconds,
                        events=_lane_events(
                            edges, m, n_lanes, int(actives[p])
                        ),
                        received=(
                            None if modes[p] == 0 else out_recv[lo : lo + m].T
                        ),
                    )
                )
        # Inactive/empty blocks still get a PartitionWork entry, exactly
        # like the NumPy executors.
        done = {r.partition for r in results}
        results.extend(
            _empty_block_result(p) for p in range(n_blocks) if p not in done
        )
        return finish_view(
            results, y, program, counters, partition_work, kernel_counts
        )

    def close(self) -> None:
        """Release cached buffers, including the packed-layout arrays."""
        super().close()
        self._packed_bufs.clear()
