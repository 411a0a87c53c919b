"""The GraphMat vertex-program abstraction (paper section 4.1).

A :class:`GraphProgram` supplies the four user functions of the paper:

- ``send_message(vertex_prop)`` — read the vertex state and produce the
  message broadcast along the vertex's edges (active vertices only),
- ``process_message(message, edge_value, dst_prop)`` — combine one arriving
  message with the edge it travelled and the *destination* vertex state
  (the access that distinguishes GraphMat from pure matrix frameworks),
- ``reduce(a, b)`` — fold the processed messages for one vertex,
- ``apply(reduced, vertex_prop)`` — produce the vertex's new state.

``process_message``/``reduce`` together form the generalized SpMV multiply
and add (Figure 2).  Programs may additionally implement the ``*_batch``
hooks, which operate on aligned numpy arrays; the engine's *fused* code
path (the ``-ipo`` analogue, see DESIGN.md) uses them to eliminate
per-edge Python dispatch.  A program that only implements the scalar hooks
still runs on every engine path except ``fused``.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.core.kernels import (
    MIN_FIRST_KERNEL,
    MIN_PLUS_KERNEL,
    PLUS_FIRST_KERNEL,
    PLUS_TIMES_KERNEL,
    LaneKernel,
)
from repro.core.semiring import MIN_FIRST, MIN_PLUS, PLUS_FIRST, PLUS_TIMES, Semiring
from repro.errors import ProgramError
from repro.vector.sparse_vector import FLOAT64, ValueSpec


class EdgeDirection(enum.Enum):
    """Which edges an active vertex scatters its message along.

    ``OUT_EDGES`` sends v's message to every w with edge (v, w);
    ``IN_EDGES`` sends to every u with edge (u, v); ``ALL_EDGES`` does both
    (used by collaborative filtering on the bipartite rating graph).
    """

    OUT_EDGES = "out"
    IN_EDGES = "in"
    ALL_EDGES = "all"


#: What a ``lane_kernel`` computes: redefining one of these drops it.
_LANE_KERNEL_HOOKS = (
    "process_message_batch",
    "process_message_lanes",
    "reduce_ufunc",
)
#: What an ``accumulate`` stands for (the process, apply and equality
#: hooks): redefining one of these drops it.
_ACCUMULATE_HOOKS = _LANE_KERNEL_HOOKS + (
    "process_message",
    "process_edges_packed",
    "apply",
    "apply_batch",
    "apply_lanes",
    "apply_lanes_inplace",
    "properties_equal",
    "properties_equal_batch",
    "properties_equal_lanes",
)


class GraphProgram:
    """Base class for GraphMat vertex programs.

    Subclasses must implement the four scalar hooks and may implement the
    batch hooks.  Class attributes declare the value types flowing through
    the program (message, reduced result, vertex property) so the engine
    can allocate correctly shaped sparse vectors.
    """

    #: Edge direction for message scattering.
    direction: EdgeDirection = EdgeDirection.OUT_EDGES
    #: Value spec of messages produced by ``send_message``.
    message_spec: ValueSpec = FLOAT64
    #: Value spec of processed/reduced values.
    result_spec: ValueSpec = FLOAT64
    #: Value spec of vertex properties.
    property_spec: ValueSpec = FLOAT64
    #: Optional ufunc implementing ``reduce`` (enables vectorized segment
    #: reduction on the fused path). ``None`` → per-group Python reduce.
    reduce_ufunc: Optional[np.ufunc] = None
    #: When True, every vertex is re-marked active after each superstep
    #: (fixed-iteration algorithms like benchmarked PageRank and CF, where
    #: senders must keep broadcasting even if their own state is stable).
    #: Such programs never quiesce; run them with a max_iterations budget.
    reactivate_all: bool = False
    #: Whether the batched SpMM kernels must gather per-lane destination
    #: properties for :meth:`process_message_lanes` (a ``(K, edges, ...)``
    #: gather; off by default because none of the built-in programs read
    #: ``dst_props`` in their process hook).
    batch_needs_dst_props: bool = False
    #: Certify that a *real* message never processes+reduces to the
    #: masking identity — then the batched kernels derive each lane's
    #: received mask by comparing the (output-sized) reduction against
    #: the identity instead of gathering a ``(K, edges)`` sent mask.
    #: BFS/SSSP qualify (finite distances stay finite under +1/+w);
    #: saturating programs, where a real value can equal the identity
    #: sentinel, must leave this False.
    batch_received_by_value: bool = False
    #: Optional absorbing identity of ``reduce`` (e.g. ``inf`` for min).
    #: Declaring it makes the program lane-capable: the K-lane kernel
    #: fills silent sources with the identity, so it can pull *dense*
    #: frontiers over the whole edge array, skipping the per-superstep
    #: destination sort.  Contract: ``process_message``
    #: must map an identity message to an identity result (min-plus and
    #: min-first do: inf + w == inf).
    reduce_identity = None
    #: Optional :class:`~repro.core.kernels.LaneKernel` naming the
    #: compiled sweep (:mod:`repro.core.ckernels`) that computes this
    #: program's ``process_message_lanes`` + ``reduce_ufunc`` bit for
    #: bit.  A subclass that redefines one of those hooks without
    #: declaring its own key inherits None (``__init_subclass__``).
    lane_kernel: Optional[LaneKernel] = None
    #: ``"min"`` certifies that :meth:`apply_batch` is
    #: ``np.minimum(reduced, old)`` and the activity rule exact equality:
    #: GraphBLAS's ``w<mask> min= A ⊕.⊗ u``.  The engine may then let the
    #: ``lane_kernel`` sweep write the properties and the next frontier
    #: itself (:func:`repro.core.ckernels.lane_accumulate`) instead of
    #: merging into ``y`` and applying; it does so only with
    #: ``batch_received_by_value`` and a ``+inf`` reduce identity.  A
    #: subclass that redefines a process, apply or equality hook without
    #: declaring its own inherits None (``__init_subclass__``).
    accumulate: Optional[str] = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        body = vars(cls)
        if "lane_kernel" not in body and any(
            hook in body for hook in _LANE_KERNEL_HOOKS
        ):
            cls.lane_kernel = None
        if "accumulate" not in body and any(
            hook in body for hook in _ACCUMULATE_HOOKS
        ):
            cls.accumulate = None

    # ------------------------------------------------------------------
    # Scalar hooks (Algorithm 1 / Algorithm 2)
    # ------------------------------------------------------------------
    def send_message(self, vertex_prop):
        """Message for an active vertex, or ``None`` to stay silent.

        The paper's ``send_message`` returns a boolean plus an out-param;
        returning ``None`` here encodes ``false``.
        """
        raise NotImplementedError

    def process_message(self, message, edge_value, dst_prop):
        """Processed value for one (message, edge, destination) triple."""
        raise NotImplementedError

    def reduce(self, a, b):
        """Combine two processed values (must be commutative/associative)."""
        raise NotImplementedError

    def apply(self, reduced, vertex_prop):
        """New vertex property given the reduced value and the old property."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Activity rule
    # ------------------------------------------------------------------
    def properties_equal(self, old_prop, new_prop) -> bool:
        """Equality used by the activity rule (Algorithm 2 line 12).

        A vertex whose property "changed" becomes active for the next
        superstep.  Programs with floating-point state may override this
        with a tolerance to terminate early (PageRank does).
        """
        if isinstance(old_prop, np.ndarray) or isinstance(new_prop, np.ndarray):
            return bool(np.array_equal(old_prop, new_prop))
        return bool(old_prop == new_prop)

    def properties_equal_batch(
        self, old: np.ndarray, new: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`properties_equal` over aligned arrays.

        Returns a boolean array; ``False`` marks vertices whose property
        changed (they become active).  The default compares exactly, with
        multi-dimensional properties compared per-vertex.
        """
        if old.dtype == object or new.dtype == object:
            return np.fromiter(
                (
                    self.properties_equal(old[i], new[i])
                    for i in range(old.shape[0])
                ),
                dtype=bool,
                count=old.shape[0],
            )
        eq = old == new
        if eq.ndim > 1:
            eq = eq.all(axis=tuple(range(1, eq.ndim)))
        return np.asarray(eq, dtype=bool)

    # ------------------------------------------------------------------
    # Batch hooks (fused path). Defaults raise; the engine falls back to
    # the scalar path when a program does not vectorize.
    # ------------------------------------------------------------------
    def send_message_batch(self, props: np.ndarray, vertices: np.ndarray):
        """Messages for the active ``vertices`` (properties pre-gathered).

        Returns either an array of messages aligned with ``vertices`` or a
        tuple ``(mask, messages)`` where ``mask`` marks which vertices send.
        """
        raise NotImplementedError

    def process_message_batch(
        self,
        messages: np.ndarray,
        edge_values: np.ndarray,
        dst_props: np.ndarray,
    ) -> np.ndarray:
        """Vectorized ``process_message`` over aligned per-edge arrays."""
        raise NotImplementedError

    def apply_batch(self, reduced: np.ndarray, props: np.ndarray) -> np.ndarray:
        """Vectorized ``apply`` over the vertices that received messages."""
        raise NotImplementedError

    def process_edges_packed(
        self,
        src_cols: np.ndarray,
        edge_values: np.ndarray,
        dst_rows: np.ndarray,
        properties_data: np.ndarray,
    ):
        """Optional deepest-fusion kernel over raw edge arrays.

        When a program returns a per-edge result array from this hook, the
        fused engine skips message materialization entirely and hands the
        kernel the edge iteration space directly (``src_cols[k]`` sent to
        ``dst_rows[k]`` along value ``edge_values[k]``).  This is the
        Python analogue of what ``-ipo`` achieves by inlining the user
        functions through the whole SpMV loop nest.  Return ``None``
        (the default) to use the standard gather + ``process_message_batch``
        path.  Semantics must match the scalar hooks exactly.
        """
        return None

    def process_message_lanes(
        self,
        messages: np.ndarray,
        edge_values: np.ndarray,
        dst_props: np.ndarray | None,
    ) -> np.ndarray:
        """Vectorized ``process_message`` over a ``(K, edges)`` lane block.

        The batched SpMM engine (:func:`repro.core.spmv.run_block_batch`)
        gathers each active column's edge span once and presents all K
        concurrent frontiers' messages as a lane-major 2-D block; lanes
        that did not send along an edge carry
        :meth:`batch_reduce_identity` in that slot.  The default
        forwards to :meth:`process_message_batch` — the per-edge values
        (shape ``(edges,)``) broadcast naturally against the lane block —
        which is exact for any program whose processing is elementwise
        in the message (all the built-in scalar programs).  Programs
        that mix lanes or index ``dst_props`` non-elementwise must
        override this.

        ``dst_props`` is ``None`` unless the program sets
        ``batch_needs_dst_props``; when set, it arrives with shape
        ``(K, edges, *property_shape)``.
        """
        return self.process_message_batch(messages, edge_values, dst_props)

    def send_message_lanes(self, props_lanes: np.ndarray, active_lanes: np.ndarray):
        """Optional full-width K-lane send hook.

        Return a ``(K, n_vertices)`` message block for *every*
        (lane, vertex) slot — the driver masks it to the active lanes —
        or ``None`` (the default) to fall back to one
        :meth:`send_message_batch` call per lane.  Only consulted when
        every lane runs an equivalent program instance, and only valid
        for programs where every active vertex sends (no tuple-mask
        declines).  One vectorized expression here replaces K gather +
        scatter round-trips per superstep.
        """
        return None

    def apply_lanes(self, reduced_lanes: np.ndarray, props_lanes: np.ndarray):
        """Optional full-width K-lane apply hook.

        Given the ``(K, n_vertices)`` reduced block and the
        ``(K, n_vertices, *property_shape)`` current properties, return
        the full new property block (a fresh array, never the input) —
        the driver adopts only the slots that actually received a
        message, so values computed from stale ``reduced`` entries at
        silent slots are discarded.  Return ``None`` (the default) for
        per-lane :meth:`apply_batch` calls.
        """
        return None

    def apply_lanes_inplace(
        self,
        reduced_lanes: np.ndarray,
        props_lanes: np.ndarray,
        received: np.ndarray,
    ) -> bool:
        """Optional in-place K-lane apply for dense reactivating sweeps.

        Called only when activity is unconditional (``reactivate_all``),
        so no old state is needed for an equality check: update
        ``props_lanes`` directly at the slots marked by ``received``
        (``(K, n)`` bool; other slots MUST keep their state — their
        ``reduced_lanes`` entries are stale) and return True, or return
        False (the default) to use :meth:`apply_lanes`.  For a
        PageRank-shaped program this turns the apply phase from
        full-block copy + merge into one masked update of the rank
        column.
        """
        return False

    def properties_equal_lanes(
        self, old: np.ndarray, new: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`properties_equal` over ``(K, n, ...)`` blocks.

        Returns a ``(K, n)`` boolean array; ``False`` marks changed
        slots (they become active).  Must agree with
        :meth:`properties_equal_batch` slot for slot — the default exact
        comparison does.
        """
        eq = old == new
        if eq.ndim > 2:
            eq = eq.all(axis=tuple(range(2, eq.ndim)))
        return np.asarray(eq, dtype=bool)

    def reduce_segments(
        self,
        sorted_results: np.ndarray,
        group_starts: np.ndarray,
        group_ends: np.ndarray,
    ):
        """Optional segment reduction for programs without a reduce ufunc.

        ``sorted_results`` holds per-edge processed values grouped by
        destination; group ``i`` spans ``[group_starts[i], group_ends[i])``.
        Return the per-group reduced array, or ``None`` to let the engine
        fall back to pairwise scalar ``reduce`` calls.  Triangle counting's
        gather phase implements this with array slicing (list-concatenation
        reduces are quadratic when done pairwise).
        """
        return None

    # ------------------------------------------------------------------
    def supports_fused(self) -> bool:
        """True if this program implements the full batch surface."""
        cls = type(self)
        return (
            cls.send_message_batch is not GraphProgram.send_message_batch
            and cls.process_message_batch is not GraphProgram.process_message_batch
            and cls.apply_batch is not GraphProgram.apply_batch
        )

    def batch_reduce_identity(self):
        """The identity used to mask silent lanes in the batched SpMM.

        The K-lane kernels process the *union* of the lanes' active
        columns in one sweep; a lane that did not send along a gathered
        edge contributes this value instead, and the per-lane received
        masks guarantee identity-only destinations never surface.  The
        masking is exact when ``process_message`` maps an identity
        message to an identity result and ``reduce`` absorbs it without
        perturbing the fold (``min(x, inf) == x``; ``x + 0.0 == x``
        bitwise for finite IEEE values) — the same contract
        ``reduce_identity`` already states for the dense-pull kernel.

        Declaring ``reduce_identity`` IS that certification, so only a
        declared identity qualifies; ``None`` means the program cannot
        run on the batched path.  (The reduce ufunc's own identity is
        deliberately NOT used as a fallback: ``np.add.identity == 0``
        says nothing about the *process* hook — a program computing
        ``messages + edge_values`` would turn silent-lane zeros into
        real edge contributions and cross-pollute lanes.)
        """
        return self.reduce_identity

    def supports_batched(self) -> bool:
        """True if this program is *lane-capable* (runs the K-lane kernel).

        The engine sweeps lane-capable programs with
        :func:`repro.core.spmv.run_block_batch` — K lanes through
        ``run_graph_programs_batched``, one lane through
        ``run_graph_program`` — and everything else with the generic
        one-vector kernel.  Requires the fused batch surface plus: scalar numeric message
        and result specs (the lane block is a dense 2-D array), a numpy
        reduce ufunc (every lane folds its destination groups with it),
        a masking identity, and a numeric property
        spec (per-lane properties live in one ``(K, n, ...)`` array).
        """
        return (
            self.supports_fused()
            and self.reduce_ufunc is not None
            and self.message_spec.is_scalar
            and self.message_spec.dtype != object
            and self.result_spec.is_scalar
            and self.result_spec.dtype != object
            and self.property_spec.dtype != object
            and self.batch_reduce_identity() is not None
        )

    def validate(self) -> None:
        """Sanity-check the program declaration; raise ProgramError if bad."""
        if not isinstance(self.direction, EdgeDirection):
            raise ProgramError(
                f"direction must be an EdgeDirection, got {self.direction!r}"
            )
        for attr in ("message_spec", "result_spec", "property_spec"):
            if not isinstance(getattr(self, attr), ValueSpec):
                raise ProgramError(f"{attr} must be a ValueSpec")
        if self.reduce_ufunc is not None and not isinstance(
            self.reduce_ufunc, np.ufunc
        ):
            raise ProgramError(
                f"reduce_ufunc must be a numpy ufunc or None, "
                f"got {type(self.reduce_ufunc).__name__}"
            )
        if self.accumulate not in (None, "min"):
            raise ProgramError(
                f"accumulate must be None or 'min', got {self.accumulate!r}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(direction={self.direction.value})"


#: (add, multiply) ufuncs -> the compiled sweep that computes them.
_SEMIRING_KERNELS = {
    (s.add_ufunc, s.multiply_ufunc): kernel
    for s, kernel in (
        (MIN_PLUS, MIN_PLUS_KERNEL),
        (MIN_FIRST, MIN_FIRST_KERNEL),
        (PLUS_TIMES, PLUS_TIMES_KERNEL),
        (PLUS_FIRST, PLUS_FIRST_KERNEL),
    )
}


class SemiringProgram(GraphProgram):
    """A vertex program generated from a plain semiring.

    This is the CombBLAS view of the world: ``process_message`` sees only
    the message and the edge value.  ``send_message`` broadcasts the vertex
    property unchanged and ``apply`` overwrites the property with the
    reduced value.  Used by tests and by simple algorithms (degree
    computation, reachability) and internally by the CombBLAS-like
    baseline.
    """

    def __init__(self, semiring: Semiring, direction: EdgeDirection = EdgeDirection.OUT_EDGES) -> None:
        self.semiring = semiring
        self.direction = direction
        self.reduce_ufunc = semiring.add_ufunc
        # An absorbing additive identity unlocks the batched SpMM path
        # and its dense pull (identity message == silence).
        if semiring.identity_absorbs:
            self.reduce_identity = semiring.add_identity

    @property
    def lane_kernel(self):
        """The compiled sweep of a semiring with one, else None."""
        kernel = _SEMIRING_KERNELS.get(
            (self.semiring.add_ufunc, self.semiring.multiply_ufunc)
        )
        return None if kernel is None else LaneKernel(kernel)

    def send_message(self, vertex_prop):
        return vertex_prop

    def process_message(self, message, edge_value, dst_prop):
        return self.semiring.multiply(message, edge_value)

    def reduce(self, a, b):
        return self.semiring.add(a, b)

    def apply(self, reduced, vertex_prop):
        return reduced

    # Batch surface --------------------------------------------------------
    def send_message_batch(self, props, vertices):
        return props

    def process_message_batch(self, messages, edge_values, dst_props):
        return self.semiring.multiply_ufunc(messages, edge_values)

    def apply_batch(self, reduced, props):
        return reduced

    def __repr__(self) -> str:
        return f"SemiringProgram({self.semiring.name}, direction={self.direction.value})"
