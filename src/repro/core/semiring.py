"""Semirings: the algebra behind generalized SpMV.

Matrix-based graph frameworks model traversal as "operations on a semi-ring"
(paper section 2, citing CombBLAS).  A semiring supplies the two operations
that replace multiply and add in SpMV:

- ``multiply(a, b)`` combines a message with an edge value (GraphMat's
  ``PROCESS_MESSAGE`` restricted to message and edge — the CombBLAS view),
- ``add(a, b)`` merges the per-edge results for one destination vertex
  (GraphMat's ``REDUCE``).

GraphMat's frontend generalizes the multiply to also see the destination
vertex state; the :class:`~repro.core.graph_program.GraphProgram` interface
captures that.  The plain semiring here is what the CombBLAS-like baseline
is limited to, and what the standard algorithms (PageRank, BFS, SSSP)
compile down to.

Each semiring carries both scalar callables and numpy ufuncs so the same
object drives the scalar and fused SpMV paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Semiring:
    """A (add, multiply) pair with identities and vectorized counterparts.

    Attributes
    ----------
    name:
        Human-readable identifier (used in reports and reprs).
    add:
        Scalar reduction, commutative and associative.
    multiply:
        Scalar combine of ``(message, edge_value)``.
    add_identity:
        Identity element of ``add`` (the implicit value of missing entries).
    add_ufunc / multiply_ufunc:
        Vectorized counterparts operating on aligned numpy arrays.  The add
        ufunc must support ``reduceat`` (all numpy binary ufuncs do).
    identity_absorbs:
        True when ``multiply(add_identity, e) == add_identity`` for every
        edge value ``e`` — the contract that lets the batched SpMM
        kernel treat an identity message as silence.  ``max-times``
        violates it (``-inf * e`` flips sign for negative ``e``), so it
        opts out and runs the generic kernel.
    """

    name: str
    add: Callable[[object, object], object]
    multiply: Callable[[object, object], object]
    add_identity: object
    add_ufunc: np.ufunc
    multiply_ufunc: Callable[[np.ndarray, np.ndarray], np.ndarray]
    identity_absorbs: bool = True

    def reduce_array(self, values: np.ndarray) -> object:
        """Reduce a 1-D array with ``add`` (identity for empty input)."""
        if values.shape[0] == 0:
            return self.add_identity
        return self.add_ufunc.reduce(values)

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


def _first(a, b):
    """Projection multiply: propagate the message, ignore the edge value."""
    return a


def _first_ufunc(messages: np.ndarray, edge_values: np.ndarray) -> np.ndarray:
    return messages


PLUS_TIMES = Semiring(
    name="plus-times",
    add=lambda a, b: a + b,
    multiply=lambda a, b: a * b,
    add_identity=0.0,
    add_ufunc=np.add,
    multiply_ufunc=np.multiply,
)
"""Arithmetic semiring: ordinary SpMV (degree counting, PageRank gather)."""

MIN_PLUS = Semiring(
    name="min-plus",
    add=min,
    multiply=lambda a, b: a + b,
    add_identity=float("inf"),
    add_ufunc=np.minimum,
    multiply_ufunc=np.add,
)
"""Tropical semiring: shortest paths (SSSP relaxation)."""

MIN_FIRST = Semiring(
    name="min-first",
    add=min,
    multiply=_first,
    add_identity=float("inf"),
    add_ufunc=np.minimum,
    multiply_ufunc=_first_ufunc,
)
"""Min over propagated messages: BFS frontier expansion, label propagation."""

OR_AND = Semiring(
    name="or-and",
    add=lambda a, b: bool(a) or bool(b),
    multiply=lambda a, b: bool(a) and bool(b),
    add_identity=False,
    add_ufunc=np.logical_or,
    multiply_ufunc=np.logical_and,
)
"""Boolean semiring: reachability."""

MAX_TIMES = Semiring(
    name="max-times",
    add=max,
    multiply=lambda a, b: a * b,
    add_identity=float("-inf"),
    add_ufunc=np.maximum,
    multiply_ufunc=np.multiply,
    identity_absorbs=False,  # -inf * e flips sign for negative e
)
"""Max-times: widest-path style computations."""

PLUS_FIRST = Semiring(
    name="plus-first",
    add=lambda a, b: a + b,
    multiply=_first,
    add_identity=0.0,
    add_ufunc=np.add,
    multiply_ufunc=_first_ufunc,
)
"""Sum of propagated messages ignoring edge values (unweighted gather)."""


STANDARD_SEMIRINGS: dict[str, Semiring] = {
    s.name: s
    for s in (PLUS_TIMES, MIN_PLUS, MIN_FIRST, OR_AND, MAX_TIMES, PLUS_FIRST)
}


def get_semiring(name: str) -> Semiring:
    """Look up a standard semiring by name."""
    try:
        return STANDARD_SEMIRINGS[name]
    except KeyError:
        known = ", ".join(sorted(STANDARD_SEMIRINGS))
        raise KeyError(f"unknown semiring {name!r}; known: {known}") from None
