"""Logical timestamps, frontiers, and the compaction function of Appendix A.

Timestamps are tuples of non-negative ints ordered *pointwise* (the product
lattice).  A 1-tuple gives the totally ordered integer times used by the
Spark engine's fast path; longer tuples give the partially ordered times of
Timely Dataflow (e.g. ``(epoch, iteration)``), which exercise the general
compaction math.

Terminology follows the paper (§3.1, Appendix A):

* a **frontier** is an antichain of times; a time ``t`` is *beyond* a frontier
  ``F`` when ``t >= f`` for some ``f in F``;
* ``rep_f(t, F) = glb_{f in F} lub(t, f)`` is the compaction representative:
  the (unique, optimal) time that compares identically to ``t`` against every
  time beyond ``F`` (Theorems 1 and 2, proved in the paper, property-tested in
  ``tests/test_lattice.py``).
"""
from __future__ import annotations

from typing import Iterable, Tuple

Time = Tuple[int, ...]


def leq(a: Time, b: Time) -> bool:
    """Pointwise (product-lattice) partial order: ``a <= b``."""
    return len(a) == len(b) and all(x <= y for x, y in zip(a, b))


def lub(a: Time, b: Time) -> Time:
    """Least upper bound (the paper's ``∧``): pointwise max."""
    return tuple(max(x, y) for x, y in zip(a, b))


def glb(a: Time, b: Time) -> Time:
    """Greatest lower bound (the paper's ``∨``): pointwise min."""
    return tuple(min(x, y) for x, y in zip(a, b))


class Frontier:
    """An antichain of times; the empty frontier means "stream closed".

    Provides the *beyond* test of §3.1 and the standard "may only advance"
    ordering used by trace handles: ``self.dominates(other)`` holds when every
    time beyond ``self`` is also beyond ``other`` (i.e. ``self`` is the later
    frontier).
    """

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[Time] = ()):  # noqa: D107
        elems = [tuple(e) for e in elements]
        # Reduce to an antichain: drop any element beyond another element.
        antichain = [
            e
            for i, e in enumerate(elems)
            if not any(j != i and leq(o, e) and o != e for j, o in enumerate(elems))
        ]
        # Deduplicate, keep deterministic order.
        self.elements: Tuple[Time, ...] = tuple(sorted(set(antichain)))

    @classmethod
    def at(cls, *t: int) -> "Frontier":
        """Single-element frontier at time ``t`` (ints or one tuple)."""
        if len(t) == 1 and isinstance(t[0], tuple):
            return cls([t[0]])
        return cls([tuple(t)])

    def beyond(self, t: Time) -> bool:
        """True iff ``t`` is beyond this frontier (>= some element)."""
        return any(leq(f, t) for f in self.elements)

    def dominates(self, other: "Frontier") -> bool:
        """True iff every element of ``self`` is beyond ``other``."""
        return all(other.beyond(f) for f in self.elements)

    def is_empty(self) -> bool:
        """The empty frontier: no future times remain (input closed)."""
        return not self.elements

    def meet(self, other: "Frontier") -> "Frontier":
        """Lower envelope: times beyond the result = beyond self OR other.

        Used by a trace to combine the frontiers of all of its readers: the
        trace may only compact distinctions still needed by *some* reader.
        """
        return Frontier(self.elements + other.elements)

    def __eq__(self, other) -> bool:
        return isinstance(other, Frontier) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"Frontier({list(self.elements)})"


def rep_f(t: Time, frontier: Frontier) -> Time:
    """Compaction representative of ``t`` as of ``frontier`` (Appendix A).

    ``rep_F(t) = glb_{f in F} lub(t, f)``.  Correct (Theorem 1): ``t`` and
    ``rep_F(t)`` compare identically to every time beyond ``F``.  Optimal
    (Theorem 2): times indistinguishable as of ``F`` share a representative.
    The frontier must be non-empty (an empty frontier means every historical
    distinction may be dropped, which callers handle by discarding times).
    """
    if frontier.is_empty():
        raise ValueError("rep_f is undefined for the empty frontier")
    it = iter(frontier.elements)
    acc = lub(t, next(it))
    for f in it:
        acc = glb(acc, lub(t, f))
    return acc


def indistinguishable(t1: Time, t2: Time, frontier: Frontier) -> bool:
    """``t1 ≡_F t2``: both compare identically to all times beyond ``F``.

    Decidable without enumerating times beyond ``F``: by Theorems 1+2 this is
    equivalent to ``rep_F(t1) == rep_F(t2)``; the brute-force definition is
    used in property tests against this implementation.
    """
    return rep_f(t1, frontier) == rep_f(t2, frontier)


def int_time(t: int) -> Time:
    """Wrap an integer round number as a 1-dimensional lattice time."""
    return (t,)
