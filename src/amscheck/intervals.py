"""Interval and interval-set algebra over the dense time line.

Intervals carry explicit endpoint closedness so that open boundaries
produced by strict comparisons, and the flips introduced by
complementation, survive every operation exactly.  Sets are kept
normalized: components sorted, pairwise disjoint, and coalesced when
they overlap or touch within the endpoint tolerance.

The algebra has five operations: normalization (`IntervalSet`),
`set_intersect`, `set_union`, `set_complement` (with `set_difference`
built from the last two), and one shift, `_shift`, that moves every
component ``[l:r]`` to ``[l+dlo : r+dhi]``.  The Minkowski sum and
difference with a delay window and the recurrence rule of the engine
are all calls to that shift.

All times are seconds as floats.  Two endpoints are considered equal
when they differ by at most ``eps`` (default 1e-9 s); coalescing uses
the same tolerance.  Arithmetic itself is exact: the tolerance never
moves an endpoint, it only decides whether two components are merged
and whether two sets compare equal in `approx_eq`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DomainError, InvalidDelayError

#: Default endpoint comparison / coalescing tolerance, in seconds.
TIME_TOL = 1e-9


@dataclass(frozen=True)
class Interval:
    """A convex subset of the real line with open/closed endpoints.

    Any constructor input describing an empty set (lo > hi, or a
    half-open point) collapses to the canonical empty interval, so
    emptiness never needs special-casing downstream.
    """

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if self.lo > self.hi or (
            self.lo == self.hi and not (self.lo_closed and self.hi_closed)
        ):
            object.__setattr__(self, "lo", math.inf)
            object.__setattr__(self, "hi", -math.inf)
            object.__setattr__(self, "lo_closed", False)
            object.__setattr__(self, "hi_closed", False)

    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, t: float) -> bool:
        if self.is_empty:
            return False
        if t < self.lo or t > self.hi:
            return False
        if t == self.lo and not self.lo_closed:
            return False
        if t == self.hi and not self.hi_closed:
            return False
        return True

    # Endpoint ordering keys.  At equal value a closed left endpoint
    # extends further left than an open one; symmetrically for right.
    def _lkey(self) -> tuple[float, int]:
        return (self.lo, 0 if self.lo_closed else 1)

    def _rkey(self) -> tuple[float, int]:
        return (self.hi, 1 if self.hi_closed else 0)

    def intersect(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        lo, lof = max(self._lkey(), other._lkey())
        hi, hif = min(self._rkey(), other._rkey())
        return Interval(lo, hi, lof == 0, hif == 1)

    def approx_eq(self, other: "Interval", tol: float = TIME_TOL) -> bool:
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        return (
            abs(self.lo - other.lo) <= tol
            and abs(self.hi - other.hi) <= tol
            and self.lo_closed == other.lo_closed
            and self.hi_closed == other.hi_closed
        )

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        l = "[" if self.lo_closed else "("
        r = "]" if self.hi_closed else ")"
        return f"{l}{self.lo:g}:{self.hi:g}{r}"


EMPTY = Interval(math.inf, -math.inf, False, False)


def _check_delay(c: float, d: float) -> None:
    if not 0 <= c <= d:
        raise InvalidDelayError(f"delay window [{c}:{d}] needs 0 <= c <= d")


def _normalize(items: Iterable[Interval], eps: float) -> tuple[Interval, ...]:
    """Sort, drop empties, and coalesce overlapping or touching components.

    Two components touching at a single shared endpoint merge only if at
    least one side includes the point; an exact open/open touch keeps a
    genuine puncture.  Endpoints that differ by no more than ``eps`` but
    are not identical are treated as numeric noise and merged.
    """
    live = sorted(
        (
            i
            for i in items
            if not i.is_empty
            # a sub-eps sliver that is not a closed point is numeric noise
            and (i.hi - i.lo > eps or (i.lo_closed and i.hi_closed))
        ),
        key=lambda i: i._lkey() + i._rkey(),
    )
    if not live:
        return ()
    out: list[Interval] = [live[0]]
    for nxt in live[1:]:
        cur = out[-1]
        if nxt.lo > cur.hi + eps:
            out.append(nxt)
            continue
        if (
            nxt.lo == cur.hi
            and not cur.hi_closed
            and not nxt.lo_closed
            and nxt.lo > cur.lo
            and cur.hi < nxt.hi
        ):
            # exact single-point gap such as [a:c) (c:b]
            out.append(nxt)
            continue
        lo, lof = min(cur._lkey(), nxt._lkey())
        hi, hif = max(cur._rkey(), nxt._rkey())
        out[-1] = Interval(lo, hi, lof == 0, hif == 1)
    return tuple(out)


class IntervalSet:
    """Normalized finite union of intervals."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Interval] = (), eps: float = TIME_TOL):
        self.items: tuple[Interval, ...] = _normalize(items, eps)

    # -- basic protocol -------------------------------------------------

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalSet) and self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        return "{" + ", ".join(str(i) for i in self.items) + "}"

    @property
    def is_empty(self) -> bool:
        return not self.items

    def contains(self, t: float) -> bool:
        return any(i.contains(t) for i in self.items)

    def approx_eq(self, other: "IntervalSet", tol: float = TIME_TOL) -> bool:
        return len(self.items) == len(other.items) and all(
            a.approx_eq(b, tol) for a, b in zip(self.items, other.items)
        )


def set_union(a: IntervalSet, b: IntervalSet, eps: float = TIME_TOL) -> IntervalSet:
    return IntervalSet(a.items + b.items, eps)


def set_intersect(a: IntervalSet, b: IntervalSet, eps: float = TIME_TOL) -> IntervalSet:
    out: list[Interval] = []
    i = j = 0
    ai, bi = a.items, b.items
    while i < len(ai) and j < len(bi):
        piece = ai[i].intersect(bi[j])
        if not piece.is_empty:
            out.append(piece)
        # advance whichever component ends first
        if ai[i]._rkey() <= bi[j]._rkey():
            i += 1
        else:
            j += 1
    return IntervalSet(out, eps)


def set_complement(a: IntervalSet, domain: Interval, eps: float = TIME_TOL) -> IntervalSet:
    """Complement of ``a`` within ``domain``; closedness flips at shared cuts."""
    if domain.is_empty:
        if a.is_empty:
            return IntervalSet()
        raise DomainError("complement of a non-empty set within an empty domain")
    for comp in a.items:
        if comp.lo < domain.lo - eps or comp.hi > domain.hi + eps:
            raise DomainError(f"component {comp} lies outside domain {domain}")
    out: list[Interval] = []
    cur_lo, cur_closed = domain.lo, domain.lo_closed
    for comp in a.items:
        gap = Interval(cur_lo, comp.lo, cur_closed, not comp.lo_closed)
        if not gap.is_empty:
            out.append(gap)
        cur_lo, cur_closed = comp.hi, not comp.hi_closed
    tail = Interval(cur_lo, domain.hi, cur_closed, domain.hi_closed)
    if not tail.is_empty:
        out.append(tail)
    return IntervalSet(out, eps)


def set_difference(
    a: IntervalSet, b: IntervalSet, domain: Interval, eps: float = TIME_TOL
) -> IntervalSet:
    return set_intersect(a, set_complement(b, domain, eps), eps)


def _shift(a: IntervalSet, dlo: float, dhi: float, eps: float = TIME_TOL) -> IntervalSet:
    """Map every component [l:r] to [l+dlo : r+dhi], closedness kept, and renormalize.

    With ``dlo > dhi`` components shrink, and one that becomes empty or
    a sub-eps sliver drops out; with ``dlo < dhi`` neighbours may merge.
    """
    return IntervalSet((Interval(i.lo + dlo, i.hi + dhi, i.lo_closed, i.hi_closed) for i in a.items), eps)


def minkowski_sum_set(a: IntervalSet, c: float, d: float, eps: float = TIME_TOL) -> IntervalSet:
    """a (+) [c:d]: each [l:r] becomes [l+c : r+d]."""
    _check_delay(c, d)
    return _shift(a, c, d, eps)


def minkowski_diff_set(a: IntervalSet, c: float, d: float, eps: float = TIME_TOL) -> IntervalSet:
    """a (-) [c:d]: each [l:r] becomes [l-d : r-c]."""
    _check_delay(c, d)
    return _shift(a, -d, -c, eps)
