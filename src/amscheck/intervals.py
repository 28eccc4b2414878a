"""Interval and interval-set algebra over the dense time line.

Intervals carry explicit endpoint closedness so that open boundaries
produced by strict comparisons, and the flips introduced by
complementation, survive every operation exactly.  Sets are kept
normalized: components sorted, pairwise disjoint, and coalesced when
they overlap or touch.

An `IntervalSet` stores each component as a plain key tuple
``(lo, lo_open, hi, hi_closed)`` with boolean flags.  A closed left end
reaches further left than an open one at the same value, so native
tuple order sorts components by start, then by end.  The operations work
on keys only.
`Interval` is the scalar view of one component, which the `IntervalSet`
constructor takes and `IntervalSet.items` builds on first use.

The algebra has five operations: normalization (`IntervalSet`),
`set_intersect`, `set_union`, `set_complement` (with `set_difference`
built from the last two), and one shift, `_shift`, that moves every
component ``[l:r]`` to ``[l+dlo : r+dhi]``.  The Minkowski sum and
difference with a delay window and the recurrence rule of the engine
are all calls to that shift.

All times are seconds as floats.  Arithmetic is exact, and so is the
merge: two components coalesce only where they overlap or touch at a
point one of them holds, and any positive gap stays, however narrow.
The tolerance ``eps`` (default 1e-9 s) never moves an endpoint and never
joins two components.  It drops slivers, `_live`: a component is kept
when it is wider than eps or is a closed point.  `approx_eq` compares
endpoints within it.

Every set records the eps it is normalized with.  The pieces that
`set_intersect` and `set_complement` cut from normalized operands come
out in order, kept apart by a gap or a component of an operand, and
dropping a sliver bridges nothing, so these two drop their empty and
sub-eps pieces instead of sorting and merging.  With a one-component
operand (a window, the domain or the horizon tail) and ten or more
components on the other side, `set_intersect` bisects for the components
that reach into it and cuts only the first and the last; it passes the
components in between as they are, so it does so only when both
operands are normalized with at least the eps of the call.
`IntervalSet._of` takes keys that are normalized already; `atoms` uses
it for truth runs that pass the same rule.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Iterator

from .errors import DomainError, InvalidDelayError
from .expr import Node

#: Default sliver-width and endpoint comparison tolerance, in seconds.
TIME_TOL = 1e-9

#: One component as ``(lo, lo_open, hi, hi_closed)``; see the module docstring.
Key = tuple[float, bool, float, bool]


class Interval(Node):
    """A convex subset of the real line with open/closed endpoints.

    Any constructor input describing an empty set (lo > hi, or a
    half-open point) collapses to the canonical empty interval, so
    emptiness never needs special-casing downstream.
    """

    __slots__ = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo: float, hi: float, lo_closed: bool = True, hi_closed: bool = True):
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            lo, hi, lo_closed, hi_closed = math.inf, -math.inf, False, False
        put_lo, put_hi, put_lo_closed, put_hi_closed = self._setters
        put_lo(self, lo)
        put_hi(self, hi)
        put_lo_closed(self, lo_closed)
        put_hi_closed(self, hi_closed)

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        return (self.lo, self.hi, self.lo_closed, self.hi_closed) == (
            other.lo, other.hi, other.lo_closed, other.hi_closed)

    __hash__ = Node.__hash__

    @classmethod
    def from_key(cls, k: Key) -> "Interval":
        return cls(k[0], k[2], not k[1], k[3])

    @property
    def key(self) -> Key:
        return (self.lo, not self.lo_closed, self.hi, bool(self.hi_closed))

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, t: float) -> bool:
        return _contains(self.key, t)

    def intersect(self, other: "Interval") -> "Interval":
        return Interval.from_key(_meet(self.key, other.key))

    def approx_eq(self, other: "Interval", tol: float = TIME_TOL) -> bool:
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        return _approx_eq(self.key, other.key, tol)

    def __str__(self) -> str:
        return "{}" if self.is_empty else key_text(self.key)


def key_text(k: Key) -> str:
    """A component as ``[lo:hi]``, with ``(`` or ``)`` at an open end and ``%g`` numbers."""
    return "%s%g:%g%s" % ("[("[k[1]], k[0], k[2], ")]"[k[3]])


def _contains(k: Key, t: float) -> bool:
    return (k[0] < t or (k[0] == t and not k[1])) and (t < k[2] or (t == k[2] and k[3]))


def _approx_eq(x: Key, y: Key, tol: float) -> bool:
    return abs(x[0] - y[0]) <= tol and abs(x[2] - y[2]) <= tol and x[1] == y[1] and x[3] == y[3]


def _meet(x: Key, y: Key) -> Key:
    """The intersection of two components: the later start and the earlier end (maybe empty)."""
    lo = y[:2] if y[:2] > x[:2] else x[:2]
    hi = y[2:] if y[2:] < x[2:] else x[2:]
    return lo + hi


def _check_delay(c: float, d: float) -> None:
    if not 0 <= c <= d:
        raise InvalidDelayError(f"delay window [{c}:{d}] needs 0 <= c <= d")


def _apart(a, b, eps):
    """``b`` lies more than ``eps`` beyond ``a``, elementwise on numpy arrays
    too: the width test of `_live`, which writes it out as ``b - a > eps``
    because a call per component doubles its time on small sets."""
    return b - a > eps


def _live(keys: Iterable[Key], eps: float) -> list[Key]:
    """The non-empty components of ``keys``, less the sub-eps slivers that are not closed points."""
    return [k for k in keys if (k[0] < k[2] and k[2] - k[0] > eps) or (k[0] <= k[2] and not k[1] and k[3])]


def _normalize(keys: Iterable[Key], eps: float) -> tuple[Key, ...]:
    """Sort, drop empties and slivers, and coalesce overlapping or touching components.

    Two components touching at a single shared endpoint merge only if at
    least one side includes the point; an exact open/open touch keeps a
    genuine puncture.  A gap of any positive width stays.
    """
    live = _live(keys, eps)
    if not live:
        return ()
    live.sort()
    out: list[Key] = []
    rest = iter(live)
    lo, lo_open, hi, hi_closed = next(rest)
    for k in rest:
        if k[0] > hi or (k[0] == hi and not hi_closed and k[1] and k[0] > lo and hi < k[2]):
            # a gap, or an exact single-point gap such as [a:c) (c:b]
            out.append((lo, lo_open, hi, hi_closed))
            lo, lo_open, hi, hi_closed = k
        elif k[2] > hi or (k[2] == hi and k[3] and not hi_closed):
            hi, hi_closed = k[2], k[3]
    out.append((lo, lo_open, hi, hi_closed))
    return tuple(out)


def extend_in_order(held: list[Key], keys: Iterable[Key], eps: float = TIME_TOL) -> None:
    """Add ``keys`` to the normalized components ``held``, in place.

    Keys that start no earlier than any held component, as time-ordered
    pieces do, can merge only with the last one, so only it is redone,
    and ``held`` ends as the normalization of every piece at once.  An
    earlier key redoes the components from the one before it, which all
    end before it starts, so the result is the same in any order.
    """
    keys = list(keys)
    if keys:
        i = max(bisect.bisect_left(held, min(keys)) - 1, 0)
        held[i:] = _normalize([*held[i:], *keys], eps)


class IntervalSet:
    """Normalized finite union of intervals, stored as component keys."""

    __slots__ = ("keys", "_items", "_eps")

    def __init__(self, items: Iterable[Interval] = (), eps: float = TIME_TOL):
        self.keys: tuple[Key, ...] = _normalize([i.key for i in items], eps)
        self._items: tuple[Interval, ...] | None = None
        self._eps = eps  # the tolerance the keys are normalized with

    @classmethod
    def from_keys(cls, keys: Iterable[Key], eps: float = TIME_TOL) -> "IntervalSet":
        return cls._of(_normalize(keys, eps), eps)

    @classmethod
    def _of(cls, keys: tuple[Key, ...], eps: float) -> "IntervalSet":
        """The set of ``keys`` that are normalized with ``eps`` already, taken as they are."""
        s = cls.__new__(cls)
        s.keys, s._items, s._eps = keys, None, eps
        return s

    @property
    def items(self) -> tuple[Interval, ...]:
        if self._items is None:
            self._items = tuple(map(Interval.from_key, self.keys))
        return self._items

    # -- basic protocol -------------------------------------------------

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.keys)

    def __bool__(self) -> bool:
        return bool(self.keys)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalSet) and self.keys == other.keys

    def __hash__(self) -> int:
        return hash(self.keys)

    def __repr__(self) -> str:
        return "{" + ", ".join(str(i) for i in self.items) + "}"

    @property
    def is_empty(self) -> bool:
        return not self.keys

    def contains(self, t: float) -> bool:
        return any(_contains(k, t) for k in self.keys)

    def approx_eq(self, other: "IntervalSet", tol: float = TIME_TOL) -> bool:
        return len(self.keys) == len(other.keys) and all(
            _approx_eq(x, y, tol) for x, y in zip(self.keys, other.keys)
        )


def set_union(a: IntervalSet, b: IntervalSet, eps: float = TIME_TOL) -> IntervalSet:
    return IntervalSet.from_keys(a.keys + b.keys, eps)


def _clip(ks: tuple[Key, ...], x: Key, eps: float) -> tuple[Key, ...]:
    """The normalized ``ks`` met with one component ``x``: the components that
    reach into ``x``, found by bisection, with the first and the last cut to it."""
    i = max(bisect.bisect_left(ks, x[:2]) - 1, 0)  # the last one to start before x may reach into it
    j = bisect.bisect_left(ks, x[2:], i)  # the first one to start after x ends
    if j - i < 2:
        return tuple(_live([_meet(k, x) for k in ks[i:j]], eps))
    return tuple(_live([_meet(ks[i], x)], eps)) + ks[i + 1 : j - 1] + tuple(_live([_meet(ks[j - 1], x)], eps))


def set_intersect(a: IntervalSet, b: IntervalSet, eps: float = TIME_TOL) -> IntervalSet:
    """``a`` met with ``b``; see the module docstring for why it needs no sort or merge."""
    ak, bk = a.keys, b.keys
    na, nb = len(ak), len(bk)
    # one component against many: bisecting beats the walk from about ten components
    if a._eps >= eps and b._eps >= eps and 1 in (na, nb) and max(na, nb) >= 10:
        (x,), ks = (ak, bk) if na == 1 else (bk, ak)
        return IntervalSet._of(_clip(ks, x, eps), eps)
    out: list[Key] = []
    i = j = 0
    while i < na and j < nb:
        # `_meet`, unrolled: the later start, then the earlier end, whose side advances
        lo, lo_open, hi, hi_closed = ak[i]
        y_lo, y_open, y_hi, y_closed = bk[j]
        if y_lo > lo or (y_lo == lo and y_open > lo_open):
            lo, lo_open = y_lo, y_open
        if hi < y_hi or (hi == y_hi and hi_closed <= y_closed):
            i += 1
        else:
            hi, hi_closed = y_hi, y_closed
            j += 1
        if lo < hi or (lo == hi and not lo_open and hi_closed):
            out.append((lo, lo_open, hi, hi_closed))
    return IntervalSet._of(tuple(_live(out, eps)), eps)


def set_complement(a: IntervalSet, domain: Interval, eps: float = TIME_TOL) -> IntervalSet:
    """Complement of ``a`` within ``domain``; closedness flips at shared cuts.

    See the module docstring for why it needs no sort or merge."""
    if domain.is_empty:
        if a.is_empty:
            return IntervalSet()
        raise DomainError("complement of a non-empty set within an empty domain")
    ks = a.keys
    if ks and (ks[0][0] < domain.lo - eps or ks[-1][2] > domain.hi + eps):  # the first starts first, the last ends last
        k = ks[0] if ks[0][0] < domain.lo - eps else ks[-1]
        raise DomainError(f"component {Interval.from_key(k)} lies outside domain {domain}")
    # each gap runs from the previous component's end to the next one's
    # start; a closed end of one is an open start of the other
    starts = ((0.0, False, domain.lo, not domain.lo_closed),) + ks
    ends = ks + ((domain.hi, bool(domain.hi_closed), 0.0, False),)
    out = [(p[2], p[3], n[0], n[1]) for p, n in zip(starts, ends)]
    return IntervalSet._of(tuple(_live(out, eps)), eps)


def set_difference(
    a: IntervalSet, b: IntervalSet, domain: Interval, eps: float = TIME_TOL
) -> IntervalSet:
    return set_intersect(a, set_complement(b, domain, eps), eps)


def _shift(a: IntervalSet, dlo: float, dhi: float, eps: float = TIME_TOL) -> IntervalSet:
    """Map every component [l:r] to [l+dlo : r+dhi], closedness kept, and renormalize.

    With ``dlo > dhi`` components shrink, and one that becomes empty or
    a sub-eps sliver drops out; with ``dlo < dhi`` neighbours may merge.
    """
    return IntervalSet.from_keys([(lo + dlo, lo_open, hi + dhi, hc) for lo, lo_open, hi, hc in a.keys], eps)


def minkowski_sum_set(a: IntervalSet, c: float, d: float, eps: float = TIME_TOL) -> IntervalSet:
    """a (+) [c:d]: each [l:r] becomes [l+c : r+d]."""
    _check_delay(c, d)
    return _shift(a, c, d, eps)


def minkowski_diff_set(a: IntervalSet, c: float, d: float, eps: float = TIME_TOL) -> IntervalSet:
    """a (-) [c:d]: each [l:r] becomes [l-d : r-c]."""
    _check_delay(c, d)
    return _shift(a, -d, -c, eps)
