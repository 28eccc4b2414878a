"""Match computation and verdict partition for sequence properties over dense time.

`_Evaluator` combines the truth sets of an `atoms.AtomTable`: the
Boolean layer (complement within the domain, intersection, union), the
sequence operators and, in `classify`, the verdicts.  It works entirely
on interval sets: each combinator rule is applied per convex component
and the results are unioned, which is exact for intersection, union and
the window shifts, and is applied per component for recurrence (a
continuous stretch cannot span a gap in the operand's truth set).

End matches look backward: whether a sequence ends its match at t
depends only on the trace up to t.  Begin matches are computed with an
explicit restriction set giving the admissible end instants, threaded
through the recursion.

`classify` is the one place that partitions time into verdicts: match
(the antecedent ends and the consequent follows), vacuous (no
antecedent match), fail, and undetermined (a failure within the
horizon of the domain end).  The consequent is evaluated only where
the antecedent matches in the window.  Offline checking classifies the
whole trace domain; a streaming session classifies the window it is
about to decide, over its retained sub-domain.
"""

from __future__ import annotations

from . import ast
from .atoms import AtomTable
from .expr import Node
from .intervals import (
    Interval,
    IntervalSet,
    _shift,
    minkowski_diff_set,
    minkowski_sum_set,
    set_complement,
    set_difference,
    set_intersect,
    set_union,
)


class _Evaluator:
    def __init__(self, tab: AtomTable):
        self.tab = tab
        self.eps = tab.eps
        self.domain = tab.domain
        self.dom_set = IntervalSet([tab.domain], tab.eps)
        self._em_memo: dict[ast.SeqExpr, IntervalSet] = {}
        self._bexpr_memo: dict[ast.BExpr, IntervalSet] = {}

    def bexpr(self, b: ast.BExpr) -> IntervalSet:
        got = self._bexpr_memo.get(b)
        if got is None:
            got = self._bexpr_memo[b] = self._bexpr(b)
        return got

    def _bexpr(self, b: ast.BExpr) -> IntervalSet:
        if isinstance(b, (ast.Porv, ast.BoolSignal, ast.EventAtom)):
            return self.tab.get(b)
        if isinstance(b, ast.Not):
            return set_complement(self.bexpr(b.operand), self.domain, self.eps)
        if isinstance(b, ast.And):
            out = self.bexpr(b.terms[0])
            for t in b.terms[1:]:
                out = set_intersect(out, self.bexpr(t), self.eps)
            return out
        if isinstance(b, ast.Or):
            return set_union(self.bexpr(b.left), self.bexpr(b.right), self.eps)
        raise TypeError(f"no truth semantics for {type(b).__name__}")

    def end(self, s: ast.SeqExpr) -> IntervalSet:
        got = self._em_memo.get(s)
        if got is None:
            got = self._em_memo[s] = self._end(s)
        return got

    def _end(self, s: ast.SeqExpr) -> IntervalSet:
        if isinstance(s, ast.SeqBool):
            return self.bexpr(s.bexpr)
        if isinstance(s, ast.Repeat):
            # held for dur: [l:r] -> [l+dur : r], which only shrinks, so it stays in the domain
            return _shift(self.end(s.seq), s.dur, 0.0, self.eps)
        if isinstance(s, ast.Delay):
            shifted = minkowski_sum_set(self.end(s.left), s.lo, s.hi, self.eps)
            return set_intersect(shifted, self.end(s.right), self.eps)
        if isinstance(s, ast.RepeatUntil):
            held = _shift(self.end(s.seq), s.lo, 0.0, self.eps)
            return set_intersect(held, self.end(s.cont), self.eps)
        raise TypeError(f"not a sequence expression: {type(s).__name__}")

    def begin(self, s: ast.SeqExpr, restrict: IntervalSet) -> IntervalSet:
        if restrict.is_empty:
            return restrict
        if isinstance(s, ast.SeqBool):
            return set_intersect(self.bexpr(s.bexpr), restrict, self.eps)
        ends = set_intersect(restrict, self.end(s), self.eps)
        if isinstance(s, ast.Repeat):
            pulled = minkowski_diff_set(ends, s.dur, s.dur, self.eps)
            return self.begin(s.seq, pulled)
        if isinstance(s, (ast.Delay, ast.RepeatUntil)):
            first = s.left if isinstance(s, ast.Delay) else s.seq
            pulled = minkowski_diff_set(ends, s.lo, s.hi, self.eps)
            return self.begin(first, set_intersect(pulled, self.end(first), self.eps))
        raise TypeError(f"not a sequence expression: {type(s).__name__}")


class MatchReport(Node):
    """Verdict partition of the trace domain, or of one window of it, for one assertion:
    four `IntervalSet`s over the `Interval` ``domain``."""

    __slots__ = ("name", "domain", "nonvacuous", "vacuous", "fail", "undetermined", "horizon")

    def status_at(self, t: float) -> str:
        if self.nonvacuous.contains(t):
            return "match"
        if self.vacuous.contains(t):
            return "vacuous"
        if self.undetermined.contains(t):
            return "undetermined"
        if self.fail.contains(t):
            return "fail"
        raise ValueError(f"{t} outside trace domain")

    @property
    def ok(self) -> bool:
        return self.fail.is_empty


def classify(ev: _Evaluator, p: ast.Property, name: str, within: Interval) -> MatchReport:
    """Partition ``within``, a sub-interval of the evaluator's domain, into verdicts.

    With ``em`` the antecedent's end matches in ``within`` and ``bm`` the
    instants from which the consequent begins a match within the delay
    window, ``em`` and ``bm`` meet in the matches, the rest of ``within``
    is vacuous, and ``em`` fails where it meets the complement in
    ``within`` of ``bm`` clipped to ``within``.  An instant is undetermined
    when it lies within the horizon of the domain end: more trace could
    still turn its failure into a match.
    The consequent is evaluated only if the antecedent matches in ``within``.
    """
    eps, domain = ev.eps, ev.domain
    win = IntervalSet([within], eps)
    em = ev.end(p.antecedent)
    if within != domain:
        em = set_intersect(em, win, eps)
    und = IntervalSet((), eps)
    hor = ast.horizon(p)
    if em.is_empty:
        # no obligation in the window: all of it is vacuous, whatever the consequent does
        return MatchReport(name, within, und, win, und, und, hor)
    vac = set_complement(em, within, eps)
    bm = ev.begin(p.consequent, ev.dom_set)
    if p.delay is not None:
        lo, hi = p.delay
        bm = minkowski_diff_set(bm, lo, hi, eps)
    matched = set_intersect(em, bm, eps)
    fail = set_intersect(em, set_complement(set_intersect(bm, win, eps), within, eps), eps)
    tail = Interval(domain.hi - hor, domain.hi, False, True).intersect(within)
    if not tail.is_empty:
        tail_set = IntervalSet([tail], eps)
        und = set_intersect(fail, tail_set, eps)
        fail = set_difference(fail, tail_set, within, eps)
    return MatchReport(name, within, matched, vac, fail, und, hor)


def assertion_match(p: ast.Property, tab: AtomTable, name: str | None = None) -> MatchReport:
    """Classify every instant of the domain for one property."""
    name = name if name is not None else (p.name or "assertion")
    return classify(_Evaluator(tab), p, name, tab.domain)
