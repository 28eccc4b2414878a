"""Property AST: predicates, events, Boolean and sequence expressions.

Nodes are immutable `expr.Node` values, so structurally identical atoms
compare and hash equal; `collect_atoms` relies on that for deduplication.
A node's source position ``pos``, ``(line, col)`` or None, takes no
part in comparison.
Relational sugar is resolved by the parser: every predicate arrives
here as ``expr > 0`` or ``expr >= 0``, possibly under a negation.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Union

from .errors import BoundError, RecurrenceError, UnsupportedFeatureError
from .expr import BinOp, Neg, Node, format_number, render_expr


class _TreeNode(Node):
    """A node that keeps its hash after first use, as memo lookups are hot;
    pickles leave it out, since str hashes differ between processes."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", Node.__hash__(self))
            return self._hash


# ---------------------------------------------------------------------------
# Boolean layer


class Porv(_TreeNode):
    """Predicate over real variables: expr > 0 or expr >= 0."""

    __slots__ = ("expr", "rel")  # rel: '>' or '>='


class BoolSignal(_TreeNode):
    """A digital signal used as a proposition (true when it holds 1)."""

    __slots__ = ("name",)


class EventAtom(_TreeNode):
    """Edge of a predicate's truth: pos (@+), neg (@-) or any (@)."""

    __slots__ = ("pred", "edge")  # pred: Porv or BoolSignal; edge: 'pos' | 'neg' | 'any'


class Not(_TreeNode):
    __slots__ = ("operand",)


class And(_TreeNode):
    """Conjunction of predicates, optionally including one event."""

    __slots__ = ("terms",)  # a tuple


class Or(_TreeNode):
    __slots__ = ("left", "right")


BExpr = Union[Porv, BoolSignal, EventAtom, Not, And, Or]


# ---------------------------------------------------------------------------
# Sequence layer


class SeqBool(_TreeNode):
    """A Boolean expression used as an instantaneous sequence."""

    __slots__ = ("bexpr",)


class Repeat(_TreeNode):
    """{seq}[*dur]: seq holds continuously for the trailing ``dur`` seconds."""

    __slots__ = ("seq", "dur", "pos")


class RepeatUntil(_TreeNode):
    """{seq}[*lo:hi] cont: recurrence of ``seq`` handing over to ``cont``."""

    __slots__ = ("seq", "lo", "hi", "cont", "pos")


class Delay(_TreeNode):
    """left ##[lo:hi] right: right's match ends lo..hi after left's."""

    __slots__ = ("left", "lo", "hi", "right", "pos")


SeqExpr = Union[SeqBool, Repeat, RepeatUntil, Delay]


class Property(_TreeNode):
    """antecedent |-> consequent, with an optional leading delay window ``(lo, hi)``;
    the ``name`` takes no part in comparison."""

    __slots__ = ("antecedent", "consequent", "delay", "name")
    _defaults = {"delay": None, "name": ""}
    _uncompared = ("name",)


Atom = Union[Porv, BoolSignal, EventAtom]
ATOMS = (Porv, BoolSignal, EventAtom)
SEQS = (SeqBool, Repeat, RepeatUntil, Delay)


# ---------------------------------------------------------------------------
# Derived quantities


def depth(s: SeqExpr) -> float:
    """Maximum temporal extent, in seconds, of any match of ``s``."""
    if isinstance(s, SeqBool):
        return 0.0
    if isinstance(s, Repeat):
        return depth(s.seq) + s.dur
    if isinstance(s, (RepeatUntil, Delay)):
        first, second = children(s)
        return depth(first) + depth(second) + s.hi
    raise TypeError(f"not a sequence expression: {s!r}")


def horizon(p: Property) -> float:
    """How far past an antecedent match the verdict can depend on."""
    extra = p.delay[1] if p.delay else 0.0
    return extra + depth(p.consequent)


MAX_OFFSETS = 256  # `offsets` gives up past this many shifts


class _Capped(Exception):
    pass


def _sums(shifts: set[float], adds: tuple[float, ...], more: frozenset[float] = frozenset()) -> set[float]:
    """``shifts`` plus each of ``adds``, with ``more``; raises `_Capped` past `MAX_OFFSETS`."""
    out = {o + d for o in shifts for d in adds} | more
    if len(out) > MAX_OFFSETS:
        raise _Capped
    return out


def _end_shifts(s: SeqExpr) -> set[float]:
    """The shifts on the way to an endpoint of ``s``'s end matches: the forward images of `engine`'s `end`."""
    if isinstance(s, SeqBool):
        return {0.0}
    first = _end_shifts(children(s)[0])
    if isinstance(s, Repeat):
        return _sums(first, (0.0, s.dur))
    if isinstance(s, Delay):
        return _sums(first, (s.lo, s.hi), _end_shifts(s.right))
    return _sums(first, (0.0, s.lo), _end_shifts(s.cont))


def _begin_shifts(s: SeqExpr, restrict: set[float]) -> set[float]:
    """The shifts on the way to an endpoint of ``s``'s begin matches within a set whose
    endpoints carry the shifts ``restrict``: the backward images of `engine`'s `begin`."""
    if isinstance(s, SeqBool):
        return _sums(restrict, (0.0,), {0.0})
    ends = restrict | _end_shifts(s)
    if isinstance(s, Repeat):
        return _begin_shifts(s.seq, _sums(ends, (-s.dur,)))
    first = children(s)[0]
    return _begin_shifts(first, _sums(ends, (-s.lo, -s.hi), _end_shifts(first)))


def offsets(p: Property) -> tuple[float, ...] | None:
    """The shifts, ascending, that the engine applies to an atom run boundary or a domain edge
    before it becomes an endpoint of one of ``p``'s verdict sets, or None past `MAX_OFFSETS`.

    An end match adds the hold (`Repeat`), both delay bounds (`Delay`) or
    the least hold (`RepeatUntil`), a begin match subtracts them, and so
    does the leading delay.  Built by the engine's own set rules, the set
    may hold a shift that no endpoint takes, never miss one.  Every shift
    lies in ``[-horizon(p), reach(p)]``.
    """
    lo, hi = p.delay or (0.0, 0.0)
    try:
        return tuple(sorted(_sums(_begin_shifts(p.consequent, {0.0}), (-lo, -hi), _end_shifts(p.antecedent))))
    except _Capped:
        return None


def reach(p: Property) -> float:
    """A bound on the largest shift in `offsets`, without building them.  It passes the
    antecedent's `depth` where an inner ``##`` aligns its right operand's end: a run of ``b``
    starting at t moves the begin matches of ``{a} ##[0:0] {b}[*1]`` to t + 1."""
    return max(depth(p.antecedent), depth(p.consequent) - (p.delay[0] if p.delay else 0.0))


def children(node) -> tuple:
    """Direct sub-nodes in source order; atoms, events included, are leaves."""
    if isinstance(node, ATOMS):
        return ()
    if isinstance(node, Not):
        return (node.operand,)
    if isinstance(node, And):
        return node.terms
    if isinstance(node, (Or, Delay)):
        return (node.left, node.right)
    if isinstance(node, SeqBool):
        return (node.bexpr,)
    if isinstance(node, Repeat):
        return (node.seq,)
    if isinstance(node, RepeatUntil):
        return (node.seq, node.cont)
    if isinstance(node, Property):
        return (node.antecedent, node.consequent)
    raise TypeError(f"not a property node: {node!r}")


def iter_nodes(node) -> Iterator:
    """``node`` and every node below it, pre-order, in source order."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(children(n)))


def collect_atoms(p: Property) -> tuple[Atom, ...]:
    """Deduplicated leaf atoms in source order, antecedent first."""
    return tuple(dict.fromkeys(n for n in iter_nodes(p) if isinstance(n, ATOMS)))


# ---------------------------------------------------------------------------
# Validation


def _fmt_pos(pos: Optional[tuple[int, int]]) -> str:
    return f" (at line {pos[0]}, col {pos[1]})" if pos else ""


def _check_node(n) -> None:
    if isinstance(n, Property):
        if n.delay is not None:
            _check_window(*n.delay)
    elif isinstance(n, And):
        if sum(isinstance(t, EventAtom) for t in n.terms) > 1:
            raise UnsupportedFeatureError("at most one event per conjunct")
    elif isinstance(n, Repeat):
        if n.dur <= 0:
            raise RecurrenceError(f"recurrence [*{n.dur:g}] needs a positive duration{_fmt_pos(n.pos)}")
        if not math.isfinite(n.dur):
            raise BoundError(f"recurrence [*{n.dur:g}] needs a finite duration{_fmt_pos(n.pos)}")
    elif isinstance(n, (RepeatUntil, Delay)):
        _check_window(n.lo, n.hi, n.pos)


def _check_window(a: float, b: float, pos: Optional[tuple[int, int]] = None) -> None:
    if a < 0 or b < a:
        raise BoundError(f"bounds [{a:g}:{b:g}] need 0 <= a <= b{_fmt_pos(pos)}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise BoundError(f"bounds [{a:g}:{b:g}] need finite values{_fmt_pos(pos)}")


MAX_NESTING = 100  # levels a property may nest: the walks over it recurse once or more per level

_OPERATORS = (BinOp, Neg)


def validate(p: Property) -> Property:
    """Check the nesting and the structural rules in one walk, in source order, then that the
    antecedent's `depth` and the `horizon` are finite; returns ``p`` unchanged on success.

    Each node is one level below its parent.  So is each arithmetic operator of
    a predicate below the one it feeds, while the top operator shares the
    predicate's level, as ``V(x) > 0.5`` stands for ``V(x) - 0.5 > 0``.
    """
    stack = [(p, 0)]
    while stack:
        n, level = stack.pop()
        if level > MAX_NESTING:
            raise BoundError(f"assertion nests deeper than {MAX_NESTING} levels")
        _check_node(n)
        if isinstance(n, _OPERATORS):
            below = (n.left, n.right) if isinstance(n, BinOp) else (n.operand,)
            stack.extend((e, level + 1) for e in below if isinstance(e, _OPERATORS))
        elif isinstance(n, ATOMS):
            pred = n.pred if isinstance(n, EventAtom) else n
            if isinstance(pred, Porv) and isinstance(pred.expr, _OPERATORS):
                stack.append((pred.expr, level))
        else:
            stack.extend((c, level + 1) for c in reversed(children(n)))
    reach, span = depth(p.antecedent), horizon(p)
    if not (math.isfinite(reach) and math.isfinite(span)):
        raise BoundError(f"antecedent depth {reach:g} and horizon {span:g} must be finite")
    return p


# ---------------------------------------------------------------------------
# Pretty printing (canonical source form; reparses to an equal AST)


def _pretty_bexpr(b: BExpr, top: bool = False) -> str:
    if isinstance(b, Porv):
        return f"{render_expr(b.expr)} {b.rel} 0"
    if isinstance(b, BoolSignal):
        return b.name
    if isinstance(b, EventAtom):
        mark = {"pos": "+", "neg": "-", "any": ""}[b.edge]
        return f"@{mark}{{{_pretty_bexpr(b.pred)}}}"
    if isinstance(b, Not):
        inner = b.operand
        if isinstance(inner, Porv):
            neg_rel = "<=" if inner.rel == ">" else "<"
            return f"{render_expr(inner.expr)} {neg_rel} 0"
        if isinstance(inner, BoolSignal):
            return f"{inner.name} == 0"
        return f"~{{{_pretty_bexpr(inner, top=True)}}}"
    if isinstance(b, And):
        return " && ".join(_pretty_bexpr(t) for t in b.terms)
    if isinstance(b, Or):
        s = f"{_pretty_bexpr(b.left, top)} OR {_pretty_bexpr(b.right, top)}"
        return s if top else f"({s})"
    raise TypeError(f"not a Boolean expression: {b!r}")


Porv.__str__ = BoolSignal.__str__ = EventAtom.__str__ = _pretty_bexpr  # an atom prints as its source


def _braced_seq(s: SeqExpr) -> str:
    """Render ``s`` wrapped in exactly one pair of braces."""
    if isinstance(s, SeqBool):
        out = _pretty_seq(s)
        return out if out.startswith(("{", "~")) else f"{{{out}}}"
    return f"{{{_pretty_seq(s)}}}"


def _window(lo: float, hi: float) -> str:
    return f"{format_number(lo)}:{format_number(hi)}"


def _pretty_seq(s: SeqExpr) -> str:
    if isinstance(s, SeqBool):
        b = s.bexpr
        if isinstance(b, EventAtom):
            return _pretty_bexpr(b)
        if isinstance(b, Not) and not isinstance(b.operand, (Porv, BoolSignal)):
            return f"~{{{_pretty_bexpr(b.operand, top=True)}}}"
        return f"{{{_pretty_bexpr(b, top=True)}}}"
    if isinstance(s, Repeat):
        return f"{_braced_seq(s.seq)}[*{format_number(s.dur)}]"
    if isinstance(s, RepeatUntil):
        # a trailing delay chain in the continuation must be braced, or a
        # reparse would bind it outside the recurrence
        cont = _braced_seq(s.cont) if isinstance(s.cont, Delay) else _pretty_seq(s.cont)
        return f"{_braced_seq(s.seq)}[*{_window(s.lo, s.hi)}] {cont}"
    if isinstance(s, Delay):
        right = _braced_seq(s.right) if isinstance(s.right, Delay) else _pretty_seq(s.right)
        return f"{_pretty_seq(s.left)} ##[{_window(s.lo, s.hi)}] {right}"
    raise TypeError(f"not a sequence expression: {s!r}")


def pretty(p: Property) -> str:
    delay = f"##[{_window(*p.delay)}] " if p.delay else ""
    return f"{_pretty_seq(p.antecedent)} |-> {delay}{_pretty_seq(p.consequent)};"
