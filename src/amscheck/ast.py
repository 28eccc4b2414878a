"""Property AST: predicates, events, Boolean and sequence expressions.

Nodes are frozen dataclasses so structurally identical atoms compare
and hash equal; `collect_atoms` relies on that for deduplication.
Relational sugar is resolved by the parser: every predicate arrives
here as ``expr > 0`` or ``expr >= 0``, possibly under a negation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import BoundError, RecurrenceError, UnsupportedFeatureError
from .expr import Expr, expr_signals, render_expr


def _node(cls):
    """A frozen dataclass that keeps its structural hash after first use, as memo
    lookups are hot; pickles leave it out, since str hashes differ between processes."""
    cls = dataclass(frozen=True)(cls)
    structural = cls.__hash__

    def __hash__(self) -> int:
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = structural(self)
        return self.__dict__["_hash"]

    cls.__hash__ = __hash__
    cls.__getstate__ = lambda self: {k: v for k, v in self.__dict__.items() if k != "_hash"}
    return cls


# ---------------------------------------------------------------------------
# Boolean layer


@_node
class Porv:
    """Predicate over real variables: expr > 0 or expr >= 0."""

    expr: Expr
    rel: str  # '>' or '>='

    def __str__(self) -> str:
        return f"{render_expr(self.expr)} {self.rel} 0"


@_node
class BoolSignal:
    """A digital signal used as a proposition (true when it holds 1)."""

    name: str

    def __str__(self) -> str:
        return self.name


@_node
class EventAtom:
    """Edge of a predicate's truth: pos (@+), neg (@-) or any (@)."""

    pred: Union[Porv, BoolSignal]
    edge: str  # 'pos' | 'neg' | 'any'

    def __str__(self) -> str:
        mark = {"pos": "+", "neg": "-", "any": ""}[self.edge]
        return f"@{mark}{{{self.pred}}}"


@_node
class Not:
    operand: "BExpr"


@_node
class And:
    """Conjunction of predicates, optionally including one event."""

    terms: tuple["BExpr", ...]


@_node
class Or:
    left: "BExpr"
    right: "BExpr"


BExpr = Union[Porv, BoolSignal, EventAtom, Not, And, Or]


# ---------------------------------------------------------------------------
# Sequence layer


@_node
class SeqBool:
    """A Boolean expression used as an instantaneous sequence."""

    bexpr: BExpr


@_node
class Repeat:
    """{seq}[*dur]: seq holds continuously for the trailing ``dur`` seconds."""

    seq: "SeqExpr"
    dur: float
    pos: Optional[tuple[int, int]] = field(default=None, compare=False, repr=False)


@_node
class RepeatUntil:
    """{seq}[*lo:hi] cont: recurrence of ``seq`` handing over to ``cont``."""

    seq: "SeqExpr"
    lo: float
    hi: float
    cont: "SeqExpr"
    pos: Optional[tuple[int, int]] = field(default=None, compare=False, repr=False)


@_node
class Delay:
    """left ##[lo:hi] right: right's match ends lo..hi after left's."""

    left: "SeqExpr"
    lo: float
    hi: float
    right: "SeqExpr"
    pos: Optional[tuple[int, int]] = field(default=None, compare=False, repr=False)


SeqExpr = Union[SeqBool, Repeat, RepeatUntil, Delay]


@_node
class Property:
    """antecedent |-> consequent, with an optional leading delay window."""

    antecedent: SeqExpr
    consequent: SeqExpr
    delay: Optional[tuple[float, float]] = None
    name: str = field(default="", compare=False)


Atom = Union[Porv, BoolSignal, EventAtom]


# ---------------------------------------------------------------------------
# Derived quantities


def depth(s: SeqExpr) -> float:
    """Maximum temporal extent, in seconds, of any match of ``s``."""
    if isinstance(s, SeqBool):
        return 0.0
    if isinstance(s, Repeat):
        return depth(s.seq) + s.dur
    if isinstance(s, (RepeatUntil, Delay)):
        first = s.seq if isinstance(s, RepeatUntil) else s.left
        second = s.cont if isinstance(s, RepeatUntil) else s.right
        return depth(first) + depth(second) + s.hi
    raise TypeError(f"not a sequence expression: {s!r}")


def horizon(p: Property) -> float:
    """How far past an antecedent match the verdict can depend on."""
    extra = p.delay[1] if p.delay else 0.0
    return extra + depth(p.consequent)


def _walk_bexpr_atoms(b: BExpr, out: list[Atom]) -> None:
    if isinstance(b, (Porv, BoolSignal, EventAtom)):
        if b not in out:
            out.append(b)
    elif isinstance(b, Not):
        _walk_bexpr_atoms(b.operand, out)
    elif isinstance(b, And):
        for t in b.terms:
            _walk_bexpr_atoms(t, out)
    elif isinstance(b, Or):
        _walk_bexpr_atoms(b.left, out)
        _walk_bexpr_atoms(b.right, out)


def _walk_seq_atoms(s: SeqExpr, out: list[Atom]) -> None:
    if isinstance(s, SeqBool):
        _walk_bexpr_atoms(s.bexpr, out)
    elif isinstance(s, Repeat):
        _walk_seq_atoms(s.seq, out)
    elif isinstance(s, RepeatUntil):
        _walk_seq_atoms(s.seq, out)
        _walk_seq_atoms(s.cont, out)
    elif isinstance(s, Delay):
        _walk_seq_atoms(s.left, out)
        _walk_seq_atoms(s.right, out)


def collect_atoms(p: Property) -> tuple[Atom, ...]:
    """Deduplicated leaf atoms in source order, antecedent first."""
    out: list[Atom] = []
    _walk_seq_atoms(p.antecedent, out)
    _walk_seq_atoms(p.consequent, out)
    return tuple(out)


def atom_signals(atom: Atom) -> tuple[str, ...]:
    if isinstance(atom, Porv):
        return expr_signals(atom.expr)
    if isinstance(atom, BoolSignal):
        return (atom.name,)
    return atom_signals(atom.pred)


def property_signals(p: Property) -> tuple[str, ...]:
    out: list[str] = []
    for atom in collect_atoms(p):
        for name in atom_signals(atom):
            if name not in out:
                out.append(name)
    return tuple(out)


# ---------------------------------------------------------------------------
# Validation


def _validate_bexpr(b: BExpr) -> None:
    if isinstance(b, And):
        events = [t for t in b.terms if isinstance(t, EventAtom)]
        if len(events) > 1:
            raise UnsupportedFeatureError("at most one event per conjunct")
        for t in b.terms:
            _validate_bexpr(t)
    elif isinstance(b, Or):
        _validate_bexpr(b.left)
        _validate_bexpr(b.right)
    elif isinstance(b, Not):
        _validate_bexpr(b.operand)


def _fmt_pos(pos: Optional[tuple[int, int]]) -> str:
    return f" (at line {pos[0]}, col {pos[1]})" if pos else ""


def _validate_seq(s: SeqExpr) -> None:
    if isinstance(s, SeqBool):
        _validate_bexpr(s.bexpr)
    elif isinstance(s, Repeat):
        if s.dur <= 0:
            raise RecurrenceError(
                f"recurrence [*{s.dur:g}] needs a positive duration{_fmt_pos(s.pos)}"
            )
        _validate_seq(s.seq)
    elif isinstance(s, (RepeatUntil, Delay)):
        if s.lo < 0 or s.hi < s.lo:
            raise BoundError(f"bounds [{s.lo:g}:{s.hi:g}] need 0 <= a <= b{_fmt_pos(s.pos)}")
        if isinstance(s, RepeatUntil):
            _validate_seq(s.seq)
            _validate_seq(s.cont)
        else:
            _validate_seq(s.left)
            _validate_seq(s.right)


def validate(p: Property) -> Property:
    """Check structural rules; returns ``p`` unchanged on success."""
    _validate_seq(p.antecedent)
    if p.delay is not None:
        a, b = p.delay
        if a < 0 or b < a:
            raise BoundError(f"bounds [{a:g}:{b:g}] need 0 <= a <= b")
    _validate_seq(p.consequent)
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


def _braced_seq(s: SeqExpr) -> str:
    """Render ``s`` wrapped in exactly one pair of braces."""
    if isinstance(s, SeqBool):
        out = _pretty_seq(s)
        return out if out.startswith(("{", "~")) else f"{{{out}}}"
    return f"{{{_pretty_seq(s)}}}"


def _pretty_seq(s: SeqExpr) -> str:
    if isinstance(s, SeqBool):
        b = s.bexpr
        if isinstance(b, EventAtom):
            return _pretty_bexpr(b)
        if isinstance(b, Not) and not isinstance(b.operand, (Porv, BoolSignal)):
            return f"~{{{_pretty_bexpr(b.operand, top=True)}}}"
        return f"{{{_pretty_bexpr(b, top=True)}}}"
    if isinstance(s, Repeat):
        return f"{_braced_seq(s.seq)}[*{s.dur:g}]"
    if isinstance(s, RepeatUntil):
        # a trailing delay chain in the continuation must be braced, or a
        # reparse would bind it outside the recurrence
        cont = _braced_seq(s.cont) if isinstance(s.cont, Delay) else _pretty_seq(s.cont)
        return f"{_braced_seq(s.seq)}[*{s.lo:g}:{s.hi:g}] {cont}"
    if isinstance(s, Delay):
        right = _braced_seq(s.right) if isinstance(s.right, Delay) else _pretty_seq(s.right)
        return f"{_pretty_seq(s.left)} ##[{s.lo:g}:{s.hi:g}] {right}"
    raise TypeError(f"not a sequence expression: {s!r}")


def pretty(p: Property) -> str:
    delay = f"##[{p.delay[0]:g}:{p.delay[1]:g}] " if p.delay else ""
    return f"{_pretty_seq(p.antecedent)} |-> {delay}{_pretty_seq(p.consequent)};"
