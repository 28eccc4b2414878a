"""Arithmetic expressions over analog signal values.

An expression tree references analog signals through ``V(name)`` nodes
and evaluates against an environment mapping signal names to floats or
numpy arrays, so the same tree serves both pointwise and vectorized
evaluation.  `iter_expr` is the one walk over a tree's nodes; the other
functions here are folds with their own rule per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class SignalRef:
    """The value of an analog signal, written ``V(name)``."""

    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


Expr = Union[Const, SignalRef, BinOp, Neg]


def eval_expr(e: Expr, env):
    """Evaluate against ``env`` (signal name -> scalar or array)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, SignalRef):
        return env[e.name]
    if isinstance(e, Neg):
        return -eval_expr(e.operand, env)
    a = eval_expr(e.left, env)
    b = eval_expr(e.right, env)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if e.op == "/":
        return a / b
    raise ValueError(f"unknown operator {e.op!r}")


def iter_expr(e: Expr) -> Iterator[Expr]:
    """``e`` and every node below it, pre-order, left operand first."""
    stack = [e]
    while stack:
        n = stack.pop()
        yield n
        if isinstance(n, BinOp):
            stack += (n.right, n.left)
        elif isinstance(n, Neg):
            stack.append(n.operand)


def expr_signals(e: Expr) -> tuple[str, ...]:
    """Signal names referenced, in first-occurrence order."""
    return tuple(dict.fromkeys(n.name for n in iter_expr(e) if isinstance(n, SignalRef)))


def is_affine(e: Expr) -> bool:
    """True when the expression is affine in the signal values.

    Between two trace samples every signal is linear in time, so an
    affine expression is linear in time there and its zero crossing can
    be solved exactly instead of bisected.
    """
    if isinstance(e, (Const, SignalRef)):
        return True
    if isinstance(e, Neg):
        return is_affine(e.operand)
    la, ra = is_affine(e.left), is_affine(e.right)
    if e.op in ("+", "-"):
        return la and ra
    if e.op == "*":
        return la and ra and (not expr_signals(e.left) or not expr_signals(e.right))
    if e.op == "/":
        return la and not expr_signals(e.right)
    return False


def format_number(v: float) -> str:
    """Source literal for ``v``: ``:g`` when that reads back exactly, else
    ``repr``; exponents lose their leading zero (1e-9, not 1e-09)."""
    s = f"{v:g}"
    if float(s) != v:
        s = repr(float(v))
    return s.replace("e-0", "e-").replace("e+0", "e+")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def render_expr(e: Expr, strip_v: bool = False, _prec: int = 0) -> str:
    """Source-form rendering with minimal parentheses.

    ``strip_v`` drops the V() wrapper around signal references, the form
    used inside generated monitor text.
    """
    if isinstance(e, Const):
        s = format_number(e.value)
        return s if e.value >= 0 else f"({s})"
    if isinstance(e, SignalRef):
        return e.name if strip_v else f"V({e.name})"
    if isinstance(e, Neg):
        inner = render_expr(e.operand, strip_v, 3)
        return f"-{inner}"
    p = _PREC[e.op]
    left = render_expr(e.left, strip_v, p)
    # parenthesize any right operand at equal precedence so tree shape
    # survives a reparse (operators associate left)
    right = render_expr(e.right, strip_v, p + 1)
    s = f"{left}{e.op}{right}"
    return f"({s})" if p < _prec else s
