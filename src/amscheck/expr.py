"""Arithmetic expressions over analog signal values.

An expression tree references analog signals through ``V(name)`` nodes
and evaluates against an environment mapping signal names to floats or
numpy arrays, so the same tree serves both pointwise and vectorized
evaluation.  `compile_expr`, the one evaluator, turns a tree into nested
closures once, so no tree is walked per sample.  `iter_expr` is the one
walk over a tree's nodes; the other functions are folds over a tree.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator, Union


class Node:
    """An immutable value: the base of the syntax-tree nodes and the checker's records.

    A subclass lists its fields in ``__slots__``; they are given by position
    or name, and ``_defaults`` fills those left out.  Two instances are
    equal when they are of one class and their fields outside
    ``_uncompared`` are equal, and the hash is that of the tuple of those
    fields.  A pickle holds the fields alone.
    """

    __slots__ = ()
    _defaults = {"pos": None}
    _uncompared = ("pos",)

    def __init_subclass__(cls) -> None:
        cls._compared = tuple(f for f in cls.__slots__ if f not in cls._uncompared)
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls.__slots__)

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            rest = names[len(args):]
            if len(args) > len(names) or not kwargs.keys() <= set(rest):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
            try:
                args += tuple(kwargs[f] if f in kwargs else self._defaults[f] for f in rest)
            except KeyError as e:
                raise TypeError(f"{type(self).__name__} needs its field {e.args[0]}") from None
        for put, v in zip(self._setters, args):
            put(self, v)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple([getattr(self, f) for f in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f != "pos")
        return f"{type(self).__qualname__}({fields})"


class Const(Node):
    __slots__ = ("value",)


class SignalRef(Node):
    """The value of an analog signal, written ``V(name)``."""

    __slots__ = ("name",)


class BinOp(Node):
    __slots__ = ("op", "left", "right")  # op: one of + - * /


class Neg(Node):
    __slots__ = ("operand",)


Expr = Union[Const, SignalRef, BinOp, Neg]


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def compile_expr(e: Expr) -> Callable:
    """``e`` as one function of an environment (signal name -> scalar or array)."""
    if isinstance(e, Const):
        v = e.value
        return lambda env: v
    if isinstance(e, SignalRef):
        return operator.itemgetter(e.name)
    if isinstance(e, Neg):
        f = compile_expr(e.operand)
        return lambda env: -f(env)
    f, g, op = compile_expr(e.left), compile_expr(e.right), _OPS[e.op]
    return lambda env: op(f(env), g(env))


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
