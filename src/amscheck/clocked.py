"""Cycle-based approximation of an edge-to-edge delay check.

Samples predicates at a fixed clock period and checks that every rise
of the trigger predicate is answered by a rise of the response
predicate within a window counted in whole cycles.  This is the
conventional sampled-logic view of a delay requirement; it sees only
clock ticks, so a violation that lives between ticks can pass here
while the dense-time checker reports it.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from . import ast
from .errors import AmscheckError
from .expr import eval_expr, expr_signals
from .trace import Trace


def _pointwise(b: ast.BExpr, env: dict[str, np.ndarray]) -> np.ndarray:
    """Truth of ``b`` at every tick, from the sampled signal arrays."""
    if isinstance(b, ast.Porv):
        g = np.asarray(eval_expr(b.expr, env))
        return g >= 0 if b.rel == ">=" else g > 0
    if isinstance(b, ast.BoolSignal):
        return env[b.name] == 1.0
    if isinstance(b, ast.Not):
        return ~_pointwise(b.operand, env)
    if isinstance(b, ast.And):
        return functools.reduce(operator.and_, (_pointwise(t, env) for t in b.terms))
    if isinstance(b, ast.Or):
        return _pointwise(b.left, env) | _pointwise(b.right, env)
    raise AmscheckError(f"clocked sampling cannot evaluate {type(b).__name__}")


def _pred_signals(b: ast.BExpr) -> set[str]:
    out: set[str] = set()
    for n in ast.iter_nodes(b):
        # reject an event before sampling its predicate's signals
        if isinstance(n, ast.EventAtom):
            raise AmscheckError("clocked sampling cannot evaluate EventAtom")
        if isinstance(n, ast.Porv):
            out.update(expr_signals(n.expr))
        elif isinstance(n, ast.BoolSignal):
            out.add(n.name)
    return out


def _sample(trace: Trace, name: str, t: np.ndarray) -> np.ndarray:
    """`Trace.value_at` at every instant of ``t``, computed the same way, so bit for bit equal."""
    ts, col = trace.times(), trace.values(name)
    i = ts.searchsorted(t, side="right") - 1
    if trace.kinds[name] == "boolean":
        return col[i]
    j = np.minimum(i + 1, len(ts) - 1)
    inner = (j > i) & (t != ts[i])
    return np.where(inner, col[i] + (col[j] - col[i]) * (t - ts[i]) / np.where(inner, ts[j] - ts[i], 1.0), col[i])


def sample_on_clock(trace: Trace, b: ast.BExpr, period: float) -> np.ndarray:
    """Truth of the predicate at ticks k*period from the trace start."""
    if period <= 0:
        raise AmscheckError("clock period must be positive")
    lo, hi = trace.domain.lo, trace.domain.hi
    n = int(np.floor((hi - lo) / period + 1e-9))
    sigs = _pred_signals(b)
    ticks = np.minimum(lo + np.arange(n + 1) * period, hi)
    env = {s: _sample(trace, s, ticks) for s in sigs}
    out = np.empty(n + 1, dtype=bool)
    out[:] = _pointwise(b, env)  # a constant predicate gives one scalar
    return out


def rises(arr: np.ndarray) -> list[int]:
    """Tick indices where the sampled value goes false -> true."""
    return [k for k in range(1, len(arr)) if arr[k] and not arr[k - 1]]


def clocked_delay_check(
    trace: Trace,
    trigger: ast.BExpr,
    response: ast.BExpr,
    period: float,
    lo_cycles: int,
    hi_cycles: int,
) -> str:
    """'pass', 'fail', or 'vacuous' for rose(trigger) |-> ##[lo:hi] rose(response)."""
    if not (0 <= lo_cycles <= hi_cycles):
        raise AmscheckError("cycle window must satisfy 0 <= lo <= hi")
    trig = sample_on_clock(trace, trigger, period)
    resp = sample_on_clock(trace, response, period)
    starts = rises(trig)
    if not starts:
        return "vacuous"
    answers = rises(resp)
    for k1 in starts:
        if not any(lo_cycles <= k2 - k1 <= hi_cycles for k2 in answers):
            return "fail"
    return "pass"
