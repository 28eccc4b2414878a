"""Cycle-based approximation of an edge-to-edge delay check.

Samples predicates at a fixed clock period and checks that every rise
of the trigger predicate is answered by a rise of the response
predicate within a window counted in whole cycles.  This is the
conventional sampled-logic view of a delay requirement; it sees only
clock ticks, so a violation that lives between ticks can pass here
while the dense-time checker reports it.

The ticks, the signal samples (`Trace.value_at`'s interpolation) and
the Boolean layer are the grid oracle's, evaluated over the clock
ticks.  Like the oracle, this baseline shares no code with the interval
engine.
"""

from __future__ import annotations

import numpy as np

from . import ast
from .errors import AmscheckError
from .oracle import _GridEval, _has_event, _ticks
from .trace import Trace


def sample_on_clock(trace: Trace, b: ast.BExpr, period: float) -> np.ndarray:
    """Truth of the predicate at ticks k*period from the trace start."""
    if period <= 0:
        raise AmscheckError("clock period must be positive")
    if _has_event(b):
        raise AmscheckError("clocked sampling cannot evaluate EventAtom")
    return _GridEval(trace, _ticks(trace.domain.lo, trace.domain.hi, period), period).bexpr(b)


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
