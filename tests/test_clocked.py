"""Clocked baseline: the vectorized sampler against a per-tick reference."""

import random

import numpy as np
import pytest

from _corpus import _bexpr, random_trace
from amscheck import AmscheckError, Trace, TraceError, parse_property
from amscheck import ast as A
from amscheck.clocked import clocked_delay_check, sample_on_clock
from amscheck.expr import eval_expr


def _truth_at(b, env):
    if isinstance(b, A.Porv):
        g = eval_expr(b.expr, env)
        return g >= 0 if b.rel == ">=" else g > 0
    if isinstance(b, A.BoolSignal):
        return env[b.name] == 1.0
    if isinstance(b, A.Not):
        return not _truth_at(b.operand, env)
    if isinstance(b, A.And):
        return all(_truth_at(t, env) for t in b.terms)
    return _truth_at(b.left, env) or _truth_at(b.right, env)


def reference_samples(trace, b, period):
    """One `Trace.value_at` call per tick and signal."""
    lo, hi = trace.domain.lo, trace.domain.hi
    n = int(np.floor((hi - lo) / period + 1e-9))
    out = []
    for k in range(n + 1):
        t = min(lo + k * period, hi)
        out.append(_truth_at(b, {s: trace.value_at(s, t) for s in trace.signals}))
    return np.array(out, dtype=bool)


def test_sampler_matches_per_tick_reference():
    rng = random.Random(4242)
    cases = 0
    while cases < 150:
        tr = random_trace(rng)
        cols = {s: tr.values(s) for s in tr.signals}
        times = tr.times()
        # a digital signal, switching at some samples
        cols["d"] = np.array([float(rng.random() < 0.5) for _ in times])
        tr = Trace(times, cols, kinds={"d": "boolean"})
        b = _bexpr(rng, [s for s in tr.signals if s != "d"])
        if any(isinstance(n, A.EventAtom) for n in A.iter_nodes(b)):
            continue
        if rng.random() < 0.4:
            b = rng.choice([A.Or(b, A.BoolSignal("d")), A.And((A.Not(A.BoolSignal("d")), b))])
        # periods from one tick over the trace to finer than the samples
        period = rng.choice([1.0, 0.3, 1 / 7]) if rng.random() < 0.2 else 1.0 / rng.uniform(5, 400)
        got = sample_on_clock(tr, b, period)
        assert got.dtype == bool
        assert np.array_equal(got, reference_samples(tr, b, period)), (b, period)
        cases += 1


def test_constant_predicate_fills_every_tick():
    tr = Trace([0.0, 1.0], {"v": [0.0, 1.0]})
    b = parse_property("{1 > 0} |-> {V(v) > 0};").antecedent.bexpr
    assert sample_on_clock(tr, b, 0.25).tolist() == [True] * 5


def test_event_rejected_before_sampling():
    tr = Trace([0.0, 1.0], {"v": [0.0, 1.0]})
    b = parse_property("{@+{V(w) > 0}} |-> {V(v) > 0};").antecedent.bexpr
    with pytest.raises(AmscheckError, match="EventAtom"):
        sample_on_clock(tr, b, 0.25)


def test_negated_constant_is_false_everywhere():
    tr = Trace([0.0, 1.0], {"v": [0.0, 1.0]})
    b = A.Not(parse_property("{1 > 0} |-> {V(v) > 0};").antecedent.bexpr)
    assert sample_on_clock(tr, b, 0.5).tolist() == [False] * 3


@pytest.mark.parametrize("b", [A.BoolSignal("v"), parse_property("{V(d) > 0} |-> {V(v) > 0};").antecedent.bexpr])
def test_signal_of_the_wrong_kind_rejected(b):
    # a bare analog name, or V() of a boolean signal, as in the grid oracle
    tr = Trace([0.0, 1.0], {"v": [0.0, 1.0], "d": [0.0, 1.0]}, kinds={"d": "boolean"})
    with pytest.raises(TraceError):
        sample_on_clock(tr, b, 0.25)


class TestClockedDelayCheck:
    """rose(V(a) > 0.5) |-> ##[1:2] rose(V(b) > 0.5) on ticks every 0.1 s."""

    TRIG = parse_property("{V(a) > 0.5} |-> {x};").antecedent.bexpr
    RESP = parse_property("{V(b) > 0.5} |-> {x};").antecedent.bexpr

    def check(self, a, b):
        times = [0.0, 0.15, 0.25, 0.35, 0.45, 1.0]
        return clocked_delay_check(Trace(times, {"a": a, "b": b}), self.TRIG, self.RESP, 0.1, 1, 2)

    def test_pass_when_the_response_rises_in_the_window(self):
        # a is exactly 0.5 at tick 2, so its rise is seen at tick 3; b's at tick 4
        assert self.check([0, 0, 1, 1, 1, 1], [0, 0, 0, 0.5, 1, 1]) == "pass"

    def test_fail_when_the_response_rises_too_late(self):
        # b passes 0.5 at t=0.725, seen at tick 8
        assert self.check([0, 0, 1, 1, 1, 1], [0, 0, 0, 0, 0, 1]) == "fail"

    def test_fail_when_the_response_never_rises(self):
        assert self.check([0, 0, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1]) == "fail"

    def test_vacuous_when_the_trigger_never_rises(self):
        assert self.check([1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 1]) == "vacuous"
        assert self.check([0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]) == "vacuous"

    def test_bad_cycle_window(self):
        tr = Trace([0.0, 1.0], {"a": [0.0, 1.0], "b": [0.0, 1.0]})
        with pytest.raises(AmscheckError, match="cycle window"):
            clocked_delay_check(tr, self.TRIG, self.RESP, 0.1, 2, 1)
