"""Atom truth-interval extraction tests: predicates, booleans, events."""

import math
import random

import pytest

from _corpus import _porv, iter_cases, random_trace
from amscheck import (
    AmscheckError,
    AtomTable,
    Interval,
    IntervalSet,
    Trace,
    TraceError,
    UnknownSignalError,
    assertion_match,
    build_table,
    parse_property,
)
from amscheck import ast as A
from amscheck.atoms import BoolTracker, PorvTracker, trackers
from amscheck.engine import _Evaluator
from amscheck.expr import BinOp, Const, SignalRef, is_affine
from amscheck.wavegen import fixture_trace

MS = 1e-3


def S(*spans):
    return IntervalSet(Interval(*sp) for sp in spans)


def porv_of(text):
    """Antecedent predicate of '{text} |-> {x};'."""
    p = parse_property("{%s} |-> {x};" % text)
    b = p.antecedent.bexpr
    assert isinstance(b, A.Porv)
    return b


def truth(trace, atom):
    """The atom's truth set over the whole trace."""
    return _table_for(trace, atom).get(atom)


def line_trace():
    # v(t) = t on [0:10]
    return Trace([0.0, 10.0], {"v": [0.0, 10.0], "x": [0.0, 0.0]},
                 kinds={"x": "boolean"})


class TestPorv:
    def test_strict_crossing_is_open(self):
        got = truth(line_trace(), porv_of("V(v)>5"))
        assert got.approx_eq(S((5.0, 10.0, False, True)))

    def test_weak_crossing_is_closed(self):
        got = truth(line_trace(), porv_of("V(v)>=5"))
        assert got.approx_eq(S((5.0, 10.0, True, True)))

    def test_constant_true(self):
        got = truth(line_trace(), porv_of("V(v)>-1"))
        assert got.approx_eq(S((0.0, 10.0)))

    def test_constant_false(self):
        assert truth(line_trace(), porv_of("V(v)>11")).is_empty

    def test_tangential_touch(self):
        # v dips to exactly 5 at t=1 and comes back up
        tr = Trace([0.0, 1.0, 2.0], {"v": [6.0, 5.0, 6.0], "x": [0, 0, 0]},
                   kinds={"x": "boolean"})
        weak = truth(tr, porv_of("V(v)>=5"))
        assert weak.approx_eq(S((0.0, 2.0)))
        strict = truth(tr, porv_of("V(v)>5"))
        assert strict.approx_eq(S((0.0, 1.0, True, False), (1.0, 2.0, False, True)))

    def test_touch_from_below(self):
        # v rises to exactly 5 at t=1 then falls: >= gives a point, > nothing
        tr = Trace([0.0, 1.0, 2.0], {"v": [4.0, 5.0, 4.0], "x": [0, 0, 0]},
                   kinds={"x": "boolean"})
        weak = truth(tr, porv_of("V(v)>=5"))
        assert weak.approx_eq(S((1.0, 1.0)))
        assert truth(tr, porv_of("V(v)>5")).is_empty

    def test_affine_combination(self):
        # 2*v - 10 > 0 is the same cut as v > 5
        got = truth(line_trace(), porv_of("2*V(v)-10 > 0"))
        assert got.approx_eq(S((5.0, 10.0, False, True)))

    def test_unknown_signal(self):
        with pytest.raises(UnknownSignalError):
            truth(line_trace(), porv_of("V(w)>1"))

    def test_settling_band_components(self):
        """Packaged settling waveform: the in-band predicate holds on four
        spans with endpoints on exact samples."""
        tr = fixture_trace("settling")
        band = parse_property(
            "{V(Vout)>=1.14 && V(Vout)<=1.26} |-> {x};"
        ).antecedent.bexpr
        got = _Evaluator(_table_for(tr, band)).bexpr(band)
        want = S(
            (1.6 * MS, 2.03 * MS),
            (2.41 * MS, 2.66 * MS),
            (3.04 * MS, 3.55 * MS),
            (3.8 * MS, 7.9 * MS),
        )
        assert got.approx_eq(want, tol=1e-9)


def _table_for(trace, bexpr):
    """Build an atom table covering just this boolean expression."""
    p = A.Property(A.SeqBool(bexpr), A.SeqBool(bexpr))
    return build_table(trace, p)


class TestBool:
    def square_trace(self):
        t = [0, 1, 2, 3, 4, 5, 6, 7]
        d = [0, 1, 0, 1, 0, 1, 0, 0]
        return Trace(t, {"d": d}, kinds={"d": "boolean"})

    def test_hold_intervals_right_open(self):
        got = truth(self.square_trace(), A.BoolSignal("d"))
        want = S((1, 2, True, False), (3, 4, True, False), (5, 6, True, False))
        assert got.approx_eq(want)

    def test_true_to_end_is_closed(self):
        tr = Trace([0, 1, 2], {"d": [0, 1, 1]}, kinds={"d": "boolean"})
        assert truth(tr, A.BoolSignal("d")).approx_eq(S((1, 2)))

    def test_analog_signal_rejected(self):
        with pytest.raises(TraceError):
            truth(line_trace(), A.BoolSignal("v"))


class TestEvents:
    def event_of(self, text):
        p = parse_property("%s |-> {x};" % text)
        return p.antecedent.bexpr

    def test_rising_porv_event(self):
        got = truth(line_trace(), self.event_of("@+{V(v)>5}"))
        assert got.approx_eq(S((5.0, 5.0)))

    def test_no_event_at_trace_start(self):
        # already true at t=0: there is no onset instant
        got = truth(line_trace(), self.event_of("@+{V(v)>-1}"))
        assert got.is_empty

    def test_falling_event(self):
        tr = Trace([0.0, 10.0], {"v": [10.0, 0.0], "x": [0, 0]},
                   kinds={"x": "boolean"})
        got = truth(tr, self.event_of("@-{V(v)>5}"))
        assert got.approx_eq(S((5.0, 5.0)))

    def test_any_edge_on_square_wave(self):
        tr = TestBool().square_trace()
        got = truth(tr, self.event_of("@{d==1}"))
        want = S((1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6))
        assert got.approx_eq(want)

    def test_fall_at_closed_trace_end_not_counted(self):
        # d never falls inside the domain; switching off exactly at the end
        # sample is a boundary artifact, not an edge
        tr = Trace([0, 1, 2], {"d": [0, 1, 1]}, kinds={"d": "boolean"})
        got = truth(tr, self.event_of("@{d==1}"))
        assert got.approx_eq(S((1, 1)))


class TestBexpr:
    def test_contradiction_is_empty(self):
        tr = line_trace()
        b = parse_property("{V(v)>5 && V(v)<=5} |-> {x};").antecedent.bexpr
        assert _Evaluator(_table_for(tr, b)).bexpr(b).is_empty

    def test_disjunction(self):
        tr = line_trace()
        b = parse_property("{V(v)>8 OR V(v)<=2} |-> {x};").antecedent.bexpr
        got = _Evaluator(_table_for(tr, b)).bexpr(b)
        assert got.approx_eq(S((0, 2, True, True), (8, 10, False, True)))

    def test_event_conjoined_with_condition(self):
        # event fires at 5; the extra conjunct is true there
        tr = line_trace()
        b = parse_property("{@+{V(v)>5} && V(v)>=1} |-> {x};").antecedent.bexpr
        got = _Evaluator(_table_for(tr, b)).bexpr(b)
        assert got.approx_eq(S((5.0, 5.0)))

    def test_event_gated_out_by_condition(self):
        tr = line_trace()
        b = parse_property("{@+{V(v)>5} && V(v)>=6} |-> {x};").antecedent.bexpr
        assert _Evaluator(_table_for(tr, b)).bexpr(b).is_empty


class TestTable:
    def test_table_covers_all_atoms(self):
        tr = fixture_trace("settling")
        p = parse_property(
            "@+{V(Vout)>0.12} |-> ##[0.001:0.004] "
            "{V(Vout)>=1.14 && V(Vout)<=1.26}[*0.002];"
        )
        tab = build_table(tr, p)
        assert len(tab.atoms()) == 3

    def test_shared_atoms_deduplicated(self):
        tr = line_trace()
        p1 = parse_property("{V(v)>5} |-> {x};", name="p1")
        p2 = parse_property("{V(v)>5} |-> {x};", name="p2")
        tab = build_table(tr, [p1, p2])
        assert len(tab.atoms()) == 2  # the porv and the boolean signal

    @pytest.mark.parametrize(
        "text,error",
        [
            ("{V(v)>5} |-> ##[0:1] {V(nope)>1};", UnknownSignalError),
            ("{V(v)>5} |-> ##[0:1] {@-{ghost}};", UnknownSignalError),
            ("{V(v)>5} |-> ##[0:1] {V(x)>0.5};", TraceError),
            ("{V(v)>5} |-> ##[0:1] {@+{v}};", TraceError),
        ],
    )
    def test_consequent_only_atom_checked_eagerly(self, text, error):
        # no engine work reads these sets, so build_table itself must raise
        with pytest.raises(error):
            build_table(line_trace(), parse_property(text))

    def test_unknown_atom_rejected(self):
        tab = build_table(line_trace(), parse_property("{V(v)>5} |-> {x};"))
        with pytest.raises(AmscheckError, match="no truth set"):
            tab.get(porv_of("V(v)>6"))


class TestSubDomainTable:
    """An `AtomTable` over runs that start before its domain, as a stream snapshot is."""

    A_RUN = Interval(1.0, 4.0, True, False).key  # crosses the cut at 2
    B_RUN = Interval(0.0, 3.0).key  # touches the stream start at 0
    C_RUN = Interval(2.0, 3.0).key  # starts at the cut, after the stream start

    def table(self, atoms):
        runs = {
            A.BoolSignal("a"): [self.A_RUN, Interval(5.0, 6.0).key],
            A.BoolSignal("b"): [self.B_RUN],
            A.BoolSignal("c"): [self.C_RUN],
        }
        return AtomTable(Interval(2.0, 8.0), atoms, lambda base: (runs[base], False), edges=Interval(0.0, 8.0))

    def test_run_crossing_the_cut_is_clipped(self):
        a = A.BoolSignal("a")
        got = self.table([a]).get(a)
        assert got == S((2.0, 4.0, True, False), (5.0, 6.0))

    def test_edges_placed_against_stream_start_not_cut(self):
        pos_a, pos_b, pos_c = (A.EventAtom(A.BoolSignal(n), "pos") for n in "abc")
        neg_b = A.EventAtom(A.BoolSignal("b"), "neg")
        tab = self.table([pos_a, pos_b, pos_c, neg_b])
        # a rose at 1, before the cut, so the point is clipped away; it rose again at 5
        assert tab.get(pos_a) == S((5.0, 5.0))
        # b starts at the stream start: no rising edge, although 0 is not the cut
        assert tab.get(pos_b).is_empty
        assert tab.get(neg_b) == S((3.0, 3.0))
        # c rose exactly at the cut, which is not the stream start
        assert tab.get(pos_c) == S((2.0, 2.0))

    def test_base_runs_computed_once_per_table(self):
        calls = []

        def runs(base):
            calls.append(base)
            return [self.A_RUN], False

        a = A.BoolSignal("a")
        tab = AtomTable(Interval(2.0, 8.0), [a, A.EventAtom(a, "any")], runs)
        for atom in tab.atoms():
            tab.get(atom)
            tab.get(atom)
        assert calls == [a]


def fed_components(tracker, tr):
    """The truth runs of a sample-by-sample tracker feed, as streaming builds them."""
    times = tr.times().tolist()
    cols = {s: tr.values(s).tolist() for s in tr.signals}
    tracker.begin(times[0], {s: c[0] for s, c in cols.items()})
    for i in range(1, len(times)):
        tracker.advance(times[i], {s: c[i] for s, c in cols.items()})
    return tracker.components(times[-1])


def test_batch_runs_equal_sample_feed_bit_for_bit():
    """The batch evaluator solves all affine crossings in one numpy expression
    and bisects non-affine ones; a feed solves each segment on its own.  Some
    samples sit exactly on the threshold, so zero endpoints are exercised."""
    rng = random.Random(4242)
    zeros = nonaffine = 0
    for case in range(300):
        tr = random_trace(rng)
        names = list(tr.signals)
        if case % 10 == 0:
            porv = A.Porv(BinOp("-", BinOp("*", SignalRef(names[0]), SignalRef(names[1])), Const(0.3)),
                          rng.choice([">", ">="]))
            nonaffine += 1
        else:
            porv = _porv(rng, names)
        cols = {n: tr.values(n).tolist() for n in names}
        if case % 10:
            # scale * v - (scale * thresh) is exactly zero at v = thresh
            (mul, const), name = (porv.expr.left.left, porv.expr.right), porv.expr.left.right.name
            for i in rng.sample(range(len(tr)), min(len(tr), rng.randint(0, 4))):
                cols[name][i] = const.value / mul.value
                zeros += 1
        tr = Trace(tr.times(), cols)
        batch, fed = PorvTracker(porv, 1e-9).trace_runs(tr)[0], fed_components(PorvTracker(porv), tr)
        assert repr(batch) == repr(fed), (case, porv)
    assert zeros > 300 and nonaffine == 30


def test_bool_batch_runs_equal_sample_feed_bit_for_bit():
    """Digital signals go through the same run pairing: the batch runs of a
    boolean column equal a `BoolTracker` feed, including constant columns and
    runs that touch either end of the trace."""
    rng = random.Random(4343)
    flips = 0
    for case in range(300):
        n = rng.randint(2, 40)
        times = sorted(rng.sample(range(10 * n), n))
        stay = rng.choice([0.0, 0.5, 0.9, 1.0])  # chance that the next sample keeps the value
        d = [float(rng.random() < 0.5)]
        for _ in range(n - 1):
            d.append(d[-1] if rng.random() < stay else 1.0 - d[-1])
        flips += sum(a != b for a, b in zip(d, d[1:]))
        tr = Trace([t * 0.1 for t in times], {"d": d}, kinds={"d": "boolean"})
        batch, fed = BoolTracker("d").trace_runs(tr)[0], fed_components(BoolTracker("d"), tr)
        assert repr(batch) == repr(fed), (case, d)
    assert flips > 1000


def test_batch_atom_sets_equal_normalizing_their_runs():
    """`build_table` takes the truth runs of a whole trace as they are when
    they pass the gap rule already: every atom set equals
    `IntervalSet.from_keys` of the same runs.  Samples lie on a grid of eps/4
    with ulp nudges, so runs and gaps of eps exactly and within an ulp of it,
    sub-eps slivers, closed points (``>=`` at a zero sample) and exact
    open/open touches (``>`` at one) all occur."""
    rng = random.Random(5150)
    eps = 2.0 ** -20  # grid sums are exact, so spreads of eps exactly occur
    g = eps / 4
    prop = parse_property("{V(x)>0 && V(x)>=0 && d} |-> {V(x)>0};")
    atoms = A.collect_atoms(prop)
    taken = renormalized = at_eps = 0
    for _ in range(400):
        t = [rng.choice([0.0, 1.0, 1024.0])]
        for _ in range(rng.randint(1, 30)):
            nxt = t[-1] + rng.choice([1, 1, 2, 3, 4, 4, 5, 8]) * g
            nxt = rng.choice([nxt, nxt, math.nextafter(nxt, math.inf), math.nextafter(nxt, -math.inf)])
            t.append(max(nxt, math.nextafter(t[-1], math.inf)))
        x = [rng.choice([-1.0, 0.0, 1.0, rng.uniform(-1.0, 1.0)]) for _ in t]
        d = [float(rng.random() < 0.5) for _ in t]
        tr = Trace(t, {"x": x, "d": d}, kinds={"x": "analog", "d": "boolean"})
        tab = build_table(tr, prop, eps=eps)
        for base, tracker in trackers(atoms, tr.kinds, eps).items():
            runs, normal = tracker.trace_runs(tr)
            want = IntervalSet.from_keys(runs, eps).keys
            assert tab.get(base).keys == want, (t, x, d, base)
            # the least width of a run that is not a closed point, and the least gap
            spread = min([hi - lo for lo, lo_open, hi, hi_closed in runs if lo_open or not hi_closed]
                         + [n[0] - p[2] for p, n in zip(runs, runs[1:])], default=math.inf)
            assert normal == (spread > eps), (t, x, d, base)
            taken += normal
            renormalized += want != tuple(runs)
            at_eps += spread == eps
    assert taken > 200 and renormalized > 200 and at_eps > 10, (taken, renormalized, at_eps)


def test_endpoints_are_python_floats():
    """Endpoints reach reports and `%r` as plain floats, not numpy scalars."""
    def all_sets(tr, props):
        tab = build_table(tr, props)
        yield from (tab.get(a) for a in tab.atoms())
        for p in props:
            rep = assertion_match(p, tab)
            yield from (rep.nonvacuous, rep.vacuous, rep.fail, rep.undetermined)

    square = TestBool().square_trace()
    events = [parse_property(f"{{{e}}} |-> {{d}};") for e in ("@+{d}", "@-{d}", "@{d==1}")]
    cases = [(tr, [p]) for tr, p, _ in iter_cases(40, seed=77)] + [(square, events)]
    cases.append((line_trace(), [parse_property(f"{{{e}}} |-> {{x}};") for e in ("@+{V(v)>5}", "@-{V(v)>5}")]))
    seen = 0
    for tr, props in cases:
        for s in all_sets(tr, props):
            for iv in s:
                assert type(iv.lo) is float and type(iv.hi) is float, (props, iv)
                seen += 1
    assert seen > 500


class TestArithmeticMetamorphic:
    """Two ways to write one comparison give one truth set: exactly when the
    two differences are equal floats, to rounding when they are not, and to
    the bisection tolerance when one side divides by a signal."""

    PAIRS = [
        ("V(a)/2{op}0.1", "V(a){op}0.2", 0.0),  # halving is exact, so every crossing is the same float
        ("V(a)+V(b){op}1", "V(a)-(1-V(b)){op}0", 1e-12),
        ("V(a)/V(b){op}1", "V(a)-V(b){op}0", 1e-9),  # V(b) > 0; the quotient is not affine and bisects
    ]

    @pytest.mark.parametrize("op", [">", ">="])
    @pytest.mark.parametrize("left, right, tol", PAIRS)
    def test_same_truth(self, left, right, tol, op):
        rng = random.Random(606)
        p, q = porv_of(left.format(op=op)), porv_of(right.format(op=op))
        assert is_affine(p.expr) == ("/V(b)" not in left)
        components = 0
        for _ in range(100):
            n = rng.randint(2, 30)
            times = [0.01 * k for k in sorted(rng.sample(range(1000), n))]
            a = [rng.choice([0.2, 1.0, rng.uniform(-1.0, 2.0)]) for _ in times]
            tr = Trace(times, {"a": a, "b": [rng.uniform(0.5, 2.0) for _ in times]})
            got, want = truth(tr, p), truth(tr, q)
            assert got.keys == want.keys if tol == 0 else got.approx_eq(want, tol), (left, times, a)
            components += len(want)
        assert components > 200
