"""Streaming checker tests: incremental verdicts and offline agreement."""

import gc
import math
import pickle
import random
import re
from itertools import accumulate, combinations

import numpy as np
import pytest

from _corpus import decimal_trace, random_property, random_trace
from amscheck import (
    BoundError,
    Interval,
    IntervalSet,
    Property,
    ProtocolError,
    Session,
    Trace,
    TraceError,
    UnknownSignalError,
    assertion_match,
    build_table,
    depth,
    horizon,
    parse_property,
    pretty,
    set_intersect,
    set_union,
)
from amscheck import ast as A
from amscheck import online
from amscheck.ast import Delay, Repeat
from amscheck.engine import _Evaluator
from amscheck.wavegen import fixture_trace

MS = 1e-3

SETTLING = (
    "@+{V(Vout)>0.12} |-> ##[0.001:0.004] "
    "{V(Vout)>=1.14 && V(Vout)<=1.26}[*0.002];"
)


def stream(session, trace):
    out = []
    for i in range(len(trace)):
        t, vals = trace.sample(i)
        out.extend(session.feed(t, vals))
    return out


def union_of(verdicts, kinds):
    s = IntervalSet()
    for v in verdicts:
        if v.kind in kinds:
            s = set_union(s, IntervalSet([Interval(*v.interval)])) if isinstance(
                v.interval, tuple
            ) else set_union(s, IntervalSet([v.interval]))
    return s


class TestSettlingStream:
    def test_match_verdict_timing(self):
        tr = fixture_trace("settling")
        p = parse_property(SETTLING, name="settling")
        sess = Session([p], {"Vout": "analog"})
        live = stream(sess, tr)
        # the match at 0.7ms becomes decidable once the horizon has passed:
        # first sample at or after 0.7ms + 6ms
        matches = [v for v in live if v.kind == "match"]
        assert len(matches) == 1
        assert matches[0].interval.approx_eq(Interval(0.7 * MS, 0.7 * MS))
        assert matches[0].decided_at == pytest.approx(6.8 * MS)

    def test_vacuous_emitted_at_finalize(self):
        tr = fixture_trace("settling")
        p = parse_property(SETTLING, name="settling")
        sess = Session([p], {"Vout": "analog"})
        live = stream(sess, tr)
        assert not [v for v in live if v.kind == "vacuous-end"]
        final = sess.finalize()
        vac = [v for v in final if v.kind == "vacuous-end"]
        assert len(vac) == 2
        for v in vac:
            assert v.decided_at == pytest.approx(8 * MS)

    def test_agrees_with_offline(self):
        tr = fixture_trace("settling")
        p = parse_property(SETTLING, name="settling")
        sess = Session([p], {"Vout": "analog"})
        verdicts = stream(sess, tr) + sess.finalize()
        rep = assertion_match(p, build_table(tr, p))
        assert union_of(verdicts, {"match"}).approx_eq(rep.nonvacuous)
        assert union_of(verdicts, {"vacuous-end"}).approx_eq(rep.vacuous)
        assert union_of(verdicts, {"fail"}).approx_eq(rep.fail)
        assert union_of(verdicts, {"undetermined"}).approx_eq(rep.undetermined)


class TestEscapeStream:
    def test_fail_fires_when_window_closes(self):
        tr = fixture_trace("delay-escape")
        p = parse_property(
            "@+{V(Vin)>3} |-> ##[0.000002:0.00000425] {V(Vout)>1.8};",
            name="escape",
        )
        sess = Session([p], {"Vin": "analog", "Vout": "analog"})
        live = stream(sess, tr)
        fails = [v for v in live if v.kind == "fail"]
        assert len(fails) == 1
        assert fails[0].interval.approx_eq(Interval(1e-5, 1e-5))
        # first sample past 1e-5 + 4.25us is 1.43e-5
        assert fails[0].decided_at == pytest.approx(1.43e-5)

    def test_failure_does_not_wait_for_finalize(self):
        tr = fixture_trace("delay-escape")
        p = parse_property(
            "@+{V(Vin)>3} |-> ##[0.000002:0.00000425] {V(Vout)>1.8};"
        )
        sess = Session([p], {"Vin": "analog", "Vout": "analog"})
        seen_fail_at = None
        for i in range(len(tr)):
            t, vals = tr.sample(i)
            for v in sess.feed(t, vals):
                if v.kind == "fail" and seen_fail_at is None:
                    seen_fail_at = t
        assert seen_fail_at is not None and seen_fail_at < tr.domain.hi


class TestNeverTriggered:
    def test_all_vacuous_at_finalize(self):
        tr = fixture_trace("settling")
        p = parse_property("@+{V(Vout)>2} |-> {V(Vout)>1};", name="quiet")
        sess = Session([p], {"Vout": "analog"})
        live = stream(sess, tr)
        assert live == []
        final = sess.finalize()
        assert [v.kind for v in final] == ["vacuous-end"]
        assert final[0].interval.approx_eq(tr.domain)


class TestDecidedAtBound:
    def test_latency_within_horizon_plus_step(self):
        """Every verdict lands within one sample step of its horizon."""
        tr = fixture_trace("settling")
        p = parse_property(SETTLING, name="settling")
        hor = horizon(p)
        times = tr.times()
        max_gap = max(
            float(b - a) for a, b in zip(times[:-1], times[1:])
        )
        sess = Session([p], {"Vout": "analog"})
        for v in stream(sess, tr):
            start = v.interval.lo
            assert v.decided_at <= start + hor + max_gap + 1e-12


class TestProtocol:
    def make(self):
        p = parse_property("{V(v)>5} |-> {V(v)>1};")
        return Session([p], {"v": "analog"})

    def test_time_must_advance(self):
        s = self.make()
        s.feed(0.0, {"v": 0.0})
        with pytest.raises(ProtocolError):
            s.feed(0.0, {"v": 1.0})

    def test_missing_signal_value(self):
        s = self.make()
        with pytest.raises(ProtocolError):
            s.feed(0.0, {})

    def test_feed_after_finalize(self):
        s = self.make()
        s.feed(0.0, {"v": 0.0})
        s.feed(1.0, {"v": 1.0})
        s.finalize()
        with pytest.raises(ProtocolError):
            s.feed(2.0, {"v": 2.0})

    def test_unknown_property_signal(self):
        p = parse_property("{V(w)>5} |-> {V(w)>1};")
        with pytest.raises(Exception):
            Session([p], {"v": "analog"})

    def test_duplicate_signal_names(self):
        p = parse_property("{V(x)>5} |-> {V(x)>1};")
        for names in (["x", "x"], ("x", "y", "x")):
            with pytest.raises(ProtocolError, match="duplicate signal names"):
                Session([p], names)

    def test_positional_values(self):
        p = parse_property("{V(v)>5} |-> {V(v)>1};")
        s = Session([p], ["v"])
        s.feed(0.0, [0.0])
        s.feed(1.0, [6.0])
        assert s.finalize()  # some verdicts exist

    def test_unknown_signal_kind(self):
        p = parse_property("{V(v)>5} |-> {V(v)>1};")
        with pytest.raises(ProtocolError, match="signal 'v' has unknown kind 'digital'"):
            Session([p], {"v": "digital"})

    def test_no_assertions(self):
        with pytest.raises(ProtocolError, match="no assertions to check"):
            Session([], ["v"])

    @pytest.mark.parametrize("values", [[], [0.0, 1.0]])
    def test_value_list_of_wrong_length(self, values):
        with pytest.raises(ProtocolError, match=f"expected 1 values, got {len(values)}"):
            self.make().feed(0.0, values)

    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0])
    def test_boolean_value_not_zero_or_one(self, value):
        s = Session([parse_property("{d} |-> {V(v)>1};")], {"v": "analog", "d": "boolean"})
        s.feed(0.0, {"v": 0.0, "d": 1.0})
        with pytest.raises(ProtocolError, match=f"boolean signal 'd' must be 0 or 1, got {value}"):
            s.feed(1.0, {"v": 0.0, "d": value})

    def test_finalize_twice(self):
        s = self.make()
        s.feed(0.0, {"v": 0.0})
        s.finalize()
        with pytest.raises(ProtocolError, match="session already finalized"):
            s.finalize()

    def test_finalize_without_samples(self):
        assert self.make().finalize() == []

    def test_no_pending_obligations_after_finalize(self):
        s = Session([parse_property("{V(v)>5} |-> ##[2:3] {V(v)>1};")], ["v"])
        s.feed(0.0, [6.0])
        s.feed(1.0, [6.0])
        assert len(s.pending_obligations()) == 1  # [0:1], decided only 3 s after each instant
        s.finalize()
        assert s.pending_obligations() == []


class TestVerdictRecord:
    """A verdict keeps its interval's endpoints in its own fields: one object,
    with the meaning of the four fields ``name, kind, interval, decided_at``."""

    def test_constructor_takes_an_interval_and_gives_it_back(self):
        iv = Interval(0.5, 1.5, False, True)
        v = online.Verdict("p", "match", iv, 2.0)
        assert v.interval == iv and type(v.interval) is Interval
        assert online.Verdict(name="p", kind="match", interval=iv, decided_at=2.0) == v
        assert not any(isinstance(r, Interval) for r in gc.get_referents(v))

    def test_equal_and_hash_equal_exactly_when_the_four_fields_are(self):
        rng = random.Random(3131)
        ivs = [Interval(0.0, 1.0), Interval(0.0, 1.0, False), Interval(0.0, 1.0, True, False), Interval(0.0, 2.0),
               Interval(1.0, 1.0), Interval(2.0, 1.0), Interval(0.0, 0.0, False)]
        pool = [(n, k, iv, d) for n in ("p", "q") for k in ("match", "fail") for iv in ivs for d in (1.0, 2.0)]
        for _ in range(2000):
            a, b = rng.choice(pool), rng.choice(pool)
            va, vb = online.Verdict(*a), online.Verdict(*b)
            assert (va == vb) == (a == b) and (va != vb) == (a != b)
            if a == b:
                assert hash(va) == hash(vb)

    def test_fields_cannot_be_set_and_a_pickle_holds_the_four_fields(self):
        v = online.Verdict("p", "fail", Interval(0.25, 0.75, True, False), 1.0)
        for field in ("name", "kind", "interval", "decided_at", "lo", "hi_closed"):
            with pytest.raises(AttributeError):
                setattr(v, field, None)
        assert v.__reduce__() == (online.Verdict, ("p", "fail", Interval(0.25, 0.75, True, False), 1.0))
        back = pickle.loads(pickle.dumps(v))
        assert back == v and hash(back) == hash(v) and back.interval == v.interval

    def test_streamed_verdicts_equal_ones_built_from_their_fields(self):
        s = Session([parse_property(SETTLING, name="settle")], ["Vout"])
        verdicts = stream(s, fixture_trace("settling")) + s.finalize()
        assert {v.kind for v in verdicts} == {"match", "vacuous-end"}
        for v in verdicts:
            iv = v.interval
            assert online.Verdict(v.name, v.kind, iv, v.decided_at) == v
            assert Interval.from_key(iv.key) == iv and type(iv.lo_closed) is bool and type(iv.hi_closed) is bool


class TestSignalKinds:
    """`check` and `stream` read an assertion's signals by one rule: `build_table`
    over a trace and `Session` over the same declared kinds raise the same error."""

    KINDS = {"v": "analog", "d": "boolean"}
    BAD = ["V(w)>1", "w", "V(d)>0.5", "v", "V(v)+V(d)>1", "V(v)>1 && w"]
    GOOD = ["V(v)>1", "d", "2*V(v)-1>=0", "V(v)>1 && d"]

    @staticmethod
    def forms(b):
        yield "{V(v)>5} |-> ##[0:1] {%s};" % b
        yield "{%s} |-> {V(v)<1};" % b
        if "&&" not in b:
            yield from ("{V(v)>5} |-> ##[0:1] @+{%s};" % b, "@-{%s} |-> {V(v)<1};" % b)

    def error(self, fn):
        with pytest.raises(Exception) as exc:
            fn()
        return type(exc.value), str(exc.value)

    @pytest.mark.parametrize("bad", BAD)
    def test_same_error_offline_and_streamed(self, bad):
        tr = Trace([0.0, 1.0, 2.0], {"v": [0.0, 6.0, 0.0], "d": [0.0, 1.0, 0.0]}, kinds=self.KINDS)
        for text in self.forms(bad):
            p = parse_property(text)
            offline = self.error(lambda: build_table(tr, p))
            assert offline == self.error(lambda: Session([p], self.KINDS)), text
            assert issubclass(offline[0], (TraceError, UnknownSignalError)), text

    def test_first_bad_atom_decides(self):
        tr = Trace([0.0, 1.0], {"v": [0.0, 6.0], "d": [0.0, 1.0]}, kinds=self.KINDS)
        p = parse_property("{V(w)>1} |-> {v};")
        streamed = self.error(lambda: Session([p], self.KINDS))
        assert streamed == self.error(lambda: build_table(tr, p)) and streamed[0] is UnknownSignalError

    @pytest.mark.parametrize("good", GOOD)
    def test_valid_signals_accepted_by_both(self, good):
        tr = Trace([0.0, 1.0, 2.0], {"v": [0.0, 6.0, 0.0], "d": [0.0, 1.0, 0.0]}, kinds=self.KINDS)
        for text in self.forms(good):
            p = parse_property(text)
            build_table(tr, p)
            Session([p], self.KINDS)


class TestObligations:
    def test_pending_reported_before_horizon(self):
        tr = fixture_trace("settling")
        p = parse_property(SETTLING, name="settling")
        sess = Session([p], {"Vout": "analog"})
        fired = False
        for i in range(len(tr)):
            t, vals = tr.sample(i)
            sess.feed(t, vals)
            if 1 * MS < t < 6 * MS:
                obs = sess.pending_obligations()
                # the 0.7ms trigger is still undecided in this window
                if any(o.component.lo <= 0.7 * MS <= o.component.hi for o in obs):
                    fired = True
        assert fired


class TestNonFinite:
    def make(self):
        p = parse_property("{V(x)>0.5} |-> {V(x)<2};")
        return Session([p], {"x": "analog"})

    def test_nan_value_rejected(self):
        s = self.make()
        s.feed(0.0, {"x": 0.0})
        s.feed(1.0, {"x": 1.0})
        with pytest.raises(ProtocolError, match="non-finite"):
            s.feed(2.0, {"x": float("nan")})
        # the rejected sample left the session as it was
        verdicts = s.feed(2.0, {"x": 1.0}) + s.finalize()
        assert {v.kind for v in verdicts} == {"match", "vacuous-end"}

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, t):
        s = self.make()
        s.feed(0.0, {"x": 0.0})
        with pytest.raises(ProtocolError, match="non-finite"):
            s.feed(t, {"x": 1.0})


    @pytest.mark.parametrize("where,msg", [("antecedent", "antecedent depth inf"), ("consequent", "horizon inf")])
    def test_infinite_lookback_rejected(self, where, msg):
        """A property built without the parser whose finite bounds sum to an
        infinite antecedent depth or horizon, which would never be decided
        before `finalize` nor trimmed, is refused when the session starts."""
        p = parse_property("{V(x)>0.5}[*1] ##[0:1] {V(x)>1} |-> {V(x)<2}[*1] ##[0:1] {V(x)>0};")
        seq = getattr(p, where)
        big = Property(**{"antecedent": p.antecedent, "consequent": p.consequent,
                          where: Delay(Repeat(seq.left.seq, 1e308), 0.0, 1e308, seq.right)})
        with pytest.raises(BoundError, match=msg):
            Session([big], {"x": "analog"})


def tiled_trace(rng, names, tile_len, tiles):
    """A random piecewise-linear tile of ``tile_len`` knots, repeated ``tiles`` times."""
    steps = [rng.uniform(0.03, 0.12) for _ in range(tile_len)]
    offsets = [0.0, *accumulate(steps[:-1])]
    period = sum(steps)
    vals = {n: [rng.uniform(-1.0, 2.0) for _ in range(tile_len)] for n in names}
    times = [k * period + off for k in range(tiles) for off in offsets]
    return Trace(times, {n: v * tiles for n, v in vals.items()})


def lookback(p):
    return depth(p.antecedent) + horizon(p)


class TestLongStream:
    """Streams many lookbacks long, so the session drops old truth runs."""

    NAMES = ["s0", "s1", "s2"]

    def test_agrees_with_offline(self):
        """Two assertions per session, so the cut follows the slower one."""
        rng = random.Random(9001)
        for case in range(8):
            drawn = [random_property(rng, self.NAMES) for _ in range(2)]
            props = [Property(p.antecedent, p.consequent, p.delay, f"r{j}") for j, p in enumerate(drawn)]
            longest = max(lookback(p) for p in props)
            # knots average 0.075 s apart: size the trace to 20 lookbacks
            tr = tiled_trace(rng, self.NAMES, 40 + int(20 * longest / 0.075), 1)
            assert tr.domain.hi >= 20 * longest
            sess = Session(props, self.NAMES)
            verdicts = stream(sess, tr) + sess.finalize()
            table = build_table(tr, props)
            for p in props:
                rep = assertion_match(p, table)
                mine = [v for v in verdicts if v.name == p.name]
                for kind, want in [
                    ("match", rep.nonvacuous),
                    ("vacuous-end", rep.vacuous),
                    ("fail", rep.fail),
                    ("undetermined", rep.undetermined),
                ]:
                    assert union_of(mine, {kind}).approx_eq(want), (case, kind, pretty(p))

    def test_retained_runs_bounded(self):
        rng = random.Random(77)
        p = random_property(rng, self.NAMES)
        while not 0.3 <= lookback(p) <= 1.0:
            p = random_property(rng, self.NAMES)
        # the tile spans 1e3 samples, so both probes sit at the same phase
        tr = tiled_trace(rng, self.NAMES, 1000, 10)
        assert tr.domain.hi >= 20 * lookback(p)
        sess = Session([p], self.NAMES)
        retained = {}
        for i in range(len(tr)):
            sess.feed(*tr.sample(i))
            if i + 1 in (1_000, 10_000):
                retained[i + 1] = sess.retained_runs()
        assert 0 < retained[10_000] <= retained[1_000]


class TestSubEpsWindows:
    """Samples closer together than eps must not lose their verdicts."""

    def test_matches_offline(self):
        p = parse_property("{V(x)>0.5} |-> {V(x)<2}", name="p")
        times = [k * 0.5e-9 for k in range(40)]
        sess = Session([p], ["x"])
        verdicts = []
        for t in times:
            verdicts += sess.feed(t, [1.0])
        verdicts += sess.finalize()
        rep = assertion_match(p, build_table(Trace(times, {"x": [1.0] * len(times)}), p))
        assert rep.nonvacuous.approx_eq(IntervalSet([Interval(0.0, 19.5e-9)]))
        assert union_of(verdicts, {"match"}).approx_eq(rep.nonvacuous)
        # verdicts still come out live, not only at finalize
        assert any(v.kind == "match" and v.decided_at < times[-1] for v in verdicts[1:])


class TestSubEpsHeadRun:
    """A truth run that began less than eps before the newest sample must not
    be read as false: the stream waits until the run is older than eps."""

    KINDS = {"match": "nonvacuous", "vacuous-end": "vacuous", "fail": "fail", "undetermined": "undetermined"}

    def test_matches_offline(self):
        p = parse_property("{V(a)>0} |-> ##[1:1] {V(b)>0};", name="p")
        times = [float(k) for k in range(8)]
        cols = {"a": [1.0] * 8, "b": [-1, -1, -1, -1, -99.5, 0.5, 1, 1]}
        sess = Session([p], ["a", "b"], eps=0.01)
        verdicts = []
        for i, t in enumerate(times):
            verdicts += sess.feed(t, [cols["a"][i], cols["b"][i]])
        verdicts += sess.finalize()
        rep = assertion_match(p, build_table(Trace(times, cols), p, eps=0.01))
        assert rep.nonvacuous.approx_eq(IntervalSet([Interval(3.995, 6.0, False, True)]))
        # compared to 1e-9: the unwaited stream is off by 0.005, inside eps itself
        for kind, attr in self.KINDS.items():
            got = IntervalSet([v.interval for v in verdicts if v.kind == kind], 0.01)
            assert got.approx_eq(getattr(rep, attr)), (kind, got, getattr(rep, attr))


class TestAntecedentFirst:
    """A window where the antecedent ends no match never evaluates the consequent."""

    CONS = " |-> ##[0.002:0.004] {V(x)<0};"

    def trace(self):
        rng = random.Random(5)
        times = [k * 1e-4 for k in range(1000)]
        return Trace(times, {"x": [math.sin(2 * math.pi * 50 * t) + rng.gauss(0, 0.02) for t in times]})

    def count_begin(self, monkeypatch):
        calls = []
        real = _Evaluator.begin

        def counted(ev, s, restrict):
            calls.append(s)
            return real(ev, s, restrict)

        monkeypatch.setattr(_Evaluator, "begin", counted)
        return calls

    def test_never_matching_stream(self, monkeypatch):
        calls = self.count_begin(monkeypatch)
        sess = Session([parse_property("{V(x)>1e9}" + self.CONS, name="p")], ["x"])
        verdicts = stream(sess, self.trace()) + sess.finalize()
        assert calls == []
        assert {v.kind for v in verdicts} == {"vacuous-end"}

    def test_begin_only_where_antecedent_matches(self, monkeypatch):
        tr = self.trace()
        p = parse_property("{V(x)>0.9}" + self.CONS, name="p")
        em = _Evaluator(build_table(tr, p)).end(p.antecedent)
        calls = self.count_begin(monkeypatch)
        windows = []
        classify = online.classify

        def recorded(ev, prop, name, within):
            windows.append(within)
            return classify(ev, prop, name, within)

        monkeypatch.setattr(online, "classify", recorded)
        sess = Session([p], ["x"])
        steps = [lambda i=i: sess.feed(*tr.sample(i)) for i in range(len(tr))] + [sess.finalize]
        evaluated = 0
        for i, step in enumerate(steps):
            windows.clear()
            before = len(calls)
            step()
            hit = any(set_intersect(em, IntervalSet([w])) for w in windows)
            assert (len(calls) > before) == hit, (i, windows)
            evaluated += hit
        assert 0 < evaluated < len(steps) // 2

    def test_never_matching_offline(self, monkeypatch):
        calls = self.count_begin(monkeypatch)
        p = parse_property("{V(x)>1e9}" + self.CONS)
        rep = assertion_match(p, build_table(self.trace(), p))
        assert calls == [] and rep.fail.is_empty


FIVE_SAMPLES = (Trace([0.0, 0.01, 0.02, 0.03, 0.04], {"a": [0.0, 1.0, 0.0, 1.0, 0.0]}),
                parse_property("@+{V(a)>=0.5} |-> ##[0.007:0.015] @-{V(a)>=0.5};", name="p"))


def decimal_cases(n, seed=2121):
    rng = random.Random(seed)
    for _ in range(n):
        tr = decimal_trace(rng)
        yield tr, random_property(rng, list(tr.signals), step=0.25)


@pytest.mark.parametrize("cases", [lambda: [FIVE_SAMPLES], lambda: decimal_cases(300)], ids=["five-samples", "decimal"])
def test_streamed_kinds_are_disjoint(cases):
    """Fed sample by sample, a stream gives each instant one kind at most,
    also where crossings, samples and window ends coincide.  In the five
    samples a window starts one ulp after the match at 0.005, and the
    vacuous pieces on either side of it stay apart."""
    for tr, p in cases():
        sess = Session([p], tr.kinds)
        kinds = {}
        for v in stream(sess, tr) + sess.finalize():
            kinds.setdefault(v.kind, []).append(v.interval.key)
        for (k1, a), (k2, b) in combinations(kinds.items(), 2):
            both = set_intersect(IntervalSet.from_keys(a), IntervalSet.from_keys(b), 0.0)  # no sliver dropped
            assert both.is_empty, (k1, k2, both, tr.times().tolist(), pretty(p))


class TestExactZeroEvent:
    """A predicate that an event reads and that is exactly 0 at the newest sample may start or
    end a run there, which only the next sample shows: the stream decides up to the sample before."""

    KINDS = {"match": "nonvacuous", "vacuous-end": "vacuous", "fail": "fail", "undetermined": "undetermined"}

    def test_rise_from_an_exact_zero_matches_as_offline(self):
        p = parse_property("{V(x)<=0.5} |-> @+{V(x)>0};", name="p")
        sess = Session([p], ["x"])
        verdicts = [v for t, x in [(0.0, -1.0), (1.0, 0.0), (2.0, 1.0)] for v in sess.feed(t, [x])]
        verdicts += sess.finalize()
        rep = assertion_match(p, build_table(Trace([0.0, 1.0, 2.0], {"x": [-1.0, 0.0, 1.0]}), p))
        assert rep.nonvacuous.approx_eq(IntervalSet([Interval(1.0, 1.0)]))
        assert [v.interval for v in verdicts if v.kind == "match"] == [Interval(1.0, 1.0)]
        for kind, attr in self.KINDS.items():
            assert union_of(verdicts, {kind}).approx_eq(getattr(rep, attr)), kind

    @pytest.mark.parametrize("seed", [1, 2])
    def test_decimal_corpus_with_event_consequents(self, seed):
        """Knots, values and thresholds on decimal grids put many exact zeros on the samples;
        with no delay, no window edge falls between samples, so kind unions equal offline."""
        from _corpus import _bexpr, _porv
        from amscheck import validate
        from amscheck.expr import compile_expr

        rng = random.Random(seed)
        zeros = 0
        for case in range(300):
            tr = decimal_trace(rng)
            names = list(tr.signals)
            event = A.EventAtom(_porv(rng, names, 0.5), rng.choice(["pos", "neg", "any"]))
            p = validate(A.Property(A.SeqBool(_bexpr(rng, names, 0.5)), A.SeqBool(event), None, name="r"))
            g = compile_expr(event.pred.expr)
            zeros += any(g(tr.sample(i)[1]) == 0 for i in range(len(tr)))
            sess = Session([p], tr.kinds)
            verdicts = stream(sess, tr) + sess.finalize()
            rep = assertion_match(p, build_table(tr, p))
            for kind, attr in self.KINDS.items():
                assert union_of(verdicts, {kind}).approx_eq(getattr(rep, attr)), (case, kind, pretty(p))
        assert zeros > 100

    def test_a_signal_stuck_at_its_threshold_decides_one_sample_late(self):
        p = parse_property("{V(y)>0}[*0.004] |-> @+{V(x)>0};", name="p")
        sess = Session([p], ["x", "y"])
        times = [k * 1e-3 for k in range(10_000)]
        retained = {}
        for i, t in enumerate(times):
            sess.feed(t, [0.0, 1.0 if i % 10 < 5 else -1.0])
            if i:
                assert sess.props[0].frontier == times[i - 1]
            if i + 1 in (1_000, 10_000):
                retained[i + 1] = sess.retained_runs()
        assert 0 < retained[10_000] <= retained[1_000]


def _nonaffine(p):
    """``p`` with every ``V(s)`` read as ``V(s)*V(s)-V(s0)/2``, so the trackers bisect its crossings."""
    return parse_property(re.sub(r"V\((\w+)\)", r"(V(\1)*V(\1)-V(s0)/2)", pretty(p)), name=p.name)


def _scaled(p, k):
    """``p`` with every delay, hold and recurrence bound times ``k``."""
    def walk(s):
        if isinstance(s, A.Repeat):
            return A.Repeat(walk(s.seq), s.dur * k)
        if isinstance(s, A.Delay):
            return A.Delay(walk(s.left), s.lo * k, s.hi * k, walk(s.right))
        if isinstance(s, A.RepeatUntil):
            return A.RepeatUntil(walk(s.seq), s.lo * k, s.hi * k, walk(s.cont))
        return s
    delay = (p.delay[0] * k, p.delay[1] * k) if p.delay else None
    return A.validate(A.Property(walk(p.antecedent), walk(p.consequent), delay, p.name))


def _session_log(props, tr, every_feed_classifies, t0_rule=True):
    """All a stream shows: each feed's verdicts with ``decided_at``, `retained_runs` after
    every feed, `pending_obligations` every seventh feed, and finalize's verdicts; and how
    many windows took the quiet path.  Without the ``t0_rule``, a run boundary at the stream
    start blocks the quiet path as a later one does."""
    sess = Session(props, tr.kinds)
    quiet = sess._quiet

    def gate(st, upto):
        last, margin = max(k.last for k in st.trackers), 4 * sess.eps
        if t0_rule or st.kind is None or st.kind == "match" and st.horizon or not (
                last == sess._t0 >= st.frontier - st.reach - margin):
            return quiet(st, upto)
        st.loud_until = last + st.reach + margin
        return False

    taken = []
    sess._quiet = (lambda st, upto: False) if every_feed_classifies else (
        lambda st, upto: taken.append(gate(st, upto)) or taken[-1])
    log = []
    for i in range(len(tr)):
        log.append([(v.name, v.kind, v.interval.key, v.decided_at) for v in sess.feed(*tr.sample(i))])
        log.append(sess.retained_runs())
        if i % 7 == 0:
            log.append([(o.name, o.component.key, o.deadline) for o in sess.pending_obligations()])
    log.append([(v.name, v.kind, v.interval.key, v.decided_at) for v in sess.finalize()])
    return log, sum(taken)


class TestQuietWindows:
    """A window with no atom run boundary and no stream start moved into it by a shift of
    `ast.offsets` is emitted with the frontier's kind without `classify`, and the stream
    shows exactly what it shows when every feed classifies."""

    @staticmethod
    def draw(rng, variant):
        """One to three assertions over one trace: corpus traces resampled to 200-1000
        samples with non-affine predicates, the decimal corpus, times and bounds scaled by
        1e-6 or 1e-9, the stream started 1e3 trace lengths late, or affine predicates only
        with each signal's first sample on the threshold of one that reads it."""
        if variant == "decimal":
            tr = decimal_trace(rng)
            props = [random_property(rng, list(tr.signals), step=0.25) for _ in range(rng.randint(1, 3))]
            return [Property(p.antecedent, p.consequent, p.delay, f"r{j}") for j, p in enumerate(props)], tr
        tr = random_trace(rng)
        names = list(tr.signals)
        props = [random_property(rng, names) for _ in range(rng.randint(1, 3))]
        props = [Property(p.antecedent, p.consequent, p.delay, f"r{j}") for j, p in enumerate(props)]
        if variant != "zero-start":
            props = [_nonaffine(p) if rng.random() < 0.5 else p for p in props]
        times = np.unique(np.concatenate((tr.times()[[0, -1]], np.sort([rng.random() for _ in range(
            rng.randint(200, 1000))]))))
        cols = {s: np.interp(times, tr.times(), tr.values(s)) for s in names}
        if variant == "zero-start":
            # a corpus predicate reads k*V(s) - c; it is exactly 0 at V(s) = c/k, as k is 1, -1 or 2
            for s in names:
                limits = [n.expr.right.value / n.expr.left.left.value for p in props for n in A.iter_nodes(p)
                          if isinstance(n, A.Porv) and n.expr.left.right.name == s]
                if limits:
                    cols[s][0] = rng.choice(limits)
        k, start = {"resampled": (1.0, 0.0), "micro": (1e-6, 0.0), "nano": (1e-9, 0.0), "late": (1.0, 1e3),
                    "zero-start": (1.0, 0.0)}[variant]
        return [_scaled(p, k) for p in props], Trace((times + start) * k, cols)

    @pytest.mark.parametrize("variant", ["resampled", "decimal", "micro", "nano", "late", "zero-start"])
    def test_same_stream_as_classifying_every_feed(self, variant):
        rng = random.Random(f"quiet-{variant}")
        taken = without_t0_rule = 0
        # a decimal trace has 5-14 samples; in most zero-start traces a later flip blocks the
        # same windows as the one at t0
        for case in range({"decimal": 100, "zero-start": 24}.get(variant, 8)):
            props, tr = self.draw(rng, variant)
            got, n = _session_log(props, tr, False)
            taken += n
            assert got == _session_log(props, tr, True)[0], (case, [pretty(p) for p in props])
            if variant == "zero-start":
                log, n = _session_log(props, tr, False, t0_rule=False)
                assert log == got
                without_t0_rule += n
        # at 1e-9 every window is narrower than the time tolerance until finalize
        assert (taken == 0) if variant == "nano" else (taken > 100), taken
        if variant == "zero-start":
            assert taken > without_t0_rule, (taken, without_t0_rule)

    def test_a_quiet_stretch_skips_classify(self, monkeypatch):
        windows = []
        classify = online.classify

        def recorded(ev, prop, name, within):
            windows.append(within)
            return classify(ev, prop, name, within)

        monkeypatch.setattr(online, "classify", recorded)
        sess = Session([parse_property("{V(x)>0}[*0.01] |-> {V(y)>0}", name="p")], ["x", "y"])
        feeds = [(k * 1e-3, [1.0, 1.0 if k < 300 else -1.0]) for k in range(400)]
        verdicts = [v for t, vals in feeds for v in sess.feed(t, vals)]
        # the first window and the ones within 0.01 of the stream start or of y's fall
        assert len(windows) < 40 < len(feeds)
        assert {v.kind for v in verdicts} == {"match", "fail"}

    @staticmethod
    def pinned_stream(monkeypatch, head):
        """``{V(x)>0}[*0.01] |-> {V(y)>0}`` over 400 samples 1e-3 apart, where ``x`` takes the
        values ``head`` first and 1 after them and ``y`` stays 1: the stream's `_session_log`,
        how many `classify` calls it made, and whether it shows the same when every feed
        classifies."""
        p = parse_property("{V(x)>0}[*0.01] |-> {V(y)>0}", name="p")
        tr = Trace([k * 1e-3 for k in range(400)], {"x": [*head, *[1.0] * (400 - len(head))], "y": [1.0] * 400})
        calls = []
        classify = online.classify
        monkeypatch.setattr(online, "classify", lambda *args: calls.append(args[3]) or classify(*args))
        log = _session_log([p], tr, False)[0]
        return log, len(calls), log == _session_log([p], tr, True)[0]

    def test_a_flip_at_the_stream_start_is_the_domain_edge(self, monkeypatch):
        """``x`` is exactly 0 at the first sample, so its run starts open at t0: the images of
        that boundary are the stream start's, and only the first window, the ones near
        t0 + 0.01 and finalize classify."""
        log, calls, same = self.pinned_stream(monkeypatch, [0.0])
        assert same and calls <= 5, calls
        verdicts = [v[1:3] for entry in log if isinstance(entry, list) for v in entry if len(v) == 4]
        # x holds on (0, 0.399], so the antecedent first ends a match just after 0.01
        assert verdicts[-1] == ("vacuous-end", (0.0, False, 0.01, True))
        assert {kind for kind, _ in verdicts[:-1]} == {"match"} and verdicts[0][1][:2] == (0.01, True)

    def test_a_flip_one_sample_later_blocks_the_shortcut(self, monkeypatch):
        """``x`` is exactly 0 at the second sample and rises after it: a run boundary there
        blocks the quiet path until the frontier passes it by the reach."""
        log, calls, same = self.pinned_stream(monkeypatch, [-1.0, 0.0])
        assert same and calls >= 10, calls  # every window up to 0.001 + 0.01

    def test_a_shift_past_the_antecedent_depth(self):
        """An inner ``##`` ends its right operand's hold after the operand began, so a run of
        ``b`` starting at 2 moves the consequent's begin matches to 3, a shift of 1 where the
        antecedent's depth is 0: a window is quiet only if no boundary is 1 old."""
        p = parse_property("{V(x)>0} |-> {V(a)>0} ##[0:0] {V(b)>0}[*1]", name="p")
        assert A.offsets(p) == (0.0, 1.0) and A.reach(p) == 1.0 > depth(p.antecedent)
        times = [round(k * 0.01, 10) for k in range(501)]
        tr = Trace(times, {"x": [1.0] * 501, "a": [1.0] * 501, "b": [-1.0 if t < 2.005 else 1.0 for t in times]})
        got, taken = _session_log([p], tr, False)
        assert taken > 0 and got == _session_log([p], tr, True)[0]
        rep = assertion_match(p, build_table(tr, p))
        assert rep.nonvacuous.approx_eq(IntervalSet([Interval(3.005, 5.0, False, True)]))

    def test_a_match_to_the_newest_sample_is_classified(self):
        """Classify ends a match that lasts to the newest sample t at t's image through the
        consequent's holds, (t - 0.022) - 0.022, which is an ulp before upto = t - 0.044 at
        t = 0.085; the stream does not extend such a match, and keeps no frontier kind where
        the dropped sliver after it holds upto."""
        p = parse_property("{V(x)>0} |-> {{V(y)>0}[*0.022]}[*0.022]", name="p")
        assert (0.085 - 0.022) - 0.022 < 0.085 - horizon(p)
        tr = Trace([k * 1e-3 for k in range(300)], {"x": [1.0] * 300, "y": [1.0] * 300})
        assert _session_log([p], tr, False)[0] == _session_log([p], tr, True)[0]

    def test_over_the_offsets_cap_the_warm_up_classifies(self, monkeypatch):
        p = parse_property("{V(x)>0}[*0.5] |-> {V(y)>0}", name="p")
        tr = Trace([k * 0.01 for k in range(200)], {"x": [1.0] * 200, "y": [1.0 if k % 70 < 60 else -1.0
                                                                          for k in range(200)]})

        def warm_up_shortcuts():
            """Windows that took the quiet path, split by whether the frontier was within the
            reach of the stream start."""
            sess = Session([p], tr.kinds)
            quiet, taken = sess._quiet, {True: 0, False: 0}

            def counted(st, upto):
                ok = quiet(st, upto)
                taken[st.frontier - st.reach - 4 * sess.eps < sess._t0] += ok
                return ok

            sess._quiet = counted
            return stream(sess, tr) + sess.finalize(), taken

        want, taken = warm_up_shortcuts()
        assert A.offsets(p) == (0.0, 0.5) and taken[True] > 0 and taken[False] > 0
        monkeypatch.setattr(A, "MAX_OFFSETS", 1)
        assert A.offsets(p) is None
        got, taken = warm_up_shortcuts()
        assert got == want and taken[True] == 0 and taken[False] > 0

    def test_offsets_within_horizon_and_reach(self):
        rng = random.Random(4242)
        for _ in range(500):
            p = random_property(rng, ["s0", "s1"], step=rng.choice([None, 0.25]))
            shifts = A.offsets(p)
            assert 0.0 in shifts and shifts == tuple(sorted(shifts))
            assert -horizon(p) - 1e-12 <= shifts[0] and shifts[-1] <= A.reach(p) + 1e-12, pretty(p)
            assert A.reach(p) >= depth(p.antecedent)
