"""Offline match-engine tests: end matches, begin matches, full reports."""

import random
from dataclasses import replace

import pytest

from _corpus import random_property, random_trace
from amscheck import (
    Interval,
    IntervalSet,
    Trace,
    assertion_match,
    build_table,
    horizon,
    minkowski_diff_set,
    minkowski_sum_set,
    parse_property,
    pretty,
    set_complement,
    set_difference,
    set_intersect,
    set_union,
)
from amscheck.engine import _Evaluator, classify
from amscheck.wavegen import fixture_trace

MS = 1e-3


def S(*spans):
    return IntervalSet(Interval(*sp) for sp in spans)


def table_for(trace, *props):
    return build_table(trace, list(props))


def settle_trace():
    return fixture_trace("settling")


def band_seq(text="{V(Vout)>=1.14 && V(Vout)<=1.26}"):
    # parsed inside a dummy property so validation runs
    return parse_property(text + " |-> {V(Vout)>=1.14};").antecedent


# P1 truth on the settling fixture, in ms.
P1 = ((1.6, 2.03), (2.41, 2.66), (3.04, 3.55), (3.8, 7.9))


class TestEndMatchRepeat:
    def test_repeat_trims_component_heads(self):
        """[l:r] sustained for a becomes [l+a:r]; short components drop out."""
        p = parse_property(
            "{V(Vout)>=1.14 && V(Vout)<=1.26}[*0.002] |-> {V(Vout)>1};"
        )
        tr = settle_trace()
        tab = table_for(tr, p)
        got = _Evaluator(tab).end(p.antecedent)
        # only the 4.1ms-long final component survives a 2ms recurrence
        assert got.approx_eq(S((5.8 * MS, 7.9 * MS)))

    def test_repeat_longer_than_every_component(self):
        p = parse_property("{V(Vout)>=1.14 && V(Vout)<=1.26}[*0.0042] |-> {V(Vout)>1};")
        tr = settle_trace()
        tab = table_for(tr, p)
        assert _Evaluator(tab).end(p.antecedent).is_empty

    def test_repeat_keeps_flags(self):
        tr = Trace([0.0, 10.0], {"v": [0.0, 10.0]})
        p = parse_property("{V(v)>5}[*1] |-> {V(v)>5};")
        got = _Evaluator(build_table(tr, p)).end(p.antecedent)
        # (5:10] shifted: still open at the (now later) left edge
        assert got.approx_eq(S((6.0, 10.0, False, True)))


class TestEndMatchDelay:
    def test_event_delayed_into_band(self):
        """A point event followed by ##[1ms:4ms] lands on the window clipped
        to where the right operand holds."""
        tr = settle_trace()
        p = parse_property("@+{V(Vout)>0.12} ##[0.001:0.004] {V(Vout)>1.14} |-> {V(Vout)>1};")
        tab = table_for(tr, p)
        got = _Evaluator(tab).end(p.antecedent)
        # the event is at 0.7ms; window [1.7:4.7]ms; V>1.14 holds (1.6:2.03)...
        right = _Evaluator(tab).end(band_seq("{V(Vout)>1.14}"))
        want = set_intersect(S((1.7 * MS, 4.7 * MS)), right)
        assert got.approx_eq(want)

    def test_delay_window_arithmetic(self):
        # left matches at one point, right holds everywhere: pure shift
        tr = Trace([0.0, 10.0], {"v": [0.0, 10.0]})
        p = parse_property("@+{V(v)>5} ##[1:2] {V(v)>-1} |-> {V(v)>5};")
        got = _Evaluator(build_table(tr, p)).end(p.antecedent)
        assert got.approx_eq(S((6.0, 7.0)))


class TestEndMatchRepeatUntil:
    def test_handover_needs_both(self):
        tr = Trace([0.0, 10.0], {"v": [0.0, 10.0]})
        # v>2 sustained 1s, then v>8: end matches where both the sustained
        # prefix and the continuation hold
        p = parse_property("{V(v)>2}[*1:3]{V(v)>8} |-> {V(v)>5};")
        tab = build_table(tr, p)
        got = _Evaluator(tab).end(p.antecedent)
        # prefix alone would allow (3:10]; continuation restricts to (8:10]
        assert got.approx_eq(S((8.0, 10.0, False, True)))


class TestBeginMatch:
    def test_atom_begin_is_truth_within_restrict(self):
        tr = settle_trace()
        seq = band_seq()
        tab = table_for(tr, parse_property("{V(Vout)>=1.14 && V(Vout)<=1.26} |-> {V(Vout)>1.14};"))
        dom = IntervalSet([tr.domain])
        got = _Evaluator(tab).begin(seq, dom)
        want = S(*[(a * MS, b * MS) for a, b in P1])
        assert got.approx_eq(want, tol=1e-9)

    def test_empty_restrict_short_circuits(self):
        tr = settle_trace()
        seq = band_seq()
        tab = table_for(tr, parse_property("{V(Vout)>=1.14 && V(Vout)<=1.26} |-> {V(Vout)>1.14};"))
        assert _Evaluator(tab).begin(seq, IntervalSet()).is_empty

    def test_repeat_begin_rewinds_duration(self):
        """An end match of {phi}[*a] at t began at t-a."""
        tr = settle_trace()
        p = parse_property("{V(Vout)>1} |-> {V(Vout)>=1.14 && V(Vout)<=1.26}[*0.002];")
        tab = table_for(tr, p)
        seq = p.consequent
        em = _Evaluator(tab).end(seq)
        got = _Evaluator(tab).begin(seq, em)
        want = IntervalSet(Interval(i.lo - 0.002, i.hi - 0.002, i.lo_closed, i.hi_closed) for i in em.items)
        assert got.approx_eq(want)


class TestAssertionMatch:
    def test_settling_golden(self):
        """The packaged settling run matches at exactly the trigger instant."""
        tr = settle_trace()
        p = parse_property(
            "@+{V(Vout)>0.12} |-> ##[0.001:0.004] "
            "{V(Vout)>=1.14 && V(Vout)<=1.26}[*0.002];",
            name="settling",
        )
        rep = assertion_match(p, build_table(tr, p))
        assert rep.nonvacuous.approx_eq(S((0.7 * MS, 0.7 * MS)))
        assert rep.fail.is_empty
        assert rep.undetermined.is_empty
        vac = rep.vacuous
        assert vac.approx_eq(
            S((0.0, 0.7 * MS, True, False), (0.7 * MS, 8.0 * MS, False, True))
        )
        assert rep.ok

    def test_partition_of_domain(self):
        """match, vacuous, fail, undetermined tile the trace domain."""
        tr = settle_trace()
        p = parse_property(
            "@+{V(Vout)>0.12} |-> ##[0.001:0.004] "
            "{V(Vout)>=1.14 && V(Vout)<=1.26}[*0.002];"
        )
        rep = assertion_match(p, build_table(tr, p))
        dom = Interval(tr.domain.lo, tr.domain.hi)
        u = set_union(
            set_union(rep.nonvacuous, rep.vacuous),
            set_union(rep.fail, rep.undetermined),
        )
        assert u.approx_eq(IntervalSet([dom]))
        # pairwise disjoint
        for a, b in (
            (rep.nonvacuous, rep.vacuous),
            (rep.nonvacuous, rep.fail),
            (rep.vacuous, rep.fail),
            (rep.fail, rep.undetermined),
        ):
            assert set_intersect(a, b).is_empty

    def test_never_true_antecedent_all_vacuous(self):
        tr = settle_trace()
        p = parse_property("{V(Vout)>9} |-> {V(Vout)>1};")
        rep = assertion_match(p, build_table(tr, p))
        assert rep.nonvacuous.is_empty
        assert rep.fail.is_empty
        assert rep.vacuous.approx_eq(IntervalSet([tr.domain]))

    def test_escape_fixture_fails_at_trigger(self):
        """Crossing arrives 4.3us after the trigger, outside [2:4.25]us."""
        tr = fixture_trace("delay-escape")
        p = parse_property(
            "@+{V(Vin)>3} |-> ##[0.000002:0.00000425] {V(Vout)>1.8};"
        )
        rep = assertion_match(p, build_table(tr, p))
        assert rep.fail.approx_eq(S((1e-5, 1e-5)))
        assert rep.nonvacuous.is_empty

    def test_delayed_consequent_pullback(self):
        """With |-> ##[a:b], a consequent begun in [t+a:t+b] validates t."""
        tr = Trace([0.0, 10.0], {"v": [0.0, 10.0]})
        p = parse_property("@+{V(v)>5} |-> ##[1:2] {V(v)>6};")
        rep = assertion_match(p, build_table(tr, p))
        assert rep.nonvacuous.approx_eq(S((5.0, 5.0)))
        assert rep.fail.is_empty

    def test_horizon_trims_late_failures(self):
        """A would-be failure inside the final horizon is undetermined."""
        # antecedent always true, consequent requires 3s sustain of a porv
        # that is true only up to t=5: beyond t=2 the sustain cannot finish
        tr2 = Trace([0.0, 5.0, 5.001, 10.0], {"v": [1.0, 1.0, 0.0, 0.0]})
        p = parse_property("{V(v)>-1} |-> {V(v)>0.5}[*3];")
        rep = assertion_match(p, build_table(tr2, p))
        assert rep.horizon == pytest.approx(3.0)
        # failures cannot extend into (7:10]
        for comp in rep.fail.items:
            assert comp.hi <= 7.0 + 1e-9
        assert not rep.undetermined.is_empty

    def test_status_at(self):
        tr = settle_trace()
        p = parse_property(
            "@+{V(Vout)>0.12} |-> ##[0.001:0.004] "
            "{V(Vout)>=1.14 && V(Vout)<=1.26}[*0.002];"
        )
        rep = assertion_match(p, build_table(tr, p))
        assert rep.status_at(0.7 * MS) == "match"
        assert rep.status_at(0.3 * MS) == "vacuous"


class TestRecurrenceLaws:
    def test_repeat_result_within_operand_truth(self):
        tr = settle_trace()
        p = parse_property("{V(Vout)>=1.14 && V(Vout)<=1.26}[*0.001] |-> {V(Vout)>1};")
        tab = build_table(tr, p)
        em_repeat = _Evaluator(tab).end(p.antecedent)
        em_base = _Evaluator(tab).end(band_seq())
        dom = tr.domain
        assert set_difference(em_repeat, em_base, dom).is_empty

    def test_delay_window_monotone(self):
        """Widening the delay window never loses end matches."""
        tr = settle_trace()
        narrow = parse_property(
            "@+{V(Vout)>0.12} ##[0.001:0.002] {V(Vout)>1.14} |-> {V(Vout)>1};"
        )
        wide = parse_property(
            "@+{V(Vout)>0.12} ##[0.001:0.004] {V(Vout)>1.14} |-> {V(Vout)>1};"
        )
        tabn = table_for(tr, narrow)
        tabw = table_for(tr, wide)
        emn = _Evaluator(tabn).end(narrow.antecedent)
        emw = _Evaluator(tabw).end(wide.antecedent)
        assert set_difference(emn, emw, tr.domain).is_empty

    def test_shift_recurrence_identity(self):
        """Per-component [l:r] -> [l+a:r] equals intersecting all shifts."""
        tr = settle_trace()
        p = parse_property("{V(Vout)>=1.14 && V(Vout)<=1.26}[*0.002] |-> {V(Vout)>1};")
        tab = build_table(tr, p)
        got = _Evaluator(tab).end(p.antecedent)
        base = _Evaluator(tab).end(band_seq())
        for comp in got.items:
            src = [c for c in base.items if c.lo <= comp.lo and comp.hi <= c.hi + 1e-12]
            assert src, f"repeat match {comp} outside every operand component"
            assert comp.lo == pytest.approx(src[0].lo + 0.002)
            assert comp.hi == pytest.approx(src[0].hi)


class TestClassifyWindows:
    """Classifying the pieces of a split domain gives the whole-domain report."""

    def test_split_domain_agrees(self):
        rng = random.Random(31)
        for case in range(60):
            tr = random_trace(rng)
            p = random_property(rng, list(tr.signals))
            tab = build_table(tr, p)
            whole = assertion_match(p, tab)
            lo, hi = tab.domain.lo, tab.domain.hi
            cuts = sorted(rng.uniform(lo, hi) for _ in range(rng.randint(1, 4)))
            pieces = [Interval(lo, cuts[0])]
            pieces += [Interval(a, b, False, True) for a, b in zip(cuts, cuts[1:] + [hi])]
            ev = _Evaluator(tab)
            reps = [classify(ev, p, "r", w) for w in pieces]
            for field in ("nonvacuous", "vacuous", "fail", "undetermined"):
                got = IntervalSet(c for r in reps for c in getattr(r, field))
                assert got.approx_eq(getattr(whole, field)), (case, field)


def reference_partition(ev, p, within):
    """The verdict formulas with the consequent always evaluated, whatever the antecedent does."""
    eps, domain = ev.eps, ev.domain
    em = ev.end(p.antecedent)
    if within != domain:
        em = set_intersect(em, IntervalSet([within], eps), eps)
    bm = ev.begin(p.consequent, ev.dom_set)
    if p.delay is not None:
        bm = set_intersect(minkowski_diff_set(bm, *p.delay, eps), ev.dom_set, eps)
    matched = set_intersect(em, bm, eps)
    vac = set_complement(em, within, eps)
    fail = set_complement(set_union(matched, vac, eps), within, eps)
    und = IntervalSet((), eps)
    tail = Interval(domain.hi - horizon(p), domain.hi, False, True).intersect(within)
    if not tail.is_empty:
        tail_set = IntervalSet([tail], eps)
        und = set_intersect(fail, tail_set, eps)
        fail = set_difference(fail, tail_set, within, eps)
    return matched, vac, fail, und


class TestAntecedentFirst:
    """Skipping the consequent where the antecedent ends no match changes no verdict."""

    FIELDS = ("nonvacuous", "vacuous", "fail", "undetermined")

    def windows(self, rng, em, dom, eps):
        lo, hi = dom.lo, dom.hi
        a, b = sorted(rng.uniform(lo, hi) for _ in range(2))
        yield dom
        yield Interval(a, b, False, True)  # a streaming window
        yield Interval(a, a)  # a closed point
        yield Interval(a, a + eps / 2, False, True)  # narrower than eps
        yield Interval(b, min(b + eps / 2, hi))
        for k in em.keys[:2]:
            yield Interval(k[0], k[0])  # a point at an antecedent match edge
            yield Interval(lo, k[0], True, not k[1])  # up to the match, exclusive
        # inside the gaps between antecedent matches
        for g in set_complement(em, dom, eps).keys[:3]:
            c, d = sorted(rng.uniform(g[0], g[2]) for _ in range(2))
            yield Interval(c, d, False, True)
            yield Interval(c, c)

    def test_equals_reference_partition(self):
        rng = random.Random(2024)
        never = parse_property("{V(s0)>1e9} |-> {V(s0)>0};").antecedent
        pairs = empty = 0
        for case in range(40):
            tr = random_trace(rng)
            p = random_property(rng, list(tr.signals))
            for prop in (p, replace(p, antecedent=never)) if case % 4 == 0 else (p,):
                tab = build_table(tr, prop)
                eps = tab.eps
                em = _Evaluator(tab).end(prop.antecedent)
                for w in self.windows(rng, em, tab.domain, eps):
                    if w.is_empty:
                        continue
                    want = reference_partition(_Evaluator(tab), prop, w)
                    got = classify(_Evaluator(tab), prop, "r", w)
                    for field, ref in zip(self.FIELDS, want):
                        assert getattr(got, field).keys == ref.keys, (case, field, w, pretty(prop))
                    pairs += 1
                    empty += set_intersect(em, IntervalSet([w], eps), eps).is_empty
        assert pairs >= 200 and empty >= 50, (pairs, empty)
