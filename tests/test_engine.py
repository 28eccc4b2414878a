"""Offline match-engine tests: end matches, begin matches, full reports."""

import random

import pytest

from _corpus import random_property, random_trace
from amscheck import (
    Interval,
    IntervalSet,
    Trace,
    assertion_match,
    begin_match,
    build_table,
    end_match,
    minkowski_sum_set,
    parse_property,
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
        got = end_match(p.antecedent, tab)
        # only the 4.1ms-long final component survives a 2ms recurrence
        assert got.approx_eq(S((5.8 * MS, 7.9 * MS)))

    def test_repeat_longer_than_every_component(self):
        p = parse_property("{V(Vout)>=1.14 && V(Vout)<=1.26}[*0.0042] |-> {V(Vout)>1};")
        tr = settle_trace()
        tab = table_for(tr, p)
        assert end_match(p.antecedent, tab).is_empty

    def test_repeat_keeps_flags(self):
        tr = Trace([0.0, 10.0], {"v": [0.0, 10.0]})
        p = parse_property("{V(v)>5}[*1] |-> {V(v)>5};")
        got = end_match(p.antecedent, build_table(tr, p))
        # (5:10] shifted: still open at the (now later) left edge
        assert got.approx_eq(S((6.0, 10.0, False, True)))


class TestEndMatchDelay:
    def test_event_delayed_into_band(self):
        """A point event followed by ##[1ms:4ms] lands on the window clipped
        to where the right operand holds."""
        tr = settle_trace()
        p = parse_property("@+{V(Vout)>0.12} ##[0.001:0.004] {V(Vout)>1.14} |-> {V(Vout)>1};")
        tab = table_for(tr, p)
        got = end_match(p.antecedent, tab)
        # the event is at 0.7ms; window [1.7:4.7]ms; V>1.14 holds (1.6:2.03)...
        right = end_match(band_seq("{V(Vout)>1.14}"), tab)
        want = set_intersect(S((1.7 * MS, 4.7 * MS)), right)
        assert got.approx_eq(want)

    def test_delay_window_arithmetic(self):
        # left matches at one point, right holds everywhere: pure shift
        tr = Trace([0.0, 10.0], {"v": [0.0, 10.0]})
        p = parse_property("@+{V(v)>5} ##[1:2] {V(v)>-1} |-> {V(v)>5};")
        got = end_match(p.antecedent, build_table(tr, p))
        assert got.approx_eq(S((6.0, 7.0)))


class TestEndMatchRepeatUntil:
    def test_handover_needs_both(self):
        tr = Trace([0.0, 10.0], {"v": [0.0, 10.0]})
        # v>2 sustained 1s, then v>8: end matches where both the sustained
        # prefix and the continuation hold
        p = parse_property("{V(v)>2}[*1:3]{V(v)>8} |-> {V(v)>5};")
        tab = build_table(tr, p)
        got = end_match(p.antecedent, tab)
        # prefix alone would allow (3:10]; continuation restricts to (8:10]
        assert got.approx_eq(S((8.0, 10.0, False, True)))


class TestBeginMatch:
    def test_atom_begin_is_truth_within_restrict(self):
        tr = settle_trace()
        seq = band_seq()
        tab = table_for(tr, parse_property("{V(Vout)>=1.14 && V(Vout)<=1.26} |-> {V(Vout)>1.14};"))
        dom = IntervalSet([tr.domain])
        got = begin_match(seq, dom, tab)
        want = S(*[(a * MS, b * MS) for a, b in P1])
        assert got.approx_eq(want, tol=1e-9)

    def test_empty_restrict_short_circuits(self):
        tr = settle_trace()
        seq = band_seq()
        tab = table_for(tr, parse_property("{V(Vout)>=1.14 && V(Vout)<=1.26} |-> {V(Vout)>1.14};"))
        assert begin_match(seq, IntervalSet(), tab).is_empty

    def test_repeat_begin_rewinds_duration(self):
        """An end match of {phi}[*a] at t began at t-a."""
        tr = settle_trace()
        p = parse_property("{V(Vout)>1} |-> {V(Vout)>=1.14 && V(Vout)<=1.26}[*0.002];")
        tab = table_for(tr, p)
        seq = p.consequent
        em = end_match(seq, tab)
        got = begin_match(seq, em, tab)
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
        em_repeat = end_match(p.antecedent, tab)
        em_base = end_match(band_seq(), tab)
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
        emn = end_match(narrow.antecedent, tabn)
        emw = end_match(wide.antecedent, tabw)
        assert set_difference(emn, emw, tr.domain).is_empty

    def test_shift_recurrence_identity(self):
        """Per-component [l:r] -> [l+a:r] equals intersecting all shifts."""
        tr = settle_trace()
        p = parse_property("{V(Vout)>=1.14 && V(Vout)<=1.26}[*0.002] |-> {V(Vout)>1};")
        tab = build_table(tr, p)
        got = end_match(p.antecedent, tab)
        base = end_match(band_seq(), tab)
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
