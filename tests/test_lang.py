"""Parser, AST, and static-analysis tests for the assertion language."""

import pytest

from amscheck import (
    BoundError,
    ParseError,
    RecurrenceError,
    UnsupportedFeatureError,
    collect_atoms,
    depth,
    horizon,
    parse_file,
    parse_property,
    pretty,
    validate,
)
from amscheck import ast as A


class TestParseShapes:
    def test_repeat_antecedent(self):
        p = parse_property("{V(a)>1.6}[*0.0023] |-> {V(b)>1.1};")
        ante = p.antecedent
        assert isinstance(ante, A.Repeat)
        assert ante.dur == pytest.approx(0.0023)
        inner = ante.seq
        assert isinstance(inner, A.SeqBool)
        assert isinstance(inner.bexpr, A.Porv)
        assert isinstance(p.consequent, A.SeqBool)
        assert p.delay is None

    def test_boolean_signal_atoms(self):
        p = parse_property("{x} |-> {x};")
        assert isinstance(p.antecedent.bexpr, A.BoolSignal)
        assert p.antecedent.bexpr.name == "x"

    def test_repeat_until(self):
        p = parse_property("{V(b)>1.1} |-> {V(c)>1.4}[*0.0002:0.0013]{d==1};")
        cons = p.consequent
        assert isinstance(cons, A.RepeatUntil)
        assert cons.lo == pytest.approx(0.0002)
        assert cons.hi == pytest.approx(0.0013)
        assert isinstance(cons.seq, A.SeqBool)
        assert isinstance(cons.cont, A.SeqBool)

    def test_negated_event_under_repeat(self):
        p = parse_property("~{@+{en}}[*0.01] |-> {x};")
        ante = p.antecedent
        assert isinstance(ante, A.Repeat)
        assert isinstance(ante.seq.bexpr, A.Not)
        ev = ante.seq.bexpr.operand
        assert isinstance(ev, A.EventAtom)
        assert ev.edge == "pos"

    def test_delay_chain_is_left_associative(self):
        p = parse_property("{a1} ##[1:2] {b1} ##[3:4] {c1} |-> {x};")
        outer = p.antecedent
        assert isinstance(outer, A.Delay)
        assert (outer.lo, outer.hi) == (3.0, 4.0)
        assert isinstance(outer.left, A.Delay)
        assert (outer.left.lo, outer.left.hi) == (1.0, 2.0)

    def test_delayed_implication(self):
        p = parse_property("{x} |-> ##[0.5:1.5] {y};")
        assert p.delay == (0.5, 1.5)
        assert isinstance(p.consequent, A.SeqBool)

    def test_event_edges(self):
        for tok, edge in (("@+", "pos"), ("@-", "neg"), ("@", "any")):
            p = parse_property("%s{d==1} |-> {x};" % tok)
            assert p.antecedent.bexpr.edge == edge

    def test_comparison_desugar(self):
        # "f < 0" and "f <= 0" become negations of the dual porv
        p = parse_property("{V(a) <= 1.6} |-> {x};")
        b = p.antecedent.bexpr
        assert isinstance(b, A.Not)
        assert isinstance(b.operand, A.Porv)
        assert b.operand.rel == ">"


class TestDepthAndHorizon:
    def test_atom_depth_zero(self):
        p = parse_property("{V(a)>1.6} |-> {x};")
        assert depth(p.antecedent) == 0.0
        assert depth(p.consequent) == 0.0

    def test_settling_consequent_horizon(self):
        p = parse_property(
            "@+{V(o)>0.32} |-> ##[0:0.006] {V(o)>3.04 && V(o)<=3.36}[*0.002];"
        )
        assert horizon(p) == pytest.approx(0.008)

    def test_delay_repeat_antecedent_depth(self):
        p = parse_property(
            "{V(a)>1.6}##[0.0013:0.0029]{V(c)>1.4}[*0.0003]"
            " |-> {d==1}[*0.0004:0.0012]{V(b)>1.1};"
        )
        assert depth(p.antecedent) == pytest.approx(0.0032)
        assert depth(p.consequent) == pytest.approx(0.0012)
        assert horizon(p) == pytest.approx(0.0012)

    def test_top_level_delay_adds_to_horizon(self):
        p = parse_property("{x} |-> ##[0.001:0.004] {V(o)>1.14}[*0.002];")
        assert horizon(p) == pytest.approx(0.006)


class TestAtomCollection:
    def test_collect_unique_atoms(self):
        p = parse_property("{V(b)>1.1} |-> {V(c)>1.4}[*0.0002:0.0013]{d==1};")
        atoms = collect_atoms(p)
        assert len(atoms) == 3
        kinds = sorted(type(a).__name__ for a in atoms)
        assert kinds == ["BoolSignal", "Porv", "Porv"]

    def test_duplicate_atoms_collapse(self):
        p = parse_property("{V(a)>1.6} |-> {V(a)>1.6}[*0.001];")
        assert len(collect_atoms(p)) == 1


ROUND_TRIP_CORPUS = [
    "{V(a)>1.6}[*0.0023] |-> {V(b)>1.1};",
    "{V(b)>1.1} |-> {V(c)>1.4}[*0.0002:0.0013]{d==1};",
    "{V(a)>1.6}##[0.0013:0.0029]{V(c)>1.4}[*0.0003] |-> {d==1}[*0.0004:0.0012]{V(b)>1.1};",
    "@+{V(o)>0.32} |-> ##[0:0.006] {V(o)>3.04 && V(o)<=3.36}[*0.002];",
    "~{@+{en}}[*0.01] |-> {x};",
    "{x && ~y} |-> {V(a)+2*V(b)-1 >= 0};",
    "{x} |-> ##[0.5:1.5] {y};",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_pretty_round_trip(text):
    """pretty() output reparses to an identical rendering."""
    once = pretty(parse_property(text))
    again = pretty(parse_property(once))
    assert once == again


class TestErrors:
    def test_reversed_bounds(self):
        with pytest.raises(BoundError):
            parse_property("{x} |-> ##[0.004:0.001] {y};")

    def test_negative_bound(self):
        with pytest.raises(BoundError):
            parse_property("{x} |-> ##[-0.001:0.004] {y};")

    def test_negative_recurrence(self):
        with pytest.raises(RecurrenceError):
            parse_property("{x}[*-0.5] |-> {y};")

    def test_zero_recurrence(self):
        with pytest.raises(RecurrenceError):
            parse_property("{x}[*0] |-> {y};")

    def test_local_assignment_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_property("{V(a)>1.6, v=V(b)} |-> {x};")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_property("{V(a)>1.6} |-> ;")
        msg = str(exc.value)
        assert "line 1" in msg and "col" in msg

    @pytest.mark.parametrize("digit", ["²", "¹", "①"])
    def test_digit_like_character_is_a_parse_error(self, digit):
        # str.isdigit holds for these, but they are no decimal digits: float() rejects them
        with pytest.raises(ParseError, match=f"line 1, col 9: unexpected character '{digit}'"):
            parse_property("{V(x) > %s} |-> {V(x)<1}" % digit)
        with pytest.raises(ParseError, match="line 2, col 7: unexpected character '²'"):
            parse_property("{V(x) >\n 1 + 1²} |-> {V(x)<1}")

    def test_trailing_semicolon_optional(self):
        bare = parse_property("{x} |-> {y}")
        term = parse_property("{x} |-> {y};")
        assert pretty(bare) == pretty(term)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_property("{x} |-> {y}; stray")

    def test_validate_accepts_parsed(self):
        p = parse_property("{x} |-> {y};")
        validate(p)


class TestParseFile:
    def test_multiple_assertions_autonamed(self):
        text = "{x} |-> {y};\n{y} |-> {x};\n"
        props = parse_file(text)
        assert [p.name for p in props] == ["a1", "a2"]

    def test_labels_kept(self):
        text = "settle: {x} |-> {y};\n"
        props = parse_file(text)
        assert props[0].name == "settle"

    def test_comments_ignored(self):
        text = "# leading comment\n{x} |-> {y}; # trailing\n"
        assert len(parse_file(text)) == 1
