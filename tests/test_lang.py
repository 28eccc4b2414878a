"""Parser, AST, and static-analysis tests for the assertion language."""

import pytest

from amscheck import (
    BoundError,
    IntervalSet,
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
from amscheck.expr import BinOp, Const, SignalRef


def porv(text):
    """The predicate of '{text} |-> {x};'."""
    return parse_property("{%s} |-> {x};" % text).antecedent.bexpr


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

    def test_parenthesized_boolean_member(self):
        p = parse_property("{(V(x)>0 || V(y)>0) && d} |-> {y};")
        b = p.antecedent.bexpr
        assert isinstance(b, A.And)
        assert b.terms == (A.Or(porv("V(x)>0"), porv("V(y)>0")), A.BoolSignal("d"))

    @pytest.mark.parametrize("text,want", [
        ("{%sV(x)%s>0}", porv("V(x)>0")),
        ("{%sV(x)>0%s}", porv("V(x)>0")),
        ("{%sV(x)+1%s*2>0}", porv("(V(x)+1)*2>0")),
        ("{%sd%s}", A.BoolSignal("d")),
        ("{%sV(x)>%s}", "expected ')', got '>'"),
    ], ids=["arithmetic", "boolean", "arithmetic-then-operator", "signal", "neither"])
    def test_parentheses_parse_in_linear_time(self, monkeypatch, text, want):
        """Each `(` of a member is tried as a Boolean group and then reread as arithmetic, and
        so is every `(` around it; the arithmetic inside is parsed once, so the tokens taken grow
        linearly with the depth, and the result is the same at any depth."""
        from amscheck import parser

        taken = []
        take = parser._Parser.take
        monkeypatch.setattr(parser._Parser, "take", lambda self: taken.append(self.pos) or take(self))
        for n in (1, 10, 98):
            src = "p: " + text % ("(" * n, ")" * n) + " |-> {V(x)>0};"
            del taken[:]
            try:
                got = parse_file(src)[0].antecedent.bexpr
            except ParseError as exc:
                got = str(exc).split(": ", 1)[1]
            assert got == want and len(taken) <= 2 * len(parser._lex(src)), (n, len(taken))

    def test_analog_equality_is_a_value_tol_band(self):
        # V(x)==1 holds where (x - 1) + tol >= 0 and tol - (x - 1) >= 0
        for tol in (1e-6, 1e-3):
            b = parse_property("{V(x)==1} |-> {y};", value_tol=tol).antecedent.bexpr
            assert isinstance(b, A.And) and len(b.terms) == 2
            f = BinOp("-", SignalRef("x"), Const(1.0))
            assert b.terms == (A.Porv(BinOp("+", f, Const(tol)), ">="), A.Porv(BinOp("-", Const(tol), f), ">="))

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


def test_pretty_negated_disjunction_in_conjunction():
    p = parse_property("{x && ~{V(a)>0 || V(b)>0}} |-> {y};")
    assert pretty(p) == "{x && ~{V(a) > 0 OR V(b) > 0}} |-> {y};"
    assert parse_property(pretty(p)) == p


def test_str_of_event_atom():
    assert str(A.EventAtom(porv("V(x)>0.5"), "pos")) == "@+{V(x)-0.5 > 0}"
    assert str(A.EventAtom(A.BoolSignal("en"), "neg")) == "@-{en}"
    assert str(A.EventAtom(porv("V(x)>=0"), "any")) == "@{V(x) >= 0}"


class TestErrors:
    def test_reversed_bounds(self):
        with pytest.raises(BoundError):
            parse_property("{x} |-> ##[0.004:0.001] {y};")

    def test_negative_bound(self):
        with pytest.raises(BoundError):
            parse_property("{x} |-> ##[-0.001:0.004] {y};")

    @pytest.mark.parametrize("text,msg", [
        ("{x} |-> ##[0:1e309] {y};", "bounds [0:inf] need finite values"),
        ("{x} ##[1e309:1e309] {y} |-> {z};", "bounds [inf:inf] need finite values (at line 1, col 7)"),
        ("{x}[*1e309] |-> {y};", "recurrence [*inf] needs a finite duration (at line 1, col 4)"),
        ("{x}[*0:1e309] {y} |-> {z};", "bounds [0:inf] need finite values (at line 1, col 4)"),
        # finite bounds whose sum overflows
        ("{V(x)>0}[*1e308] ##[0:1e308] {y} |-> {z};", "antecedent depth inf and horizon 0 must be finite"),
        ("{x} |-> ##[0:1e308] {y}[*1e308];", "antecedent depth 0 and horizon inf must be finite"),
    ])
    def test_non_finite_bound(self, text, msg):
        with pytest.raises(BoundError) as exc:
            parse_property(text)
        assert str(exc.value) == msg

    def test_largest_finite_bounds_pass(self):
        p = parse_property("{x}[*1e308] |-> ##[0:1e308] {y};")
        assert (depth(p.antecedent), horizon(p)) == (1e308, 1e308)

    CHAIN = " ##[0:0.01] {V(x)>0.5}"

    @pytest.mark.parametrize("text,where", [
        ("{V(x)>0}" + CHAIN * 1500 + " |-> {V(x)>0};", ""),
        ("{V(x)>0} |-> {V(x)>0}" + CHAIN * 1500 + ";", ""),
        ("{" + " OR ".join(["V(x)>0"] * 1500) + "} |-> {V(x)>0};", ""),
        # the parser recurses once per bracket, `~`, unary minus and recurrence continuation:
        # it stops at the token that opens the level past the cap
        ("{" * 1500 + "V(x)>0" + "}" * 1500 + " |-> {V(x)>0};", "line 1, col 104: "),
        ("{" + "(" * 1500 + "V(x)>0" + ")" * 1500 + "} |-> {V(x)>0};", "line 1, col 104: "),
        ("{" + "~{" * 1500 + "V(x)>0" + "}" * 1501 + " |-> {V(x)>0};", "line 1, col 203: "),
        ("{" + "-" * 1500 + "V(x)>0} |-> {V(x)>0};", "line 1, col 104: "),
        ("{V(x)>0}[*0:1] " * 1500 + "{V(x)>0} |-> {V(x)>0};", "line 1, col 1504: "),
        # hashing, compiling and printing a predicate recurse once per arithmetic operator
        ("{V(x)" + "+V(x)" * 600 + ">0} |-> {V(x)>0};", ""),
        ("{V(x)" + "*V(x)" * 150 + ">0} |-> {V(x)>0};", ""),
    ], ids=["antecedent-chain", "consequent-chain", "or-chain", "braces", "parentheses", "negations", "unary-minus",
            "recurrence-chain", "sum", "product"])
    def test_nesting_too_deep(self, text, where):
        with pytest.raises(ParseError if where else BoundError) as exc:
            parse_file("p: " + text)
        assert str(exc.value) == f"{where}assertion nests deeper than {A.MAX_NESTING} levels"

    def test_deepest_nesting_checks_and_streams(self):
        """The walks over a property recurse per level: the deepest chain, sum and
        bracketing that validate still print, reparse, check and stream."""
        from amscheck import Session, Trace, assertion_match, build_table

        steps = A.MAX_NESTING - 2  # the property, the innermost step's SeqBool and its atom are levels too
        ops = A.MAX_NESTING - 1  # the predicate's top operator shares its level, two below the property
        with pytest.raises(BoundError):
            parse_property("{V(x)>0}" + self.CHAIN * (steps + 1) + " |-> {V(x)>0};")
        with pytest.raises(BoundError):
            parse_property("{V(x)" + "+V(x)" * (ops + 1) + ">0} |-> {V(x)>0};")
        with pytest.raises(ParseError):
            parse_property("{" * (A.MAX_NESTING + 1) + "V(x)>0" + "}" * (A.MAX_NESTING + 1) + " |-> {V(x)>0};")
        for text in ["{V(x)>0}" + self.CHAIN * steps + " |-> {V(x)>0};",
                     "{V(x)>0} |-> {V(x)>0}" + self.CHAIN * steps + ";",
                     "{V(x)" + "+V(x)" * ops + ">0} |-> {V(x)>0};",
                     "{" * A.MAX_NESTING + "V(x)>0" + "}" * A.MAX_NESTING + " |-> {V(x)>0};"]:
            p = parse_property(text, name="p")
            assert parse_property(pretty(p), name="p") == p
            tr = Trace([0.0, 0.5, 1.0, 1.5, 2.0], {"x": [1.0, 0.2, 1.0, 1.0, -1.0]})
            rep = assertion_match(p, build_table(tr, p))
            sess = Session([p], ["x"])
            verdicts = [v for i in range(len(tr)) for v in sess.feed(*tr.sample(i))] + sess.finalize()
            assert IntervalSet([v.interval for v in verdicts if v.kind == "fail"]).approx_eq(rep.fail)

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

    @pytest.mark.parametrize("text, col, name", [
        ("{d + V(x) > 0}", 2, "d"),  # left operand
        ("{V(x) + d > 0}", 2, "d"),  # right operand
        ("{-d > 0}", 2, "d"),  # under unary minus
        ("{(V(x) - d) >= 0}", 2, "d"),  # inside parentheses
        ("{ 2 * d < V(x)}", 3, "d"),  # inside a product
        ("{V(x) > d}", 2, "d"),  # right side of the relation
        ("{d * 2 <= V(x)}", 2, "d"),  # left side of the relation
        ("{V(x) > 1 && V(y) - e == e}", 14, "e"),  # the first one, in the second conjunct
        ("{V(x) - a > b}", 2, "a"),
    ])
    def test_digital_signal_in_arithmetic(self, text, col, name):
        msg = f"line 1, col {col}: digital signal {name!r} cannot appear in arithmetic; use V({name}) for analog values"
        with pytest.raises(ParseError) as exc:
            parse_property(text + " |-> {V(x) > 0};")
        assert str(exc.value) == msg
        with pytest.raises(ParseError) as exc:
            parse_property("{V(x) > 0} |-> " + text)
        assert str(exc.value) == msg.replace(f"col {col}", f"col {col + 15}")

    @pytest.mark.parametrize("text, msg", [
        ("{x} |-> {y} {x}", "line 1, col 13: expected ';', got '{'"),
        ("{x} |-> {y}", "line 1, col 12: expected ';', got 'end of input'"),
        ("{F(x)>0} |-> {y};", "line 1, col 2: unknown function 'F'"),
        ("{d == 2} |-> {y};", "line 1, col 2: digital signal 'd' only supports == 0 or == 1"),
        ("@+{V(x) < 1} |-> {y};", "line 1, col 1: event predicate must be a single comparison or signal"),
        ("{x} |-> @-{d == 0};", "line 1, col 9: event predicate must be a single comparison or signal"),
        ("{x} |->\n  @{V(x) == 1};", "line 2, col 3: event predicate must be a single comparison or signal"),
    ])
    def test_parse_error_message(self, text, msg):
        with pytest.raises(ParseError) as exc:
            parse_file(text)
        assert str(exc.value) == msg

    def test_reversed_bounds_inside_a_sequence(self):
        with pytest.raises(BoundError) as exc:
            parse_property("{x}\n  ##[2:1] {y} |-> {z};")
        assert str(exc.value) == "bounds [2:1] need 0 <= a <= b (at line 2, col 5)"

    def test_two_events_in_one_conjunct(self):
        with pytest.raises(UnsupportedFeatureError, match="at most one event per conjunct"):
            parse_property("{@+{x} && @-{V(y)>0}} |-> {z};")

    @pytest.mark.parametrize("text", ["{x} |->", "{x} |-> {", "{V(x)>0.5} |-> ##[0:1]", "{x} |-> @+{", "{"])
    def test_unfinished_assertion_is_a_parse_error(self, text):
        # the text ends where a relation is expected
        with pytest.raises(ParseError, match="expected a number, signal, or parenthesized expression"):
            parse_property(text)


class TestParseFile:
    def test_multiple_assertions_autonamed(self):
        text = "{x} |-> {y};\n{y} |-> {x};\n"
        props = parse_file(text)
        assert [p.name for p in props] == ["a1", "a2"]

    def test_labels_kept(self):
        text = "settle: {x} |-> {y};\n"
        props = parse_file(text)
        assert props[0].name == "settle"

    @pytest.mark.parametrize("head, tail", [
        ("property p{};", "endproperty"),
        ("property p {}", "endproperty;"),
        ("property p;", "endproperty;"),
        ("property p", "endproperty"),
    ])
    def test_property_block(self, head, tail):
        text = f"# a block\n{head}\n  x |-> ##[1:2] {{V(y)>0}};\n{tail}\nq: {{y}} |-> {{x}};\n{{x}} |-> {{y}};\n"
        props = parse_file(text)
        assert [p.name for p in props] == ["p", "q", "a1"]
        assert pretty(props[0]) == "{x} |-> ##[1:2] {V(y) > 0};"

    @pytest.mark.parametrize("text, col", [
        ("property p {}; {x} |-> {y};", 28),
        ("property p {}; {x} |-> {y}; q: {x} |-> {y};", 29),
    ])
    def test_property_block_needs_endproperty(self, text, col):
        with pytest.raises(ParseError) as exc:
            parse_file(text)
        assert str(exc.value) == f"line 1, col {col}: expected 'endproperty'"

    def test_comments_ignored(self):
        text = "# leading comment\n{x} |-> {y}; # trailing\n"
        assert len(parse_file(text)) == 1

    @pytest.mark.parametrize("text, msg", [
        ("p: {x} |-> {y};\np: {y} |-> {x};", "line 2, col 1: assertion name 'p' is already used on line 1"),
        # the third assertion is the second unlabeled one, so it is named a2 like the label
        ("{x} |-> {y};\na2: {y} |-> {x};\n  {x} |-> {x};", "line 3, col 3: assertion name 'a2' is already used on line 2"),
        ("a1: {x} |-> {y}; {y} |-> {x};", "line 1, col 18: assertion name 'a1' is already used on line 1"),
        ("property p; {x} |-> {y}; endproperty\n\np: {y} |-> {x};",
         "line 3, col 1: assertion name 'p' is already used on line 1"),
    ])
    def test_repeated_name_is_a_parse_error(self, text, msg):
        with pytest.raises(ParseError) as exc:
            parse_file(text)
        assert str(exc.value) == msg
