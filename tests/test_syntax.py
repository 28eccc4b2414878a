"""The lexer, the value classes, syntax-tree traversal and the pretty-printer round trip."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import random_property
from _lex_reference import reference_lex
from amscheck import ast as A
from amscheck import Interval, ParseError, Verdict, generate_monitors, parse_file, parse_property, pretty
from amscheck.expr import BinOp, Const, Neg, Node, SignalRef, expr_signals, format_number, iter_expr
from amscheck.parser import _lex

FIXTURE_PROPS = """\
p1: {V(a)>1.6}[*0.0023] |-> {V(b)>1.1};
p2: {@+{V(a)>0.5} && V(b)<1} |-> ##[0.1:1.0] {V(b)>-2 OR ~{x && V(a)>=2}};
p3: {V(c)>0} ##[0:2] {x==0}[*1:3] @-{y} |-> ##[1:2] {{V(a)>0} ##[1:2] {V(b)>0}};
"""


def reference_nodes(node):
    """Pre-order walk over every field that holds a property node."""
    yield node
    if isinstance(node, A.ATOMS):
        return
    for field in type(node).__slots__:
        value = getattr(node, field)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, Node) and type(item).__module__ == A.__name__:
                yield from reference_nodes(item)


def sample_properties():
    rng = random.Random(5)
    props = parse_file(FIXTURE_PROPS)
    props += [random_property(rng, ["s0", "s1", "s2"]) for _ in range(200)]
    return props


class TestIterNodes:
    def test_matches_reference_walker(self):
        for p in sample_properties():
            got = list(A.iter_nodes(p))
            want = list(reference_nodes(p))
            assert len(got) == len(want) and all(a is b for a, b in zip(got, want)), pretty(p)

    def test_samples_cover_every_node_type(self):
        """A new node type must show up here, so the walker comparison sees it."""
        classes = [c for c in vars(A).values() if isinstance(c, type)]
        node_types = {c for c in classes if issubclass(c, Node) and c.__module__ == A.__name__} - {A._TreeNode}
        seen = {type(n) for p in sample_properties() for n in A.iter_nodes(p)}
        assert seen == node_types

    def test_atoms_are_leaves(self):
        ev = A.EventAtom(A.Porv(SignalRef("a"), ">"), "pos")
        assert A.children(ev) == ()
        assert list(A.iter_nodes(ev)) == [ev]

    def test_collect_atoms_first_occurrence_order(self):
        p = parse_property("{V(a)>0 && V(b)>0} |-> {V(b)>0 && V(a)>0 && @+{V(a)>0}};")
        assert [str(a) for a in A.collect_atoms(p)] == ["V(a) > 0", "V(b) > 0", "@+{V(a) > 0}"]


class TestNode:
    """The field rules that the syntax tree and the checker's records share."""

    def test_compare_hash_and_repr_by_class_and_compared_fields(self):
        seq = A.SeqBool(A.BoolSignal("p"))
        a, b = A.Repeat(seq, 1.0, (1, 2)), A.Repeat(seq=seq, dur=1.0)
        assert a == b and hash(a) == hash(b) and b.pos is None  # pos takes no part
        assert repr(a) == "Repeat(seq=SeqBool(bexpr=BoolSignal(name='p')), dur=1.0)"
        p, q = A.Property(seq, seq, name="p"), A.Property(seq, seq, None, "q")
        assert p == q and hash(p) == hash(q) and p.delay is None  # nor does a property's name
        assert SignalRef("x") != A.BoolSignal("x") and Const(1.0) != Const(2.0)
        assert Interval(2.0, 1.0) == Interval(0.0, 0.0, False) and Interval(0.0, 1.0) != Interval(0.0, 1.0, False)
        assert repr(Interval(0.0, 1.0, False)) == "Interval(lo=0.0, hi=1.0, lo_closed=False, hi_closed=True)"

    def test_fields_cannot_be_set_or_deleted(self):
        iv = Interval(0.0, 1.0)
        for obj, field in ((A.BoolSignal("p"), "name"), (iv, "lo"), (Verdict("p", "match", iv, 1.0), "kind")):
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                delattr(obj, field)
        assert iv.lo == 0.0

    def test_constructor_rejects_missing_repeated_or_unknown_fields(self):
        seq = A.SeqBool(A.BoolSignal("p"))
        for args, kwargs in (((seq,), {}), ((seq, 1.0), {"dur": 2.0}), ((seq, 1.0), {"durr": 2.0}),
                             ((seq, 1.0, None, None), {})):
            with pytest.raises(TypeError):
                A.Repeat(*args, **kwargs)


class TestIterExpr:
    def test_pre_order_left_operand_first(self):
        a, b, two = SignalRef("a"), SignalRef("b"), Const(2.0)
        prod = BinOp("*", two, b)
        neg = Neg(prod)
        e = BinOp("-", a, neg)
        assert [n for n in iter_expr(e)] == [e, a, neg, prod, two, b]
        assert list(iter_expr(a)) == [a]

    def test_expr_signals_first_occurrence_order(self):
        e = parse_property("{V(b) * (V(a) - V(b)) / -(V(c) + -V(a)) > V(d) - V(c)} |-> {1 > 0};").antecedent.bexpr.expr
        assert expr_signals(e) == ("b", "a", "c", "d")
        assert expr_signals(Const(1.0)) == ()
        assert expr_signals(Neg(Neg(SignalRef("x")))) == ("x",)


class TestNumberFormat:
    def test_short_form_when_exact(self):
        assert format_number(0.5) == "0.5"
        assert format_number(1e-9) == "1e-9"
        assert format_number(2e16) == "2e+16"

    def test_full_precision_otherwise(self):
        for v in (0.123456789, 1.234567891e-9, 1 / 3, 5e-324):
            assert float(format_number(v)) == v

    def test_pretty_keeps_precision(self):
        text = "{V(x)>0.123456789} |-> ##[1.234567891e-9:2e-9] {V(y)<1};"
        p = parse_property(text)
        assert parse_property(pretty(p)) == p

    def test_monitor_threshold_keeps_precision(self):
        p = parse_property("@+{V(x)>0.123456789} |-> {V(y)>0};")
        assert "0.123456789" in generate_monitors(p)


# ---------------------------------------------------------------------------
# Round trip over trees shaped as the parser builds them: constants are
# non-negative (a leading minus parses as Neg), every predicate is
# ``expr > 0`` or ``expr >= 0`` under at most one negation, Or chains
# lean left, and a conjunct holds at most one event.

values = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
bounds = st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False)
durations = st.floats(min_value=1e-12, max_value=1e3, allow_nan=False, allow_infinity=False)
windows = st.tuples(bounds, bounds).map(sorted).map(tuple)

exprs = st.recursive(
    st.one_of(values.map(Const), st.sampled_from(["a", "b"]).map(SignalRef)),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
    ),
    max_leaves=5,
)
porvs = st.builds(A.Porv, exprs, st.sampled_from([">", ">="]))
bools = st.sampled_from(["en", "rdy"]).map(A.BoolSignal)
preds = st.one_of(porvs, bools)
plain = st.one_of(preds, preds.map(A.Not))
events = st.builds(A.EventAtom, preds, st.sampled_from(["pos", "neg", "any"]))


@st.composite
def conjuncts(draw):
    members = draw(st.lists(plain, min_size=1, max_size=3))
    if draw(st.booleans()):
        members.insert(draw(st.integers(0, len(members))), draw(events))
    return members[0] if len(members) == 1 else A.And(tuple(members))


@st.composite
def bexprs(draw):
    node = draw(conjuncts())
    for term in draw(st.lists(conjuncts(), max_size=2)):
        node = A.Or(node, term)
    if draw(st.integers(0, 4)) == 0:
        node = A.Not(node)
    return node


seqs = st.recursive(
    bexprs().map(A.SeqBool),
    lambda sub: st.one_of(
        st.builds(A.Repeat, sub, durations),
        st.builds(lambda s, w, c: A.RepeatUntil(s, *w, c), sub, windows, sub),
        st.builds(lambda s, w, r: A.Delay(s, *w, r), sub, windows, sub),
    ),
    max_leaves=4,
)
properties = st.builds(A.Property, seqs, seqs, st.none() | windows)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(properties)
def test_pretty_round_trip_is_exact(p):
    assert parse_property(pretty(p)) == p


# Pieces of random lexer input: every symbol, comment and delay marks, the
# separators, number forms, and letters and digits outside ASCII ("٣" is a
# decimal digit, "½" a numeric character that is none).  Digit-like
# characters such as "²" are left out: the scanner crashed on them, and
# test_lang pins their parse error.
LEX_PIECES = [
    "|->", "&&", "||", ">=", "<=", "==", "{", "}", "(", ")", "[", "]", "*", ":", ";", ",", "@", "+", "-",
    "/", ">", "<", "~", "=", "|", "&", ".", "!", "#", "##", "##[", "\n", "\t", "\r", " ", "0", "7", "42",
    "1.", "3.25", ".5", "1e5", "2E-3", "4e+", "e", "x", "V", "_s1", "é", "µ", "٣", "½", "\xa0",
]


def _tokens(lex, text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lex(text)]
    except ParseError as e:
        return str(e)


def test_lexer_matches_reference_scanner():
    """The regex lexer against the hand-written scanner it replaced."""
    rng = random.Random(11)
    for _ in range(20000):
        text = "".join(rng.choice(LEX_PIECES) for _ in range(rng.randint(0, 14)))
        assert _tokens(_lex, text) == _tokens(reference_lex, text), repr(text)
