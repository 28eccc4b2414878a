"""Lexer and recursive-descent parser for assertion text.

Accepted surface syntax, in brief:

    property <name>{};  <seq> |-> [##[a:b]] <seq>;  endproperty
    [label:] <seq> |-> [##[a:b]] <seq>;

    seq    :=  unit ( ##[a:b] unit )*
    unit   :=  atom ( [*a] | [*a:b] unit )*
    atom   :=  { seq }  |  ~{ bexpr }  |  bexpr
    bexpr  :=  conj ( OR conj )*           (also '||')
    conj   :=  member ( && member )*  [ , name = arith ]   (rejected)
    member :=  @edge{ pred }  |  ( bexpr )  |  rel
    rel    :=  arith (> | >= | < | <= | ==) arith  |  boolsig

Relations are normalized at parse time: everything becomes ``expr > 0``
or ``expr >= 0``, with < and <= turning into negations and an analog
``==`` widening into a two-sided band of half-width ``value_tol``.
A bare identifier is a digital signal; analog values are ``V(name)``.

Lexical rules: a number is decimal digits with at most one point
(``1``, ``1.``, ``1.5``, ``.5``) and an optional exponent (``2e-3``);
any Unicode decimal digit counts, but digit-like characters such as
``²`` or ``½`` do not.  An identifier is a letter or ``_`` followed by
letters, decimal digits and ``_``.  ``#`` starts a comment that runs to
the end of the line, except in the delay form ``##[``.  Spaces, tabs
and carriage returns only separate tokens.
"""

from __future__ import annotations

import re

from . import ast
from .errors import ParseError, UnsupportedFeatureError
from .expr import BinOp, Const, Expr, Neg, Node, SignalRef, iter_expr

#: Half-width of the band an analog equality comparison expands into.
VALUE_TOL = 1e-6

# One alternative per token class, tried in order at each offset; a word
# run that does not start with a letter or "_" is rejected by `_lex`.
_TOKEN = re.compile(
    r"(?P<nl>\n)|(?P<skip>[ \t\r]+|#(?!#\[)[^\n]*)"
    r"|(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)|(?P<id>\w+)"
    r"|(?P<sym>\|->|&&|\|\||[<>=]=|##|[{}()\[\]*:;,@+\-/<>~=])|(?P<bad>.)"
)


class _Tok(Node):
    __slots__ = ("kind", "text", "line", "col")  # kind: 'num', 'id', or the symbol text itself

    def __init__(self, kind: str, text: str, line: int, col: int):
        put_kind, put_text, put_line, put_col = self._setters
        put_kind(self, kind)
        put_text(self, text)
        put_line(self, line)
        put_col(self, col)


class _BoolRef(Node):
    """Parser-internal marker for a bare identifier in expression position."""

    __slots__ = ("name",)


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "nl":
            line, line_start = line + 1, m.end()
        elif kind != "skip":
            tok = m.group()
            col = m.start() - line_start + 1
            if kind == "bad" or (kind == "id" and not (tok[0].isalpha() or tok[0] == "_")):
                raise ParseError(f"unexpected character {tok[0]!r}", line, col)
            toks.append(_Tok(tok if kind == "sym" else kind, tok, line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok], value_tol: float):
        self.toks = toks
        self.pos = 0
        self.value_tol = value_tol
        self.depth = 0  # bracket, `~`, unary minus and recurrence levels open at `pos`
        self.groups: dict = {}  # (pos, depth) of a `(` -> its arithmetic group or ParseError, and the end

    # -- token helpers --------------------------------------------------

    def peek(self, ahead: int = 0) -> _Tok | None:
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def at(self, kind: str, ahead: int = 0) -> bool:
        i = self.pos + ahead
        return i < len(self.toks) and self.toks[i].kind == kind

    def at_kw(self, word: str, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t is not None and t.kind == "id" and t.text == word

    def take(self) -> _Tok:
        """The next token, consumed; callers check with `peek` or `at` that there is one."""
        self.pos += 1
        return self.toks[self.pos - 1]

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t is None or t.kind != kind:
            raise self.fail(f"expected {kind!r}, got {t.text if t else 'end of input'!r}")
        return self.take()

    def fail(self, msg: str) -> ParseError:
        """A ParseError at the next token, or just past the last one at the end of the text."""
        t = self.peek()
        if t is not None:
            return ParseError(msg, t.line, t.col)
        last = self.toks[-1] if self.toks else _Tok("", "", 1, 1)
        return ParseError(msg, last.line, last.col + len(last.text))

    def nested(self, rule, opens: str = "", close: str = ""):
        """Take the one-character tokens of ``opens``, then ``rule()`` one level deeper, then the
        ``close`` token if given; a ParseError at the next token when it would open more than
        `ast.MAX_NESTING` levels."""
        if self.depth == ast.MAX_NESTING:
            raise self.fail(f"assertion nests deeper than {ast.MAX_NESTING} levels")
        for kind in opens:
            self.expect(kind)
        self.depth += 1
        try:
            node = rule()
        finally:
            self.depth -= 1
        if close:
            self.expect(close)
        return node

    # -- arithmetic -----------------------------------------------------

    def number(self) -> float:
        if self.at("-"):
            self.take()
            return -float(self.expect("num").text)
        return float(self.expect("num").text)

    def arith(self) -> Expr:
        node = self.term()
        while self.at("+") or self.at("-"):
            op = self.take().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at("*") or self.at("/"):
            op = self.take().kind
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.at("num"):
            return Const(float(self.take().text))
        if self.at("-"):
            return Neg(self.nested(self.factor, "-"))
        if self.at("("):
            return self.group()
        if self.at("id"):
            tok = self.take()
            if self.at("("):
                if tok.text != "V":
                    raise ParseError(f"unknown function {tok.text!r}", tok.line, tok.col)
                self.take()
                name = self.expect("id").text
                self.expect(")")
                return SignalRef(name)
            return _BoolRef(tok.text)  # bare identifier, resolved by make_rel
        raise self.fail("expected a number, signal, or parenthesized expression")

    def group(self) -> Expr:
        """``( arith )`` at `pos`, parsed once per position and level.  A Boolean member that
        fails as ``( bexpr )`` reparses its text as arithmetic, and so does the member of every
        `(` around it: each of them reads the groups inside from here, so the parse stays
        linear in the nesting depth."""
        key = (self.pos, self.depth)
        if key not in self.groups:
            try:
                self.groups[key] = self.nested(self.arith, "(", ")"), self.pos
            except ParseError as err:
                self.groups[key] = err, self.pos
        node, self.pos = self.groups[key]
        if isinstance(node, ParseError):
            raise node
        return node

    # -- relations ------------------------------------------------------

    def make_rel(self, left: Expr, op: str, right: Expr, tok: _Tok) -> ast.BExpr:
        if isinstance(left, _BoolRef):
            if op == "==" and isinstance(right, Const) and right.value in (0.0, 1.0):
                sig = ast.BoolSignal(left.name)
                return sig if right.value == 1.0 else ast.Not(sig)
            raise ParseError(
                f"digital signal {left.name!r} only supports == 0 or == 1",
                tok.line,
                tok.col,
            )
        for e in (*iter_expr(left), *iter_expr(right)):
            if isinstance(e, _BoolRef):
                raise ParseError(
                    f"digital signal {e.name!r} cannot appear in arithmetic; use V({e.name}) for analog values",
                    tok.line,
                    tok.col,
                )
        f = left if (isinstance(right, Const) and right.value == 0.0) else BinOp("-", left, right)
        if op in (">", ">="):
            return ast.Porv(f, op)
        if op == "<":
            return ast.Not(ast.Porv(f, ">="))
        if op == "<=":
            return ast.Not(ast.Porv(f, ">"))
        # analog equality: a band of half-width value_tol around zero
        tol = Const(self.value_tol)
        return ast.And((ast.Porv(BinOp("+", f, tol), ">="), ast.Porv(BinOp("-", tol, f), ">=")))

    def rel(self, event: bool = False) -> ast.BExpr:
        """A comparison or a digital signal; in an ``event``, also the
        two-argument form ``V(sig), threshold``, a threshold crossing."""
        tok = self.peek()  # at the end of the text, arith raises ParseError
        left = self.arith()
        if any(map(self.at, (">", ">=", "<", "<=", "=="))) or (event and self.at(",")):
            op = self.take().kind
            return self.make_rel(left, ">" if op == "," else op, self.arith(), tok)
        if isinstance(left, _BoolRef):
            return ast.BoolSignal(left.name)
        msg = "event needs a comparison or a digital signal" if event else "expected a comparison operator"
        raise ParseError(msg, tok.line, tok.col)

    # -- Boolean layer --------------------------------------------------

    def event(self) -> ast.EventAtom:
        at_tok = self.expect("@")
        edge = "any"
        if self.at("+"):
            self.take()
            edge = "pos"
        elif self.at("-"):
            self.take()
            edge = "neg"
        self.expect("{")
        pred = self.rel(event=True)
        self.expect("}")
        if not isinstance(pred, (ast.Porv, ast.BoolSignal)):
            raise ParseError(
                "event predicate must be a single comparison or signal",
                at_tok.line,
                at_tok.col,
            )
        return ast.EventAtom(pred, edge)

    def bmember(self) -> ast.BExpr:
        if self.at("~"):
            if self.at("{", 1):
                return ast.Not(self.nested(self.bexpr, "~{", "}"))
            return ast.Not(self.nested(self.bmember, "~"))
        if self.at("@"):
            return self.event()
        if self.at("("):
            mark = self.pos
            try:
                return self.nested(self.bexpr, "(", ")")
            except ParseError:
                self.pos = mark  # reparse as parenthesized arithmetic
            return self.rel()
        return self.rel()

    def bterm(self) -> ast.BExpr:
        members = [self.bmember()]
        while self.at("&&"):
            self.take()
            members.append(self.bmember())
        node: ast.BExpr = members[0] if len(members) == 1 else ast.And(tuple(members))
        if self.at(",") and self.at("id", 1) and self.at("=", 2):
            comma = self.take()
            where = f" (at line {comma.line}, col {comma.col})"
            raise UnsupportedFeatureError("local-variable assignment is recognised but has no semantics here" + where)
        return node

    def bexpr(self) -> ast.BExpr:
        node = self.bterm()
        while self.at("||") or self.at_kw("OR"):
            self.take()
            node = ast.Or(node, self.bterm())
        return node

    # -- sequence layer -------------------------------------------------

    def bounds(self) -> tuple[float, float, tuple[int, int]]:
        """Parse the tail of ##[a:b] after the '##' token."""
        tok = self.expect("[")
        a = self.number()
        self.expect(":")
        b = self.number()
        self.expect("]")
        return a, b, (tok.line, tok.col)

    def seq_atom(self) -> ast.SeqExpr:
        if self.at("{"):
            return self.nested(self.seq, "{", "}")
        if self.at("~"):
            return ast.SeqBool(ast.Not(self.nested(self.bexpr, "~{", "}")))
        return ast.SeqBool(self.bexpr())

    def unit(self) -> ast.SeqExpr:
        node = self.seq_atom()
        while self.at("[") and self.at("*", 1):
            tok = self.take()
            self.take()
            a = self.number()
            if self.at(":"):
                self.take()
                b = self.number()
                self.expect("]")
                cont = self.nested(self.unit)
                node = ast.RepeatUntil(node, a, b, cont, (tok.line, tok.col))
            else:
                self.expect("]")
                node = ast.Repeat(node, a, (tok.line, tok.col))
        return node

    def seq(self) -> ast.SeqExpr:
        node = self.unit()
        while self.at("##"):
            self.take()
            a, b, pos = self.bounds()
            node = ast.Delay(node, a, b, self.unit(), pos)
        return node

    def property_body(self, name: str) -> ast.Property:
        ante = self.seq()
        self.expect("|->")
        delay = None
        if self.at("##"):
            self.take()
            a, b, _ = self.bounds()
            delay = (a, b)
        cons = self.seq()
        return ast.Property(ante, cons, delay, name)

    # -- file level -----------------------------------------------------

    def file(self) -> list[ast.Property]:
        props: list[ast.Property] = []
        lines: dict[str, int] = {}  # assertion name -> the line that names it
        auto = 0
        while self.peek() is not None:
            tok = self.peek()
            block = self.at_kw("property")
            if block:
                self.take()
                name = self.expect("id").text
                if self.at("{"):
                    self.take()
                    self.expect("}")
                if self.at(";"):
                    self.take()
            elif self.at("id") and self.at(":", 1):
                name = self.take().text
                self.take()
            else:
                auto += 1
                name = f"a{auto}"
            if name in lines:
                raise ParseError(f"assertion name {name!r} is already used on line {lines[name]}", tok.line, tok.col)
            lines[name] = tok.line
            props.append(self.property_body(name))
            self.expect(";")
            if block:
                if not self.at_kw("endproperty"):
                    raise self.fail("expected 'endproperty'")
                self.take()
                if self.at(";"):
                    self.take()
        return props


def parse_property(text: str, name: str = "", value_tol: float = VALUE_TOL) -> ast.Property:
    """Parse and validate a single property expression (no trailing ';')."""
    parser = _Parser(_lex(text), value_tol)
    prop = parser.property_body(name)
    if parser.at(";"):
        parser.take()
    if parser.peek() is not None:
        raise parser.fail("trailing input after property")
    return ast.validate(prop)


def parse_file(text: str, value_tol: float = VALUE_TOL) -> list[ast.Property]:
    """Parse an assertion file: property blocks and bare assertions."""
    props = _Parser(_lex(text), value_tol).file()
    for p in props:
        ast.validate(p)
    return props
