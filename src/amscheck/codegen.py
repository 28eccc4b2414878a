"""Verilog-AMS monitor text generation.

One callback block per event atom; per non-event predicate unit, a
pair of blocks reporting truth onset (+1) and truth end (-1).  A
conjunction becomes per-member flag bits wired through an assign, with
the truth callbacks hanging off the combined flag's edges.  Members
arising from an upper bound (a negated predicate) set their bit on the
falling cross and clear it on the rising one.

Unit indices follow source order, antecedent first; a conjunction is
one unit.  Output is deterministic and is meant for a golden-text
test surface, not for compilation here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ast
from .errors import CodegenError
from .expr import format_number, render_expr


@dataclass(frozen=True)
class CodegenConfig:
    assertion_id: int = 0
    time_acc: float = 1e-9
    value_acc: float = 1e-6
    module_name: str = "amscheck_monitors"
    wrap_module: bool = False

    def __post_init__(self):
        if self.time_acc <= 0 or self.value_acc <= 0:
            raise CodegenError("cross accuracies must be positive")
        if self.assertion_id < 0:
            raise CodegenError("assertion id must be non-negative")
        if not self.module_name.isidentifier():
            raise CodegenError(f"bad module name {self.module_name!r}")


def _fmt_acc(v: float) -> str:
    """Compact accuracy literal: 1e-9, not 1e-09 or 0.000000001."""
    exp = math.floor(math.log10(v) + 1e-12)
    mant = v / 10.0**exp
    if abs(mant - 1.0) < 1e-9:
        return f"1e{exp}" if exp != 0 else "1"
    return format_number(v)


def _cross_expr(e) -> str:
    return render_expr(e, strip_v=True).replace(" ", "")


@dataclass(frozen=True)
class _Unit:
    index: int
    node: ast.BExpr


def collect_units(p: ast.Property) -> list[_Unit]:
    """Monitor units in source order: events singly, conjuncts grouped."""
    seqs = (n for n in ast.iter_nodes(p) if isinstance(n, ast.SeqBool))
    return [_Unit(i, s.bexpr) for i, s in enumerate(seqs)]


def _member_blocks(member: ast.BExpr, flag: str, cfg: CodegenConfig) -> list[str]:
    ta, va = _fmt_acc(cfg.time_acc), _fmt_acc(cfg.value_acc)
    inverted = isinstance(member, ast.Not)
    core = member.operand if inverted else member
    on, off = ("1'b0", "1'b1") if inverted else ("1'b1", "1'b0")
    if isinstance(core, ast.Porv):
        e = _cross_expr(core.expr)
        return [
            f"always @(cross({e},+1,{ta},{va}))\n    {flag} = {on};",
            f"always @(cross({e},-1,{ta},{va}))\n    {flag} = {off};",
        ]
    if isinstance(core, ast.BoolSignal):
        return [
            f"always @(posedge {core.name})\n    {flag} = {on};",
            f"always @(negedge {core.name})\n    {flag} = {off};",
        ]
    raise CodegenError(f"no monitor template for conjunct member {type(member).__name__}")


def _unit_blocks(u: _Unit, cfg: CodegenConfig) -> tuple[list[str], list[str], list[str]]:
    """Returns (assign lines, always blocks, flag declarations)."""
    aid, k = cfg.assertion_id, u.index
    ta, va = _fmt_acc(cfg.time_acc), _fmt_acc(cfg.value_acc)
    b = u.node

    if isinstance(b, ast.EventAtom):
        if isinstance(b.pred, ast.BoolSignal):
            trig = {"pos": f"posedge {b.pred.name}", "neg": f"negedge {b.pred.name}", "any": b.pred.name}[b.edge]
        else:
            direction = {"pos": "+1", "neg": "-1", "any": "0"}[b.edge]
            trig = f"cross({_cross_expr(b.pred.expr)},{direction},{ta},{va})"
        return [], [f"always @({trig})\n    $checkerCall({aid},{k},$abstime);"], []

    up = f"$updateTruthInterval({aid},{k},+1,$abstime);"
    down = f"$updateTruthInterval({aid},{k},-1,$abstime);"

    inverted = isinstance(b, ast.Not)
    core = b.operand if inverted else b
    if isinstance(core, ast.Porv):
        rise, fall = (down, up) if inverted else (up, down)
        e = _cross_expr(core.expr)
        return [], [
            f"always @(cross({e},+1,{ta},{va}))\n    {rise}",
            f"always @(cross({e},-1,{ta},{va}))\n    {fall}",
        ], []
    if isinstance(core, ast.BoolSignal):
        rise, fall = (down, up) if inverted else (up, down)
        return [], [
            f"always @(posedge {core.name})\n    {rise}",
            f"always @(negedge {core.name})\n    {fall}",
        ], []

    if isinstance(b, ast.And):
        flag = f"flag_{k}"
        members = list(b.terms)
        for m in members:
            if isinstance(m, ast.EventAtom) or (
                isinstance(m, ast.Not) and not isinstance(m.operand, (ast.Porv, ast.BoolSignal))
            ) or isinstance(m, (ast.And, ast.Or)):
                raise CodegenError(f"no monitor template for conjunct member {type(m).__name__}")
        bits = [f"{flag}_{j}" for j in range(len(members))]
        assign = [f"assign {flag} = {' && '.join(bits)};"]
        blocks: list[str] = []
        for j, m in enumerate(members):
            blocks.extend(_member_blocks(m, bits[j], cfg))
        blocks.append(f"always @(posedge {flag})\n    {up}")
        blocks.append(f"always @(negedge {flag})\n    {down}")
        return assign, blocks, [flag, *bits]

    raise CodegenError(f"no monitor template for {type(b).__name__}")


def generate_monitors(p: ast.Property, cfg: CodegenConfig | None = None) -> str:
    """Monitor text for one property."""
    cfg = cfg or CodegenConfig()
    ast.validate(p)
    assigns: list[str] = []
    blocks: list[str] = []
    flags: list[str] = []
    for u in collect_units(p):
        a, bl, fl = _unit_blocks(u, cfg)
        assigns.extend(a)
        blocks.extend(bl)
        flags.extend(fl)
    body = assigns + blocks
    if not cfg.wrap_module:
        return "\n".join(body) + "\n"
    lines = [f"module {cfg.module_name};"]
    wires = [f for f in flags if "_" not in f.rsplit("flag_", 1)[-1]]
    regs = [f for f in flags if f not in wires]
    if wires:
        lines.append("wire " + ", ".join(wires) + ";")
    if regs:
        lines.append("reg " + ", ".join(regs) + ";")
    for b in body:
        lines.extend("    " + ln for ln in b.split("\n"))
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
