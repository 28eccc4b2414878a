"""Verilog-AMS monitor text generation.

One callback block per event atom; per non-event predicate unit, a
pair of blocks reporting truth onset (+1) and truth end (-1).  A
conjunction becomes per-member flag bits wired through an assign, with
the truth callbacks hanging off the combined flag's edges.  Members
arising from an upper bound (a negated predicate) set their bit on the
falling cross and clear it on the rising one.

Each `SeqBool` node is one unit, so a conjunction is one unit;
`generate_monitors` numbers the units in `ast.iter_nodes` order, which
is source order, antecedent first.  Output is deterministic and is meant for a golden-text
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


def _cross(e, direction: str, cfg: CodegenConfig) -> str:
    """The cross event of ``e`` in ``direction`` (+1, -1 or 0) at the configured accuracies."""
    e = render_expr(e, strip_v=True).replace(" ", "")
    return f"cross({e},{direction},{_fmt_acc(cfg.time_acc)},{_fmt_acc(cfg.value_acc)})"


def _edge_blocks(b: ast.BExpr, rise: str, fall: str, cfg: CodegenConfig, what: str = "") -> list[str]:
    """Blocks running ``rise`` when a predicate or digital signal turns true and
    ``fall`` when it turns false; a negation swaps the two statements."""
    core = b.operand if isinstance(b, ast.Not) else b
    if core is not b:
        rise, fall = fall, rise
    if isinstance(core, ast.Porv):
        on, off = _cross(core.expr, "+1", cfg), _cross(core.expr, "-1", cfg)
    elif isinstance(core, ast.BoolSignal):
        on, off = f"posedge {core.name}", f"negedge {core.name}"
    else:
        raise CodegenError(f"no monitor template for {what}{type(b).__name__}")
    return [f"always @({on})\n    {rise}", f"always @({off})\n    {fall}"]


def _unit_blocks(k: int, b: ast.BExpr, cfg: CodegenConfig) -> tuple[list[str], ...]:
    """Unit ``k``'s assign lines, always blocks, wires and regs."""
    aid = cfg.assertion_id
    if isinstance(b, ast.EventAtom):
        if isinstance(b.pred, ast.BoolSignal):
            trig = {"pos": f"posedge {b.pred.name}", "neg": f"negedge {b.pred.name}", "any": b.pred.name}[b.edge]
        else:
            trig = _cross(b.pred.expr, {"pos": "+1", "neg": "-1", "any": "0"}[b.edge], cfg)
        return [], [f"always @({trig})\n    $checkerCall({aid},{k},$abstime);"], [], []
    up, down = (f"$updateTruthInterval({aid},{k},{d},$abstime);" for d in ("+1", "-1"))
    if not isinstance(b, ast.And):
        return [], _edge_blocks(b, up, down, cfg), [], []
    flag = f"flag_{k}"
    bits = [f"{flag}_{j}" for j in range(len(b.terms))]
    blocks: list[str] = []
    for bit, m in zip(bits, b.terms):
        blocks += _edge_blocks(m, f"{bit} = 1'b1;", f"{bit} = 1'b0;", cfg, "conjunct member ")
    blocks.append(f"always @(posedge {flag})\n    {up}")
    blocks.append(f"always @(negedge {flag})\n    {down}")
    return [f"assign {flag} = {' && '.join(bits)};"], blocks, [flag], bits


def generate_monitors(p: ast.Property, cfg: CodegenConfig | None = None) -> str:
    """Monitor text for one property."""
    cfg = cfg or CodegenConfig()
    ast.validate(p)
    assigns, blocks, wires, regs = parts = [], [], [], []
    seqs = (n for n in ast.iter_nodes(p) if isinstance(n, ast.SeqBool))
    for k, s in enumerate(seqs):
        for part, got in zip(parts, _unit_blocks(k, s.bexpr, cfg)):
            part.extend(got)
    body = assigns + blocks
    if not cfg.wrap_module:
        return "\n".join(body) + "\n"
    lines = [f"module {cfg.module_name};"]
    if wires:
        lines.append("wire " + ", ".join(wires) + ";")
    if regs:
        lines.append("reg " + ", ".join(regs) + ";")
    for b in body:
        lines.extend("    " + ln for ln in b.split("\n"))
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
