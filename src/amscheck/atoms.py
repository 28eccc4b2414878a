"""Truth intervals for predicates, digital signals, and events.

A predicate's truth set is computed by scanning the sample sequence of
``g(t) = expr(trace(t))`` for sign changes and refining each crossing
on the interpolated segment: exactly for affine expressions, by
bisection to the time tolerance otherwise.  Sign changes strictly
inside one segment of a non-affine expression are outside what the
scan can see; sampling must be dense enough to expose them.

The same single-segment state machine drives both the batch evaluator
here and the incremental trackers used for streaming, so both produce
identical components by construction.  A streaming tracker may drop its
completed runs that end before a cut instant (`drop_before`); the runs
it keeps are still exactly the batch components.

Event semantics: an event marks the boundary instant where a
predicate's truth starts (pos) or ends (neg).  The trace start carries
no history, so a truth run touching it yields no pos event; a neg
event needs the predicate to actually go false within the trace.
"""

from __future__ import annotations

import numpy as np

from . import ast
from .errors import AmscheckError, TraceError
from .expr import eval_expr, expr_signals, is_affine
from .intervals import TIME_TOL, Interval, IntervalSet, set_complement, set_intersect, set_union
from .trace import Trace


def _check_analog(trace: Trace, porv: ast.Porv) -> tuple[str, ...]:
    sigs = expr_signals(porv.expr)
    for s in sigs:
        if s not in trace.signals:
            from .errors import UnknownSignalError

            raise UnknownSignalError(f"trace has no signal {s!r}")
        if trace.kinds[s] != "analog":
            raise TraceError(f"V({s}) reads a boolean signal; analog values need an analog signal")
    return sigs


class _RunTracker:
    """Completed truth runs in time order, trimmable from the front."""

    completed: list[Interval]

    def drop_before(self, cut: float) -> None:
        """Forget completed runs that end before ``cut``."""
        runs = self.completed
        k = 0
        while k < len(runs) and runs[k].hi < cut:
            k += 1
        if k:
            del runs[:k]


class PorvTracker(_RunTracker):
    """Incremental truth-run builder for one predicate."""

    def __init__(self, porv: ast.Porv, eps: float = TIME_TOL):
        self.porv = porv
        self.eps = eps
        self.ge = porv.rel == ">="
        self.affine = is_affine(porv.expr)
        self.signals = expr_signals(porv.expr)
        self.completed: list[Interval] = []
        self.run: tuple[float, bool] | None = None
        self.prev_t: float | None = None
        self.prev_vals: dict[str, float] = {}
        self.prev_g: float = 0.0

    # -- run bookkeeping ------------------------------------------------

    def _open(self, t: float, closed: bool) -> None:
        if self.run is None:
            self.run = (t, closed)

    def _close(self, t: float, closed: bool) -> None:
        if self.run is not None:
            iv = Interval(self.run[0], t, self.run[1], closed)
            if not iv.is_empty:
                self.completed.append(iv)
            self.run = None

    # -- crossing refinement --------------------------------------------

    def _crossing(self, t0, g0, v0, t1, g1, v1) -> float:
        if self.affine:
            return t0 + (t1 - t0) * g0 / (g0 - g1)
        lo, hi = t0, t1
        span = t1 - t0
        pos_side = g0 > 0
        while hi - lo > self.eps:
            mid = 0.5 * (lo + hi)
            w = (mid - t0) / span
            env = {s: v0[s] + (v1[s] - v0[s]) * w for s in self.signals}
            gm = eval_expr(self.porv.expr, env)
            if (gm > 0) == pos_side:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # -- sample feed ----------------------------------------------------

    def begin(self, t0: float, vals: dict[str, float]) -> None:
        g0 = eval_expr(self.porv.expr, {s: vals[s] for s in self.signals})
        if (g0 >= 0) if self.ge else (g0 > 0):
            self._open(t0, True)
        self.prev_t, self.prev_g = t0, g0
        self.prev_vals = {s: vals[s] for s in self.signals}

    def advance(self, t1: float, vals: dict[str, float]) -> None:
        v1 = {s: vals[s] for s in self.signals}
        g1 = eval_expr(self.porv.expr, v1)
        self.segment(self.prev_t, self.prev_g, self.prev_vals, t1, g1, v1)
        self.prev_t, self.prev_g, self.prev_vals = t1, g1, v1

    def segment(self, t0, g0, v0, t1, g1, v1) -> None:
        """Apply one sample-to-sample segment to the run state."""
        ge = self.ge
        s0 = 0 if g0 == 0 else (1 if g0 > 0 else -1)
        s1 = 0 if g1 == 0 else (1 if g1 > 0 else -1)
        if s0 == s1:
            return  # uniform sign or plateau: state unchanged
        if s0 > 0 and s1 < 0:
            self._close(self._crossing(t0, g0, v0, t1, g1, v1), ge)
        elif s0 < 0 and s1 > 0:
            self._open(self._crossing(t0, g0, v0, t1, g1, v1), ge)
        elif s0 > 0:  # s1 == 0
            if not ge:
                self._close(t1, False)
        elif s0 < 0:  # s1 == 0
            if ge:
                self._open(t1, True)
        elif s1 > 0:  # s0 == 0
            if not ge:
                self._open(t0, False)
        else:  # s0 == 0, s1 < 0
            if ge:
                self._close(t0, True)

    def components(self, t_now: float) -> list[Interval]:
        out = list(self.completed)
        if self.run is not None:
            iv = Interval(self.run[0], t_now, self.run[1], True)
            if not iv.is_empty:
                out.append(iv)
        return out


class BoolTracker(_RunTracker):
    """Incremental truth-run builder for a digital signal (hold semantics)."""

    def __init__(self, name: str):
        self.name = name
        self.completed: list[Interval] = []
        self.run_start: float | None = None
        self.prev: float = 0.0

    def begin(self, t0: float, vals: dict[str, float]) -> None:
        v = vals[self.name]
        if v == 1.0:
            self.run_start = t0
        self.prev = v

    def advance(self, t1: float, vals: dict[str, float]) -> None:
        v = vals[self.name]
        if self.prev == 1.0 and v == 0.0 and self.run_start is not None:
            self.completed.append(Interval(self.run_start, t1, True, False))
            self.run_start = None
        elif self.prev == 0.0 and v == 1.0:
            self.run_start = t1
        self.prev = v

    def components(self, t_now: float) -> list[Interval]:
        out = list(self.completed)
        if self.run_start is not None:
            out.append(Interval(self.run_start, t_now, True, True))
        return out


# ---------------------------------------------------------------------------
# Batch evaluation over a full trace


def _porv_components(trace: Trace, porv: ast.Porv, eps: float) -> list[Interval]:
    sigs = _check_analog(trace, porv)
    times = trace.times()
    tracker = PorvTracker(porv, eps)
    if not sigs:
        g = float(eval_expr(porv.expr, {}))
        member = (g >= 0) if porv.rel == ">=" else (g > 0)
        return [trace.domain] if member else []
    arrays = {s: trace.values(s) for s in sigs}
    g = np.asarray(eval_expr(porv.expr, arrays), dtype=float)
    sign = np.sign(g)
    tracker.begin(times[0], {s: arrays[s][0] for s in sigs})
    # only segments with a sign change or a zero endpoint can move the state
    hot = np.nonzero((sign[:-1] != sign[1:]) | (sign[:-1] == 0))[0]
    for i in hot:
        v0 = {s: arrays[s][i] for s in sigs}
        v1 = {s: arrays[s][i + 1] for s in sigs}
        tracker.segment(times[i], g[i], v0, times[i + 1], g[i + 1], v1)
    return tracker.components(times[-1])


def _bool_components(trace: Trace, name: str) -> list[Interval]:
    if trace.kinds.get(name) != "boolean":
        if name not in trace.signals:
            from .errors import UnknownSignalError

            raise UnknownSignalError(f"trace has no signal {name!r}")
        raise TraceError(f"signal {name!r} is analog but is used as a proposition")
    times = trace.times()
    vals = trace.values(name)
    tracker = BoolTracker(name)
    tracker.begin(times[0], {name: vals[0]})
    hot = np.nonzero(vals[:-1] != vals[1:])[0]
    for i in hot:
        tracker.prev = vals[i]
        tracker.advance(times[i + 1], {name: vals[i + 1]})
    return tracker.components(times[-1])


def event_points(components: list[Interval], domain: Interval, edge: str) -> list[Interval]:
    """Point intervals at qualifying truth boundaries."""
    pts: list[Interval] = []
    for comp in components:
        if edge in ("pos", "any") and comp.lo > domain.lo:
            pts.append(Interval(comp.lo, comp.lo))
        if edge in ("neg", "any") and (
            comp.hi < domain.hi or (comp.hi == domain.hi and not comp.hi_closed)
        ):
            pts.append(Interval(comp.hi, comp.hi))
    return pts


def porv_truth(trace: Trace, porv: ast.Porv, eps: float = TIME_TOL) -> IntervalSet:
    return IntervalSet(_porv_components(trace, porv, eps), eps)


def bool_truth(trace: Trace, name: str, eps: float = TIME_TOL) -> IntervalSet:
    return IntervalSet(_bool_components(trace, name), eps)


def event_truth(trace: Trace, event: ast.EventAtom, eps: float = TIME_TOL) -> IntervalSet:
    if isinstance(event.pred, ast.Porv):
        comps = _porv_components(trace, event.pred, eps)
    else:
        comps = _bool_components(trace, event.pred.name)
    return IntervalSet(event_points(comps, trace.domain, event.edge), eps)


class AtomTable:
    """Truth sets for every leaf atom of a property group, plus the domain.

    ``sets`` is kept as given, not copied, so a dict that builds its
    entries in ``__missing__`` stays lazy.
    """

    def __init__(self, domain: Interval, sets: dict[ast.Atom, IntervalSet], eps: float = TIME_TOL):
        self.domain = domain
        self.eps = eps
        self._sets = sets

    def get(self, atom: ast.Atom) -> IntervalSet:
        try:
            return self._sets[atom]
        except KeyError:
            raise AmscheckError(f"no truth set for atom {atom}") from None

    def atoms(self) -> tuple[ast.Atom, ...]:
        return tuple(self._sets)


def build_table(
    trace: Trace,
    props: "ast.Property | list[ast.Property] | tuple[ast.Property, ...]",
    eps: float = TIME_TOL,
) -> AtomTable:
    """Evaluate every atom of the given properties over the trace."""
    if isinstance(props, ast.Property):
        props = [props]
    atoms = dict.fromkeys(a for p in props for a in ast.collect_atoms(p))
    base_cache: dict[ast.Atom, list[Interval]] = {}

    def base_components(pred) -> list[Interval]:
        if pred not in base_cache:
            if isinstance(pred, ast.Porv):
                base_cache[pred] = _porv_components(trace, pred, eps)
            else:
                base_cache[pred] = _bool_components(trace, pred.name)
        return base_cache[pred]

    sets: dict[ast.Atom, IntervalSet] = {}
    for atom in atoms:
        if isinstance(atom, ast.EventAtom):
            comps = event_points(base_components(atom.pred), trace.domain, atom.edge)
        else:
            comps = base_components(atom)
        sets[atom] = IntervalSet(comps, eps)
    return AtomTable(trace.domain, sets, eps)


def bexpr_truth(table: AtomTable, b: ast.BExpr) -> IntervalSet:
    """Truth set of a Boolean expression from the atom table."""
    if isinstance(b, (ast.Porv, ast.BoolSignal, ast.EventAtom)):
        return table.get(b)
    if isinstance(b, ast.Not):
        return set_complement(bexpr_truth(table, b.operand), table.domain, table.eps)
    if isinstance(b, ast.And):
        out = bexpr_truth(table, b.terms[0])
        for t in b.terms[1:]:
            out = set_intersect(out, bexpr_truth(table, t), table.eps)
        return out
    if isinstance(b, ast.Or):
        return set_union(bexpr_truth(table, b.left), bexpr_truth(table, b.right), table.eps)
    raise AmscheckError(f"no truth semantics for {type(b).__name__}")
