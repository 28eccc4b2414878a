"""Truth intervals for predicates, digital signals, and events.

A predicate holds at a sample when ``g = lhs - rhs`` there is ``>= 0``
(relation ``>=``) or ``> 0`` (relation ``>``); between samples ``g`` is
interpolated.  One truth-flip rule turns samples into truth runs: each
segment whose two endpoint truths differ holds one run boundary, at the
endpoint where ``g`` is exactly 0 if there is one and otherwise at the
segment's zero crossing, solved exactly for affine expressions and by
bisection to the time tolerance otherwise.  Every predicate boundary is
closed exactly when the relation is ``>=``.  A digital signal holds its
value, so its boundaries lie on the samples, each run closed at its
start and open at its end.  Sign changes strictly inside one segment of
a non-affine expression are outside what the rule can see; sampling
must be dense enough to expose them.

The rule has a scalar use and an array use.  The streaming trackers
apply it to one segment per sample.  The batch evaluator applies it to
every flip segment of the trace at once and pairs the boundaries into
runs with `_pair_runs`, which drops empty runs as the trackers do, so
both modes produce identical components.  A streaming tracker may drop
its completed runs that end before a cut instant (`drop_before`); the
runs it keeps are still exactly the batch components.  Runs are
component keys (see `intervals`) of Python floats.

One `AtomTable` turns those runs into atom truth sets for both modes.
It is built from a source of base runs (the whole trace for
`build_table`, the trackers for a streaming snapshot), the domain the
sets are clipped to, and the interval that event points are placed
against.  Each atom's set is built on its first lookup.

Event semantics: an event marks the boundary instant where a
predicate's truth starts (pos) or ends (neg).  The trace start carries
no history, so a truth run touching it yields no pos event; a neg
event needs the predicate to actually go false within the trace.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterable

import numpy as np

from . import ast
from .errors import AmscheckError, TraceError, UnknownSignalError
from .expr import eval_expr, expr_signals, is_affine
from .intervals import TIME_TOL, Interval, IntervalSet, Key, _meet, set_complement, set_intersect, set_union
from .trace import Trace


def _check_analog(trace: Trace, porv: ast.Porv) -> tuple[str, ...]:
    sigs = expr_signals(porv.expr)
    for s in sigs:
        if s not in trace.signals:
            raise UnknownSignalError(f"trace has no signal {s!r}")
        if trace.kinds[s] != "analog":
            raise TraceError(f"V({s}) reads a boolean signal; analog values need an analog signal")
    return sigs


class _RunTracker:
    """Completed truth runs in time order, trimmable from the front, plus the open run."""

    def __init__(self):
        self.completed: list[Key] = []
        self.run: tuple[float, bool] | None = None  # start and whether it is open
        self.last = float("-inf")  # the latest run boundary

    def _flip(self, t: float, closed: bool) -> None:
        """A run boundary at ``t``: open a run if none is open, else close it;
        an empty run is dropped."""
        self.last = t
        if self.run is None:
            self.run = (t, not closed)
        else:
            lo, lo_open = self.run
            if lo < t or (lo == t and closed and not lo_open):
                self.completed.append((lo, lo_open, t, closed))
            self.run = None

    def drop_before(self, cut: float) -> None:
        """Forget completed runs that end before ``cut``."""
        # completed runs are disjoint and in time order, so their ends ascend
        del self.completed[: bisect.bisect_left(self.completed, cut, key=lambda r: r[2])]

    def components(self, t_now: float) -> list[Key]:
        """The runs so far, the open one closed at ``t_now``."""
        out = list(self.completed)
        if self.run is not None:
            lo, lo_open = self.run
            if lo < t_now or (lo == t_now and not lo_open):
                out.append((lo, lo_open, t_now, True))
        return out


def _pair_runs(times: np.ndarray, start_true: bool, bounds: np.ndarray, closed: tuple[bool, bool]) -> list[Key]:
    """The truth runs of a trace from its run boundaries, as `_RunTracker` builds them.

    A run that holds at the trace start starts there closed, and one still
    open at the trace end ends there closed.  Every other boundary opens and
    closes alternately, closed as ``closed`` says for an opening and a closing
    one; empty runs are dropped.
    """
    edges = np.concatenate((times[:1] if start_true else times[:0], bounds))
    open_end = len(edges) % 2
    if open_end:
        edges = np.concatenate((edges, times[-1:]))
    lo, hi = edges[0::2], edges[1::2]
    lo_open = np.full(len(lo), not closed[0])
    hi_closed = np.full(len(hi), closed[1])
    if start_true:
        lo_open[0] = False
    if open_end:
        hi_closed[-1] = True
    keep = (lo < hi) | ((lo == hi) & hi_closed & ~lo_open)
    return list(zip(lo[keep].tolist(), lo_open[keep].tolist(), hi[keep].tolist(), hi_closed[keep].tolist()))


class PorvTracker(_RunTracker):
    """Incremental truth-run builder for one predicate."""

    def __init__(self, porv: ast.Porv, eps: float = TIME_TOL):
        super().__init__()
        self.porv = porv
        self.eps = eps
        self.ge = porv.rel == ">="
        self.affine = is_affine(porv.expr)
        self.signals = expr_signals(porv.expr)
        self.prev_t: float | None = None
        self.prev_vals: dict[str, float] = {}
        self.prev_g: float = 0.0

    def truth(self, g):
        """Whether the predicate holds where ``g`` is its left side minus its right side."""
        return g >= 0 if self.ge else g > 0

    # -- crossing refinement --------------------------------------------

    def _crossing(self, t0, g0, v0, t1, g1, v1) -> float:
        # the affine solve takes floats or, for many segments at once, arrays
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
        if self.truth(g0):
            self.run = (t0, False)
        self.prev_t, self.prev_g = t0, g0
        self.prev_vals = {s: vals[s] for s in self.signals}

    def advance(self, t1: float, vals: dict[str, float]) -> None:
        v1 = {s: vals[s] for s in self.signals}
        g1 = eval_expr(self.porv.expr, v1)
        t0, g0 = self.prev_t, self.prev_g
        if self.truth(g0) != self.truth(g1):
            self._flip(t0 if g0 == 0 else t1 if g1 == 0 else self._crossing(t0, g0, self.prev_vals, t1, g1, v1),
                       self.ge)
        self.prev_t, self.prev_g, self.prev_vals = t1, g1, v1


class BoolTracker(_RunTracker):
    """Incremental truth-run builder for a digital signal (hold semantics)."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name
        self.prev: float = 0.0

    def begin(self, t0: float, vals: dict[str, float]) -> None:
        v = vals[self.name]
        if v == 1.0:
            self.run = (t0, False)
        self.prev = v

    def advance(self, t1: float, vals: dict[str, float]) -> None:
        v = vals[self.name]
        if v != self.prev:
            self._flip(t1, v == 1.0)
        self.prev = v


# ---------------------------------------------------------------------------
# Batch evaluation over a full trace


def _porv_components(trace: Trace, porv: ast.Porv, eps: float) -> list[Key]:
    sigs = _check_analog(trace, porv)
    times = trace.times()
    tracker = PorvTracker(porv, eps)
    arrays = {s: trace.values(s) for s in sigs}
    g = np.broadcast_to(np.asarray(eval_expr(porv.expr, arrays), dtype=float), times.shape)
    truth = tracker.truth(g)
    flip = np.nonzero(truth[:-1] != truth[1:])[0]
    t0, t1, g0, g1 = times[flip], times[flip + 1], g[flip], g[flip + 1]
    if tracker.affine:
        tc = tracker._crossing(t0, g0, None, t1, g1, None)
    else:
        tc = np.zeros(len(flip))
        for k in np.nonzero((g0 != 0) & (g1 != 0))[0]:  # the sign changes: bisect each
            i = flip[k]
            v0 = {s: arrays[s][i] for s in sigs}
            v1 = {s: arrays[s][i + 1] for s in sigs}
            tc[k] = tracker._crossing(t0[k], g0[k], v0, t1[k], g1[k], v1)
    bounds = np.where(g0 == 0, t0, np.where(g1 == 0, t1, tc))
    return _pair_runs(times, bool(truth[0]), bounds, (tracker.ge, tracker.ge))


def _bool_components(trace: Trace, name: str) -> list[Key]:
    if trace.kinds.get(name) != "boolean":
        if name not in trace.signals:
            raise UnknownSignalError(f"trace has no signal {name!r}")
        raise TraceError(f"signal {name!r} is analog but is used as a proposition")
    times = trace.times()
    truth = trace.values(name) == 1.0
    return _pair_runs(times, bool(truth[0]), times[1:][truth[:-1] != truth[1:]], (True, False))


def event_points(components: list[Key], edges: Interval, edge: str) -> list[Key]:
    """Closed points at qualifying truth boundaries.

    A run that starts at ``edges.lo`` has no pos edge, and one that ends
    closed at ``edges.hi`` has no neg edge: there is no trace outside.
    """
    pts: list[Key] = []
    for lo, _, hi, hi_closed in components:
        if edge in ("pos", "any") and lo > edges.lo:
            pts.append((lo, False, lo, True))
        if edge in ("neg", "any") and (hi < edges.hi or (hi == edges.hi and not hi_closed)):
            pts.append((hi, False, hi, True))
    return pts


class AtomTable:
    """Truth sets for every leaf atom of a property group, plus the domain.

    An atom's set is built on its first `get`.  ``runs(base)`` gives the
    truth runs of a predicate or digital signal in time order, as
    component keys, computed once per base; an event atom takes its
    points from them, placed against ``edges`` (the domain unless given).
    Only the first run may start before the domain, and it is clipped to
    it.
    """

    def __init__(self, domain: Interval, atoms: Iterable[ast.Atom], runs: Callable[[ast.Atom], list[Key]],
                 edges: Interval | None = None, eps: float = TIME_TOL):
        self.domain = domain
        self.eps = eps
        self._atoms = dict.fromkeys(atoms)
        self._runs = runs
        self._edges = domain if edges is None else edges
        self._base: dict[ast.Atom, list[Key]] = {}
        self._sets: dict[ast.Atom, IntervalSet] = {}

    def get(self, atom: ast.Atom) -> IntervalSet:
        got = self._sets.get(atom)
        if got is None:
            if atom not in self._atoms:
                raise AmscheckError(f"no truth set for atom {atom}")
            base = atom.pred if isinstance(atom, ast.EventAtom) else atom
            if base not in self._base:
                self._base[base] = self._runs(base)
            comps = self._base[base]
            if isinstance(atom, ast.EventAtom):
                comps = event_points(comps, self._edges, atom.edge)
            if comps and comps[0][0] < self.domain.lo:
                comps = [_meet(comps[0], self.domain.key), *comps[1:]]
            got = self._sets[atom] = IntervalSet.from_keys(comps, self.eps)
        return got

    def atoms(self) -> tuple[ast.Atom, ...]:
        return tuple(self._atoms)


def build_table(
    trace: Trace,
    props: "ast.Property | list[ast.Property] | tuple[ast.Property, ...]",
    eps: float = TIME_TOL,
) -> AtomTable:
    """Evaluate every atom of the given properties over the trace.

    All sets are built here, so a missing or wrongly-kinded signal
    raises before any engine work.  The table then keeps only the sets.
    """
    if isinstance(props, ast.Property):
        props = [props]

    def runs(base: ast.Atom) -> list[Key]:
        if isinstance(base, ast.Porv):
            return _porv_components(trace, base, eps)
        return _bool_components(trace, base.name)

    tab = AtomTable(trace.domain, (a for p in props for a in ast.collect_atoms(p)), runs, eps=eps)
    for atom in tab.atoms():
        tab.get(atom)
    tab._base, tab._runs = {}, None  # every set is built; drop the runs and the trace
    return tab


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
