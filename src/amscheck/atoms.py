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

One front end, `trackers`, checks which signals the atoms read and as
which kind, for batch and streaming checks alike, and gives each base
atom (a predicate or digital signal; an event's base is its predicate)
one tracker, which compiles a predicate once (`expr.compile_expr`) for
floats and arrays alike.  A tracker applies the rule in two ways:
`advance` takes one segment per streamed sample, and `trace_runs` takes
every flip segment of a whole trace at once and pairs the boundaries
into runs with `_pair_runs`, which drops empty runs as a feed does, so
both produce identical components.  Only `trace_runs` loads numpy, so a
stream never does.  A streaming tracker may drop its completed runs that
end before a cut instant (`drop_before`); the runs it keeps are still
exactly the batch components.  Runs are component keys (see `intervals`)
of Python floats.

One `AtomTable` turns those runs into atom truth sets for both modes.
It is built from a source of base runs (the whole trace for
`build_table`, the trackers for a streaming snapshot), the domain the
sets are clipped to, and the interval that event points are placed
against.  Each atom's set is built on its first lookup.  The runs of a
whole trace come with a flag numpy computes alongside: whether they are
normalized already, each run wider than eps or a closed point and apart
from the next by a positive gap.  Such runs become the predicate's set
as they are, without a sort or merge.  This module
builds truth runs and atom sets only; `engine._Evaluator` combines them.

Event semantics: an event marks the boundary instant where a
predicate's truth starts (pos) or ends (neg).  The trace start carries
no history, so a truth run touching it yields no pos event; a neg
event needs the predicate to actually go false within the trace.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Callable, Iterable

from . import ast
from .errors import AmscheckError, TraceError, UnknownSignalError
from .expr import compile_expr, expr_signals, is_affine
from .intervals import TIME_TOL, Interval, IntervalSet, Key, _apart, _meet

if TYPE_CHECKING:
    import numpy as np

    from .trace import Trace


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


def _pair_runs(times: np.ndarray, start_true: bool, bounds: np.ndarray, closed: tuple[bool, bool],
               eps: float) -> tuple[list[Key], bool]:
    """The truth runs of a trace from its run boundaries, as `_RunTracker` builds them,
    and whether they are normalized with ``eps`` already.

    A run that holds at the trace start starts there closed, and one still
    open at the trace end ends there closed.  Every other boundary opens and
    closes alternately, closed as ``closed`` says for an opening and a closing
    one; empty runs are dropped.
    """
    import numpy as np
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
    lo, lo_open, hi, hi_closed = lo[keep], lo_open[keep], hi[keep], hi_closed[keep]
    runs = list(zip(lo.tolist(), lo_open.tolist(), hi.tolist(), hi_closed.tolist()))
    # every run that is not a closed point wider than eps, and every gap wider than 0: rounding can
    # put two crossings on one float, and an exact zero of a `>` predicate makes a puncture
    normal = _apart(lo, hi, eps)[lo_open | ~hi_closed].all() and (hi[:-1] < lo[1:]).all()
    return runs, bool(normal)


class PorvTracker(_RunTracker):
    """Incremental truth-run builder for one predicate, compiled once.  A feed keeps the
    previous sample's time, ``g`` and truth; an affine crossing reads no more, and a
    non-affine one bisects between a copy of the values read there and the new sample's."""

    def __init__(self, porv: ast.Porv, eps: float = TIME_TOL):
        super().__init__()
        self.eps = eps
        self.ge = porv.rel == ">="
        self.affine = is_affine(porv.expr)
        self.signals = expr_signals(porv.expr)
        self.g = compile_expr(porv.expr)
        self.prev_vals: dict[str, float] | None = None

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
        # a midpoint not strictly inside (lo, hi) ends it: no float lies between them
        while hi - lo > self.eps and lo < (mid := 0.5 * (lo + hi)) < hi:
            w = (mid - t0) / span
            gm = self.g({s: v0[s] + (v1[s] - v0[s]) * w for s in self.signals})
            if (gm > 0) == pos_side:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # -- sample feed ----------------------------------------------------

    def begin(self, t0: float, vals: dict[str, float]) -> None:
        self.prev_truth = self.truth(self.g(vals))
        if self.prev_truth:
            self.run = (t0, False)
        self.advance(t0, vals)  # no flip: it keeps the sample

    def advance(self, t1: float, vals: dict[str, float]) -> None:
        g1 = self.g(vals)
        truth = g1 >= 0 if self.ge else g1 > 0
        if truth != self.prev_truth:
            t0, g0 = self.prev_t, self.prev_g
            self._flip(t0 if g0 == 0 else t1 if g1 == 0 else self._crossing(t0, g0, self.prev_vals, t1, g1, vals),
                       self.ge)
        self.prev_t, self.prev_g, self.prev_truth = t1, g1, truth
        if not self.affine:
            self.prev_vals = {s: vals[s] for s in self.signals}

    def trace_runs(self, trace: Trace) -> tuple[list[Key], bool]:
        """The truth runs of a whole trace, as a feed of its samples builds them,
        and whether they are normalized already."""
        import numpy as np
        times = trace.times()
        arrays = {s: trace.values(s) for s in self.signals}
        g = np.broadcast_to(np.asarray(self.g(arrays), dtype=float), times.shape)
        truth = self.truth(g)
        flip = np.nonzero(truth[:-1] != truth[1:])[0]
        t0, t1, g0, g1 = times[flip], times[flip + 1], g[flip], g[flip + 1]
        if self.affine:
            tc = self._crossing(t0, g0, None, t1, g1, None)
        else:
            tc = np.zeros(len(flip))
            for k in np.nonzero((g0 != 0) & (g1 != 0))[0]:  # the sign changes: bisect each
                i = flip[k]
                v0 = {s: arrays[s][i] for s in self.signals}
                v1 = {s: arrays[s][i + 1] for s in self.signals}
                tc[k] = self._crossing(t0[k], g0[k], v0, t1[k], g1[k], v1)
        bounds = np.where(g0 == 0, t0, np.where(g1 == 0, t1, tc))
        return _pair_runs(times, bool(truth[0]), bounds, (self.ge, self.ge), self.eps)


class BoolTracker(_RunTracker):
    """Incremental truth-run builder for a digital signal (hold semantics)."""

    def __init__(self, name: str, eps: float = TIME_TOL):
        super().__init__()
        self.name = name
        self.eps = eps
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

    def trace_runs(self, trace: Trace) -> tuple[list[Key], bool]:
        """The truth runs of a whole trace, as a feed of its samples builds them,
        and whether they are normalized already."""
        times = trace.times()
        truth = trace.values(self.name) == 1.0
        return _pair_runs(times, bool(truth[0]), times[1:][truth[:-1] != truth[1:]], (True, False), self.eps)


KINDS = ("analog", "boolean")  # the signal kinds a trace or a stream declares


def trackers(atoms: Iterable[ast.Atom], kinds: dict[str, str], eps: float) -> dict[ast.Atom, PorvTracker | BoolTracker]:
    """One tracker per base atom (an event's base is its predicate), with every
    signal checked against the declared ``kinds`` first.

    A predicate reads analog signals only, and a proposition must be a
    boolean signal.  The first bad signal, in atom order, raises.
    """
    out: dict[ast.Atom, PorvTracker | BoolTracker] = {}
    for atom in atoms:
        base = atom.pred if isinstance(atom, ast.EventAtom) else atom
        if base in out:
            continue
        porv = isinstance(base, ast.Porv)
        for s in expr_signals(base.expr) if porv else (base.name,):
            if s not in kinds:
                raise UnknownSignalError(f"unknown signal {s!r}; the declared signals are {list(kinds)}")
            if porv and kinds[s] != "analog":
                raise TraceError(f"V({s}) reads a boolean signal; analog values need an analog signal")
            if not porv and kinds[s] != "boolean":
                raise TraceError(f"signal {s!r} is analog but is used as a proposition")
        out[base] = PorvTracker(base, eps) if porv else BoolTracker(base.name, eps)
    return out


def event_points(components: list[Key], edges: Interval, edge: str) -> list[Key]:
    """Closed points at qualifying truth boundaries.

    A run that starts at ``edges.lo`` has no pos edge, and one that ends
    closed at ``edges.hi`` has no neg edge: there is no trace outside.
    """
    pos = [(lo, False, lo, True) for lo, _, _, _ in components if lo > edges.lo] if edge in ("pos", "any") else []
    neg = [(hi, False, hi, True) for _, _, hi, hi_closed in components
           if hi < edges.hi or (hi == edges.hi and not hi_closed)] if edge in ("neg", "any") else []
    return pos + neg


class AtomTable:
    """Truth sets for every leaf atom of a property group, plus the domain.

    An atom's set is built on its first `get`.  ``runs(base)`` gives the
    truth runs of a predicate or digital signal in time order, as
    component keys, and whether they are normalized with eps already,
    computed once per base; an event atom takes its
    points from them, placed against ``edges`` (the domain unless given).
    Only the first run may start before the domain, and it is clipped to
    it.
    """

    def __init__(self, domain: Interval, atoms: Iterable[ast.Atom], runs: Callable[[ast.Atom], tuple[list[Key], bool]],
                 edges: Interval | None = None, eps: float = TIME_TOL):
        self.domain = domain
        self.eps = eps
        self._atoms = dict.fromkeys(atoms)
        self._runs = runs
        self._edges = domain if edges is None else edges
        self._base: dict[ast.Atom, tuple[list[Key], bool]] = {}
        self._sets: dict[ast.Atom, IntervalSet] = {}

    def get(self, atom: ast.Atom) -> IntervalSet:
        got = self._sets.get(atom)
        if got is None:
            if atom not in self._atoms:
                raise AmscheckError(f"no truth set for atom {atom}")
            base = atom.pred if isinstance(atom, ast.EventAtom) else atom
            if base not in self._base:
                self._base[base] = self._runs(base)
            comps, normal = self._base[base]
            if isinstance(atom, ast.EventAtom):
                comps, normal = event_points(comps, self._edges, atom.edge), False
            if comps and comps[0][0] < self.domain.lo:
                comps, normal = [_meet(comps[0], self.domain.key), *comps[1:]], False
            got = IntervalSet._of(tuple(comps), self.eps) if normal else IntervalSet.from_keys(comps, self.eps)
            self._sets[atom] = got
        return got

    def atoms(self) -> tuple[ast.Atom, ...]:
        return tuple(self._atoms)


def build_table(
    trace: Trace,
    props: "ast.Property | list[ast.Property] | tuple[ast.Property, ...]",
    eps: float = TIME_TOL,
) -> AtomTable:
    """Evaluate every atom of the given properties over the trace.

    `trackers` checks every signal first, and all sets are built here, so
    nothing raises during engine work.  The table then keeps only the sets.
    """
    if isinstance(props, ast.Property):
        props = [props]
    atoms = [a for p in props for a in ast.collect_atoms(p)]
    trk = trackers(atoms, trace.kinds, eps)
    tab = AtomTable(trace.domain, atoms, lambda base: trk[base].trace_runs(trace), eps=eps)
    for atom in tab.atoms():
        tab.get(atom)
    tab._base, tab._runs = {}, None  # every set is built; drop the runs and the trace
    return tab

