"""Brute-force ground truth on a dense time grid.

Evaluates the satisfaction relations directly: quantifiers over time
windows become counts over grid indices, begin matches are found by
exhaustive search, uncached, as no (node, restriction) pair repeats
within one evaluation.  Every window that is not a plain hold is
counted by one prefix-sum rule, `_any_fwd`; a backward window is the
forward one over the reversed grid.  The verdicts share no code with
the interval engine beyond the trace and the syntax tree, so agreement
between the two is evidence, not tautology.  Only the resolution check
(`check_resolution`) reads the engine's atom truth sets, from
`atoms.build_table`, to measure exact feature widths.

Every grid, here and in the clocked baseline, comes from one tick
formula (`_ticks`), and every signal value on it from one sampler
(`_sample`, which computes `Trace.value_at`'s interpolation, bit for
bit).  The clocked baseline evaluates the Boolean layer of `_GridEval`
on its clock ticks.  Cost is quadratic-ish in grid length; this is a
test instrument, not a checker.
"""

from __future__ import annotations

import math

import numpy as np

from . import ast
from .errors import GridError, TraceError
from .expr import compile_expr, expr_signals
from .trace import Trace

_TOL = 1e-9
_REFINE = 8  # how much finer than dt the resolution check samples
_MAX_TICKS = 10_000_000  # the most points a grid may hold: 80 MB per float vector on it


def _bounds_of(p: ast.Property) -> list[float]:
    out = []
    for n in ast.iter_nodes(p):
        if isinstance(n, ast.Repeat):
            out.append(n.dur)
        elif isinstance(n, (ast.RepeatUntil, ast.Delay)):
            out.extend([n.lo, n.hi])
    if p.delay is not None:
        out.extend(p.delay)
    return [b for b in out if b > 0]


def _grid(trace: Trace, p: ast.Property, dt: float) -> np.ndarray:
    bounds = _bounds_of(p)
    if bounds and dt > min(bounds) / 10 + _TOL:
        raise GridError(f"dt={dt} too coarse for smallest bound {min(bounds)}")
    times = trace.times()
    min_gap = float(np.min(np.diff(times)))
    if dt > min_gap + _TOL:
        raise GridError(f"dt={dt} exceeds the smallest sample spacing {min_gap}")
    return _ticks(trace.domain.lo, trace.domain.hi, dt)


def _ticks(lo: float, hi: float, step: float) -> np.ndarray:
    """``lo + k*step`` for every k that reaches no further than ``hi`` (to within _TOL steps).

    A grid of more than ``_MAX_TICKS`` points raises GridError before
    anything is allocated, so `grid_resolves` then returns False.
    """
    last = (hi - lo) / step + _TOL
    if not last < _MAX_TICKS:
        raise GridError(f"dt={step:g} over [{lo:g}, {hi:g}] needs {last + 1:.4g} grid points, more than {_MAX_TICKS}")
    return lo + step * np.arange(math.floor(last) + 1)


def _sample(trace: Trace, name: str, t: np.ndarray) -> np.ndarray:
    """`Trace.value_at` at every instant of ``t``, computed the same way, so bit for bit equal."""
    ts, col = trace.times(), trace.values(name)
    i = ts.searchsorted(t, side="right") - 1
    if trace.kinds[name] == "boolean":
        return col[i]
    j = np.minimum(i + 1, len(ts) - 1)
    inner = (j > i) & (t != ts[i])
    return np.where(inner, col[i] + (col[j] - col[i]) * (t - ts[i]) / np.where(inner, ts[j] - ts[i], 1.0), col[i])


class _GridEval:
    def __init__(self, trace: Trace, grid: np.ndarray, dt: float, slack: float = 0.0):
        self.trace = trace
        self.grid = grid
        self.dt = dt
        # signed window slack: >0 widens every quantifier window (an
        # over-approximation), <0 narrows them (an under-approximation)
        self.slack = slack
        self.n = len(grid)
        self._sig: dict[str, np.ndarray] = {}
        self._bex: dict[ast.BExpr, np.ndarray] = {}
        self._em: dict[ast.SeqExpr, np.ndarray] = {}

    # -- signal sampling ------------------------------------------------

    def signal(self, name: str) -> np.ndarray:
        if name not in self._sig:
            self._sig[name] = _sample(self.trace, name, self.grid)
        return self._sig[name]

    # -- index windows --------------------------------------------------

    def _offsets(self, a: float, b: float) -> tuple[int, int]:
        lo = math.ceil(a / self.dt - _TOL)
        hi = math.floor(b / self.dt + _TOL)
        if hi < lo:
            lo = hi = round(0.5 * (a + b) / self.dt)
        return lo, hi

    def _any_fwd(self, arr: np.ndarray, a: float, b: float) -> np.ndarray:
        """out[k] = any arr[j] with t_j - t_k in [a:b], widened by the slack."""
        a, b = max(0.0, a - self.slack), b + self.slack
        if b < a:
            return np.zeros(self.n, dtype=bool)
        lo, hi = self._offsets(a, b)
        c = np.concatenate(([0], np.cumsum(arr.astype(np.int64))))
        k = np.arange(self.n)
        j0 = np.maximum(k + lo, 0)
        j1 = np.minimum(k + hi, self.n - 1)
        ok = (j0 <= j1) & (j0 <= self.n - 1)
        cnt = c[np.clip(j1, -1, self.n - 1) + 1] - c[np.clip(j0, 0, self.n)]
        return ok & (cnt > 0)

    def _all_back(self, arr: np.ndarray, a: float) -> np.ndarray:
        """out[k] = all arr[j] with t_k - t_j in [0:a] (window fully on grid)."""
        w = math.floor(max(0.0, a - self.slack) / self.dt + _TOL)
        bad = np.concatenate(([0], np.cumsum((~arr).astype(np.int64))))
        k = np.arange(self.n)
        j0 = k - w
        cnt = bad[k + 1] - bad[np.maximum(j0, 0)]
        return (j0 >= 0) & (cnt == 0)

    def _shift_back(self, arr: np.ndarray, a: float) -> np.ndarray:
        """out[j] = arr[j + round(a/dt)] (exact pull of end instants to begins)."""
        s = round(a / self.dt)
        out = np.zeros(self.n, dtype=bool)
        out[: max(self.n - s, 0)] = arr[s:]
        return out

    # -- boolean layer --------------------------------------------------

    def bexpr(self, b: ast.BExpr) -> np.ndarray:
        got = self._bex.get(b)
        if got is None:
            got = self._bex[b] = self._bexpr(b)
        return got

    def _bexpr(self, b: ast.BExpr) -> np.ndarray:
        if isinstance(b, ast.Porv):
            env = {s: self.signal(s) for s in expr_signals(b.expr)}
            for s in env:
                if self.trace.kinds[s] != "analog":
                    raise TraceError(f"V({s}) reads a boolean signal")
            g = np.broadcast_to(np.asarray(compile_expr(b.expr)(env), dtype=float), (self.n,))
            return g >= 0 if b.rel == ">=" else g > 0
        if isinstance(b, ast.BoolSignal):
            if self.trace.kinds.get(b.name) != "boolean":
                raise TraceError(f"signal {b.name!r} is not boolean")
            return self.signal(b.name) == 1.0
        if isinstance(b, ast.EventAtom):
            p = self.bexpr(b.pred)
            rose = np.zeros(self.n, dtype=bool)
            fell = np.zeros(self.n, dtype=bool)
            rose[1:] = p[1:] & ~p[:-1]
            fell[1:] = ~p[1:] & p[:-1]
            if b.edge == "pos":
                return rose
            if b.edge == "neg":
                return fell
            return rose | fell
        if isinstance(b, ast.Not):
            return ~self.bexpr(b.operand)
        if isinstance(b, ast.And):
            out = self.bexpr(b.terms[0]).copy()
            for t in b.terms[1:]:
                out &= self.bexpr(t)
            return out
        if isinstance(b, ast.Or):
            return self.bexpr(b.left) | self.bexpr(b.right)
        raise TypeError(f"no grid semantics for {type(b).__name__}")

    # -- sequence layer -------------------------------------------------

    def end(self, s: ast.SeqExpr) -> np.ndarray:
        got = self._em.get(s)
        if got is None:
            got = self._em[s] = self._end(s)
        return got

    def _end(self, s: ast.SeqExpr) -> np.ndarray:
        if isinstance(s, ast.SeqBool):
            return self.bexpr(s.bexpr)
        if isinstance(s, ast.Repeat):
            return self._all_back(self.end(s.seq), s.dur)
        if isinstance(s, ast.Delay):
            # any left end lo..hi back: the forward count over the grid reversed
            reach = self._any_fwd(self.end(s.left)[::-1], s.lo, s.hi)[::-1]
            return reach & self.end(s.right)
        if isinstance(s, ast.RepeatUntil):
            return self._all_back(self.end(s.seq), s.lo) & self.end(s.cont)
        raise TypeError(f"no grid semantics for {type(s).__name__}")

    def begin(self, s: ast.SeqExpr, restrict: np.ndarray) -> np.ndarray:
        if isinstance(s, ast.SeqBool):
            return self.bexpr(s.bexpr) & restrict
        ends = restrict & self.end(s)
        if isinstance(s, ast.Repeat):
            return self.begin(s.seq, self._shift_back(ends, s.dur))
        if isinstance(s, (ast.Delay, ast.RepeatUntil)):
            first = s.left if isinstance(s, ast.Delay) else s.seq
            return self.begin(first, self._any_fwd(ends, s.lo, s.hi) & self.end(first))
        raise TypeError(f"no grid semantics for {type(s).__name__}")


def _has_event(node) -> bool:
    return any(isinstance(n, ast.EventAtom) for n in ast.iter_nodes(node))


def _narrow_run(vec: np.ndarray, dt: float, dt_f: float):
    """Narrowest constant run a dt grid is not guaranteed to sample.

    Only the run touching the grid start is exempt: the first grid point
    sits exactly on the domain edge, while the last one can fall up to
    dt short of it.
    """
    change = np.nonzero(vec[1:] != vec[:-1])[0]
    if len(change) == 0:
        return None
    edges = np.concatenate((change, [len(vec) - 1]))
    counts = np.diff(edges)
    k = int(np.argmin(counts))
    width = float(counts[k]) * dt_f
    if width < dt + 2 * dt_f:
        return width, int(edges[k] + 1)
    return None


def _narrow_atom_feature(trace: Trace, p: ast.Property, thresh: float):
    """Exact feature widths of every predicate truth set.

    Truth components and gaps come from the interval layer (linear
    crossing solves, not grid samples), so a feature narrower than the
    grid step cannot hide between probe points.  The run touching the
    domain start is exempt, as in _narrow_run.
    """
    from .atoms import build_table

    tab = build_table(trace, p)
    t0, t1 = trace.domain.lo, trace.domain.hi
    for a in tab.atoms():
        if isinstance(a, ast.EventAtom):
            continue
        comps = tab.get(a).items
        cuts = [t0]
        for c in comps:
            if c.hi - c.lo < thresh and c.lo > t0 + _TOL:
                return c.hi - c.lo, c.lo
            if c.lo > cuts[-1]:
                cuts.append(c.lo)
            if c.hi > cuts[-1]:
                cuts.append(c.hi)
        if t1 > cuts[-1]:
            cuts.append(t1)
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            if hi - lo < thresh:
                return hi - lo, lo
    return None


def check_resolution(trace: Trace, p: ast.Property, dt: float) -> None:
    """Raise GridError when a dt grid can miss a truth feature entirely.

    Quantified windows amplify an unseen feature: a sub-dt gap in a
    repeated predicate shifts a whole run boundary, a sub-dt match run
    escapes a delay window.  Feature widths are measured on a grid
    ``_REFINE`` times finer; event spike vectors are exempt (their
    predicates are what must be resolvable).
    """
    dt_f = dt / _REFINE
    hit = _narrow_atom_feature(trace, p, dt + 2 * dt_f)
    if hit is not None:
        width, where = hit
        raise GridError(
            f"dt={dt} can step over a predicate feature of width "
            f"{width:.3g} near t={where:.6g}"
        )
    grid = _ticks(trace.domain.lo, trace.domain.hi, dt_f)
    ev = _GridEval(trace, grid, dt_f)
    nodes = list(ast.iter_nodes(p))
    vecs = [ev.end(s) for s in nodes if isinstance(s, ast.SEQS) and not _has_event(s)]
    vecs += [ev.bexpr(n.pred) for n in nodes if isinstance(n, ast.EventAtom)]
    if p.delay is not None and not _has_event(p.consequent):
        vecs.append(ev.begin(p.consequent, np.ones(len(grid), dtype=bool)))
    for vec in vecs:
        hit = _narrow_run(vec, dt, dt_f)
        if hit is not None:
            width, idx = hit
            raise GridError(
                f"dt={dt} can step over a truth feature of width about "
                f"{width:.3g} near t={float(grid[idx]):.6g}"
            )


def grid_resolves(trace: Trace, p: ast.Property, dt: float) -> bool:
    """True when the dt grid is fine enough to see every truth feature."""
    try:
        check_resolution(trace, p, dt)
    except GridError:
        return False
    return True


def oracle_classify(trace: Trace, p: ast.Property, dt: float):
    """Per-grid-point verdicts. Returns (grid times, list of kinds).

    Each point is judged twice, once with every quantifier window
    widened by a slack of 3*dt and once narrowed by it.  A verdict is
    issued only when both sides agree; where they differ the point is
    within grid slack of a window or duration bound and the kind is
    "uncertain".  The slack covers event placement, index rounding, and
    one composed boundary shift.
    """
    ast.validate(p)
    grid = _grid(trace, p, dt)
    check_resolution(trace, p, dt)
    slack = 3.0 * dt

    def side(s: float):
        ev = _GridEval(trace, grid, dt, slack=s)
        em = ev.end(p.antecedent)
        bm = ev.begin(p.consequent, np.ones(len(grid), dtype=bool))
        if p.delay is not None:
            return em, ev._any_fwd(bm, p.delay[0], p.delay[1])
        return em, bm

    em_lib, found_lib = side(slack)
    em_cons, found_cons = side(-slack)
    cases = [~em_lib, em_cons & found_cons, em_cons & ~found_lib]
    return grid, np.select(cases, ["vacuous", "match", "fail"], "uncertain").tolist()
