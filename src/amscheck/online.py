"""Streaming assertion checking with horizon-gated verdict emission.

Each assertion has a decision horizon: how far past an instant the
trace must extend before that instant's verdict is final.  As samples
arrive, atom truth runs are extended incrementally; once the stream
frontier passes t + horizon, the classification of t can never change
and is emitted.  Match and fail verdicts therefore come out chunked,
one slice per feed step; vacuous stretches are reported at finalize.

Memory and per-sample work stay bounded.  Raw samples are not retained:
trackers keep only completed truth runs plus the previous sample.  An
instant past an assertion's frontier depends on the trace back to its
lookback, ``depth(antecedent) + horizon``, before the frontier.  So
after each emission the trackers drop every run that ends before the
cut: the earliest frontier minus its lookback, less two time
tolerances so that coalescing across the cut still sees both sides.
Evaluation covers the sub-domain [cut, now] only, a constant stretch
of stream time.  Before runs are dropped, the vacuous pieces up to each
frontier are merged into a held list per assertion; that list grows
with the number of vacuous components, not with the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ast
from .atoms import AtomTable, BoolTracker, PorvTracker, event_points
from .engine import _Evaluator, undetermined_region
from .errors import ProtocolError, UnknownSignalError
from .intervals import TIME_TOL, Interval, IntervalSet, minkowski_diff_set, set_difference, set_intersect
from .trace import KINDS


@dataclass(frozen=True)
class Verdict:
    name: str
    kind: str  # match | vacuous-end | fail | undetermined
    interval: Interval
    decided_at: float


@dataclass(frozen=True)
class Obligation:
    name: str
    component: Interval
    deadline: float


class _PropState:
    __slots__ = ("prop", "name", "horizon", "lookback", "frontier", "vacuous", "held_upto")

    def __init__(self, prop: ast.Property, name: str):
        self.prop = prop
        self.name = name
        self.horizon = ast.horizon(prop)
        self.lookback = ast.depth(prop.antecedent) + self.horizon
        self.frontier = float("-inf")
        self.vacuous: list[Interval] = []  # decided vacuous components, normalized
        self.held_upto = float("-inf")  # self.vacuous covers the stream up to here


class Session:
    """One streaming run over an ordered sample sequence."""

    def __init__(
        self,
        props: list[ast.Property],
        signals: "dict[str, str] | list[str] | tuple[str, ...]",
        eps: float = TIME_TOL,
    ):
        if isinstance(signals, dict):
            self.kinds = dict(signals)
        else:
            self.kinds = {name: "analog" for name in signals}
        for name, kind in self.kinds.items():
            if kind not in KINDS:
                raise ProtocolError(f"signal {name!r} has unknown kind {kind!r}")
        if not props:
            raise ProtocolError("no assertions to check")
        self.props = []
        for i, p in enumerate(props):
            ast.validate(p)
            for s in ast.property_signals(p):
                if s not in self.kinds:
                    raise UnknownSignalError(f"assertion uses undeclared signal {s!r}")
            self.props.append(_PropState(p, p.name or f"a{i + 1}"))
        self.eps = eps
        self._atoms: list[ast.Atom] = []
        for st in self.props:
            for a in ast.collect_atoms(st.prop):
                if a not in self._atoms:
                    self._atoms.append(a)
        self._trackers: dict[ast.Atom, PorvTracker | BoolTracker] = {}
        for a in self._atoms:
            base = a.pred if isinstance(a, ast.EventAtom) else a
            if base not in self._trackers:
                if isinstance(base, ast.Porv):
                    self._trackers[base] = PorvTracker(base, eps)
                else:
                    if self.kinds.get(base.name) != "boolean":
                        raise ProtocolError(
                            f"signal {base.name!r} used as a proposition must be declared boolean"
                        )
                    self._trackers[base] = BoolTracker(base.name)
        for tr in self._trackers.values():
            if isinstance(tr, PorvTracker):
                for s in tr.signals:
                    if self.kinds.get(s) == "boolean":
                        raise ProtocolError(f"V({s}) reads a signal declared boolean")
        self._t0: float | None = None
        self._t: float | None = None
        self._cut = float("-inf")  # start of the retained sub-domain
        self._closed = False

    # -- sample intake --------------------------------------------------

    def _coerce(self, values) -> dict[str, float]:
        names = list(self.kinds)
        if isinstance(values, dict):
            got = values
        else:
            vals = list(values)
            if len(vals) != len(names):
                raise ProtocolError(f"expected {len(names)} values, got {len(vals)}")
            got = dict(zip(names, vals))
        out = {}
        for name in names:
            if name not in got:
                raise ProtocolError(f"sample missing signal {name!r}")
            v = float(got[name])
            if not math.isfinite(v):
                raise ProtocolError(f"signal {name!r} has non-finite value {v}")
            if self.kinds[name] == "boolean" and v not in (0.0, 1.0):
                raise ProtocolError(f"boolean signal {name!r} must be 0 or 1, got {v}")
            out[name] = v
        return out

    def feed(self, t: float, values) -> list[Verdict]:
        if self._closed:
            raise ProtocolError("session already finalized")
        t = float(t)
        if not math.isfinite(t):
            raise ProtocolError(f"non-finite sample time {t}")
        if self._t is not None and t <= self._t:
            raise ProtocolError(f"time must increase: {t} after {self._t}")
        vals = self._coerce(values)
        if self._t is None:
            self._t0 = self._cut = t
            for tr in self._trackers.values():
                tr.begin(t, vals)
        else:
            for tr in self._trackers.values():
                tr.advance(t, vals)
        self._t = t
        out: list[Verdict] = []
        ev = None
        for st in self.props:
            upto = t - st.horizon
            if upto < self._t0 or upto <= st.frontier:
                continue
            if ev is None:
                ev = _Evaluator(self._snapshot())
            out.extend(self._emit_window(st, ev, upto, t))
            st.frontier = upto
        if ev is not None:
            self._trim(ev)
        return out

    def finalize(self) -> list[Verdict]:
        """Close the stream and classify everything still pending."""
        if self._closed:
            raise ProtocolError("session already finalized")
        self._closed = True
        if self._t is None:
            return []
        ev = _Evaluator(self._snapshot())
        domain, end = ev.domain, self._t
        out: list[Verdict] = []
        for st in self.props:
            matched, fail_all, em = self._classify(st, ev)
            self._hold_vacuous(st, em, domain, end)
            window = Interval(st.frontier, end, False, True).intersect(domain)
            chunks: list[tuple[Interval, str]] = []
            if not window.is_empty:
                wset = IntervalSet([window], self.eps)
                und_region = undetermined_region(domain, st.horizon, self.eps)
                for comp in set_intersect(matched, wset, self.eps).items:
                    chunks.append((comp, "match"))
                pending_fail = set_intersect(fail_all, wset, self.eps)
                for comp in set_difference(pending_fail, und_region, domain, self.eps).items:
                    chunks.append((comp, "fail"))
                for comp in set_intersect(pending_fail, und_region, self.eps).items:
                    chunks.append((comp, "undetermined"))
            chunks[:0] = [(comp, "vacuous-end") for comp in st.vacuous]
            chunks.sort(key=lambda c: c[0]._lkey())
            out.extend(Verdict(st.name, kind, comp, end) for comp, kind in chunks)
            st.frontier = end
        return out

    def pending_obligations(self) -> list[Obligation]:
        """Antecedent matches whose verdict is not yet final.

        Each obligation is one component of ``em ∩ (frontier, now]``:
        the instants past the assertion's frontier where its antecedent
        completes a match, clipped at the frontier.  Only these instants
        are still undecided, and they lie inside the retained window, so
        the result does not depend on how much history was dropped.  The
        deadline is the component start plus the horizon.
        """
        if self._t is None or self._closed:
            return []
        ev = _Evaluator(self._snapshot())
        out = []
        for st in self.props:
            em = ev.end(st.prop.antecedent)
            pending = IntervalSet([Interval(st.frontier, self._t, False, True)], self.eps)
            for comp in set_intersect(em, pending, self.eps).items:
                out.append(Obligation(st.name, comp, comp.lo + st.horizon))
        return out

    def retained_runs(self) -> int:
        """Completed truth runs the trackers still hold."""
        return sum(len(tr.completed) for tr in self._trackers.values())

    # -- internals ------------------------------------------------------

    def _trim(self, ev: _Evaluator) -> None:
        cut = min([st.frontier - st.lookback for st in self.props]) - 2 * self.eps
        if cut <= self._cut:
            return
        # vacuity up to each frontier is decided but computed from runs
        # about to be dropped: hold those pieces first
        for st in self.props:
            if st.held_upto < st.frontier:
                self._hold_vacuous(st, ev.end(st.prop.antecedent), ev.domain, st.frontier)
        self._cut = cut
        for tr in self._trackers.values():
            tr.drop_before(cut)

    def _snapshot(self) -> AtomTable:
        domain = Interval(self._cut, self._t)
        stream = Interval(self._t0, self._t)
        sets: dict[ast.Atom, IntervalSet] = {}
        comp_cache: dict[ast.Atom, list[Interval]] = {}
        for atom in self._atoms:
            base = atom.pred if isinstance(atom, ast.EventAtom) else atom
            if base not in comp_cache:
                comp_cache[base] = self._trackers[base].components(self._t)
            comps = comp_cache[base]
            if isinstance(atom, ast.EventAtom):
                # edges follow the stream-start rule, not the cut
                comps = event_points(comps, stream, atom.edge)
            # every retained run ends at or after the cut and runs are in
            # time order, so only the first component can reach before it
            if comps and comps[0].lo < domain.lo:
                comps = [comps[0].intersect(domain), *comps[1:]]
            sets[atom] = IntervalSet(comps, self.eps)
        return AtomTable(domain, sets, self.eps)

    def _hold_vacuous(self, st: _PropState, em: IntervalSet, domain: Interval, upto: float) -> None:
        """Merge the vacuous pieces of (held_upto, upto] into the held list."""
        window = Interval(st.held_upto, upto, False, True).intersect(domain)
        st.held_upto = upto
        if window.is_empty:
            return
        vac = set_difference(IntervalSet([window], self.eps), em, domain, self.eps)
        if vac:
            # pieces arrive in time order: only the last held one can merge
            st.vacuous[-1:] = IntervalSet([*st.vacuous[-1:], *vac.items], self.eps).items

    def _classify(self, st: _PropState, ev: _Evaluator):
        p = st.prop
        em = ev.end(p.antecedent)
        bm = ev.begin(p.consequent, ev.dom_set)
        if p.delay is not None:
            lo, hi = p.delay
            bm = set_intersect(
                minkowski_diff_set(bm, lo, hi, self.eps), ev.dom_set, self.eps
            )
        matched = set_intersect(em, bm, self.eps)
        fail_all = set_difference(em, matched, ev.domain, self.eps)
        return matched, fail_all, em

    def _emit_window(self, st: _PropState, ev: _Evaluator, upto: float, now: float) -> list[Verdict]:
        matched, fail_all, _ = self._classify(st, ev)
        window = Interval(st.frontier, upto, False, True).intersect(ev.domain)
        if window.is_empty:
            return []
        wset = IntervalSet([window], self.eps)
        chunks = [(c, "match") for c in set_intersect(matched, wset, self.eps).items]
        chunks += [(c, "fail") for c in set_intersect(fail_all, wset, self.eps).items]
        chunks.sort(key=lambda c: c[0]._lkey())
        return [Verdict(st.name, kind, comp, now) for comp, kind in chunks]


def open_session(props, signals, eps: float = TIME_TOL) -> Session:
    return Session(props, signals, eps)
