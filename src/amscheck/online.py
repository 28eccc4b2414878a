"""Streaming assertion checking with horizon-gated verdict emission.

The declared signals are checked, and one tracker per base atom made,
by `atoms.trackers`, the batch check's own front end, so a signal of
the wrong kind raises the same error as `build_table` on a trace.  Each
assertion has a decision horizon: how far past an instant the trace
must extend before that instant's verdict is final.  As samples arrive,
the trackers extend atom truth runs; once the stream passes
t + horizon, t is decided.  Verdicts are slices of the offline
partition: each feed step takes the window from the assertion's
frontier up to now - horizon and emits its match and fail pieces.  It
runs `engine.classify` on the window unless the window is quiet: no run
boundary of the assertion's atoms, and no stream start, moved by one of
the shifts of `ast.offsets`, falls in it or on the frontier, and the
frontier's kind is not a match of an assertion with a horizon.  A run
boundary at the stream start itself, where a predicate is exactly 0 at
the first sample, is the stream start.  All of a quiet window has the
frontier's kind, and the step emits it as `classify` would have, so
verdicts are the same either way.  A window no wider than the time
tolerance waits for the next sample, as normalization would drop it.
So does every window while the latest truth run boundary lies within the
time tolerance before the newest sample (one pass over the trackers): the
run begun or ended there is a sliver that normalization would also drop,
and offline the same instants see the run that follows it.  While a predicate that an event
reads is exactly 0 at the newest sample, decisions stop at the sample
before it: only the next sample shows whether a run starts or ends there,
and so whether the event happens.  Vacuous pieces are held and reported
at finalize, which classifies the rest of the stream.

Memory and per-sample work stay bounded.  A sample costs each base atom
one call of its compiled predicate, and raw samples are not retained:
trackers keep only completed truth runs plus the previous sample.  An
instant past an assertion's frontier depends on the trace back to its
lookback, ``depth(antecedent) + horizon``, before the frontier.  So
after each emission the trackers drop every run that ends before the
cut: the earliest frontier minus its lookback, less two time
tolerances, so that a run clipped to a sliver at the cut, which
normalization drops, ends before anything the lookback reads.
Evaluation covers the sub-domain [cut, now] only.  A snapshot is the
batch `atoms.AtomTable` over the trackers' runs instead of the trace:
its domain is [cut, now], event edges are placed against the stream
start rather than the cut, and an atom's set is built only when an
assertion that emits reads it.  A window with no antecedent match
costs only the antecedent.  The held vacuous list grows with the
number of vacuous components, not with the samples.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import attrgetter

from . import ast
from .atoms import KINDS, AtomTable, trackers
from .engine import _Evaluator, classify
from .errors import ProtocolError
from .expr import Node
from .intervals import TIME_TOL, Interval, IntervalSet, Key, _apart, extend_in_order, set_intersect

_LAST = attrgetter("last")  # a tracker's latest run boundary
_G = attrgetter("prev_g")  # a predicate tracker's newest left side minus right side


class Verdict(Node):
    """``Verdict(name, kind, interval, decided_at)``; kind: match | vacuous-end | fail | undetermined.

    One object: the interval's ends are slots of the verdict, and `interval` builds the
    `Interval` on access.  Equality, hashing and the pickle are those of the four fields."""

    __slots__ = ("name", "kind", "lo", "hi", "lo_closed", "hi_closed", "decided_at")

    def __init__(self, name: str, kind: str, interval: Interval, decided_at: float):
        super().__init__(name, kind, interval.lo, interval.hi, interval.lo_closed, interval.hi_closed, decided_at)

    @property
    def interval(self) -> Interval:
        return Interval(self.lo, self.hi, self.lo_closed, self.hi_closed)

    def __reduce__(self):
        return Verdict, (self.name, self.kind, self.interval, self.decided_at)


class Obligation(Node):
    __slots__ = ("name", "component", "deadline")


class _PropState:
    __slots__ = ("prop", "name", "horizon", "lookback", "reach", "offsets", "trackers", "frontier", "kind", "loud_until",
                 "vacuous")

    def __init__(self, prop: ast.Property, name: str):
        self.prop = prop
        self.name = name
        self.horizon = ast.horizon(prop)
        self.lookback = ast.depth(prop.antecedent) + self.horizon
        self.reach = ast.reach(prop)
        self.offsets = ast.offsets(prop)
        self.trackers: tuple = ()  # the trackers of its atoms
        self.frontier = float("-inf")
        self.kind: str | None = None  # the verdict kind at the frontier, once known
        self.loud_until = float("-inf")  # no window is quiet before the frontier passes this
        self.vacuous: list[Key] = []  # vacuous components up to the frontier, normalized


class Session:
    """One streaming run over an ordered sample sequence."""

    def __init__(self, props: list[ast.Property], signals: "dict[str, str] | list[str] | tuple[str, ...]",
                 eps: float = TIME_TOL):
        if isinstance(signals, dict):
            self.kinds = dict(signals)
        else:
            self.kinds = {name: "analog" for name in signals}
            if len(self.kinds) != len(signals):
                raise ProtocolError(f"duplicate signal names in {list(signals)}")
        for name, kind in self.kinds.items():
            if kind not in KINDS:
                raise ProtocolError(f"signal {name!r} has unknown kind {kind!r}")
        if not props:
            raise ProtocolError("no assertions to check")
        self.props = [_PropState(ast.validate(p), p.name or f"a{i + 1}") for i, p in enumerate(props)]
        self.eps = eps
        self._atoms = dict.fromkeys(a for st in self.props for a in ast.collect_atoms(st.prop))
        self._trackers = trackers(self._atoms, self.kinds, eps)
        for st in self.props:
            bases = dict.fromkeys(a.pred if isinstance(a, ast.EventAtom) else a for a in ast.collect_atoms(st.prop))
            st.trackers = tuple(self._trackers[b] for b in bases)
        self._event_porvs = tuple(self._trackers[a.pred] for a in self._atoms
                                  if isinstance(a, ast.EventAtom) and isinstance(a.pred, ast.Porv))
        self._t0: float | None = None
        self._t: float | None = None
        self._cut = float("-inf")  # start of the retained sub-domain
        self._closed = False

    # -- sample intake --------------------------------------------------

    def _coerce(self, values) -> dict[str, float]:
        if not isinstance(values, dict):
            vals = list(values)
            if len(vals) != len(self.kinds):
                raise ProtocolError(f"expected {len(self.kinds)} values, got {len(vals)}")
            values = dict(zip(self.kinds, vals))
        out = {}
        for name, kind in self.kinds.items():
            if name not in values:
                raise ProtocolError(f"sample missing signal {name!r}")
            v = out[name] = float(values[name])
            if not math.isfinite(v):
                raise ProtocolError(f"signal {name!r} has non-finite value {v}")
            if kind == "boolean" and v not in (0.0, 1.0):
                raise ProtocolError(f"boolean signal {name!r} must be 0 or 1, got {v}")
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
        prev = self._t
        if prev is None:
            self._t0 = self._cut = t
            for tr in self._trackers.values():
                tr.begin(t, vals)
        else:
            for tr in self._trackers.values():
                tr.advance(t, vals)
        self._t = t
        out: list[Verdict] = []
        # the latest run boundary within eps before t makes a sliver that normalization would drop: wait
        if not _apart(max(map(_LAST, self._trackers.values())), t, self.eps):
            return out
        # a predicate an event reads is exactly 0 at t: whether a run starts or ends at t shows only in
        # the next sample, so decide no further than the previous one
        now = prev if 0.0 in map(_G, self._event_porvs) else t
        if now is None:
            return out
        ev = None
        moved = False
        for st in self.props:
            upto = now - st.horizon
            # a window no wider than eps would normalize away: let it grow
            if upto < self._t0 or not _apart(st.frontier, upto, self.eps):
                continue
            moved = True
            if st.frontier > st.loud_until and self._quiet(st, upto):
                if st.kind == "vacuous":  # the last held piece ends closed at the frontier: extend it
                    lo, lo_open = st.vacuous[-1][:2]
                    st.vacuous[-1] = (lo, lo_open, upto, True)
                else:
                    out.append(Verdict(st.name, st.kind, Interval(st.frontier, upto, False, True), t))
                st.frontier = upto
                continue
            if ev is None:
                ev = _Evaluator(self._snapshot())
            out.extend(Verdict(st.name, kind, Interval.from_key(k), t) for k, kind in self._decide(st, ev, upto))
        if moved:
            self._trim()
        return out

    def finalize(self) -> list[Verdict]:
        """Close the stream and classify everything still pending."""
        if self._closed:
            raise ProtocolError("session already finalized")
        self._closed = True
        if self._t is None:
            return []
        ev = _Evaluator(self._snapshot())
        out: list[Verdict] = []
        for st in self.props:
            chunks = sorted(self._decide(st, ev, self._t) + [(k, "vacuous-end") for k in st.vacuous])
            out.extend(Verdict(st.name, kind, Interval.from_key(k), self._t) for k, kind in chunks)
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

    def _quiet(self, st: _PropState, upto: float) -> bool:
        """Whether (frontier, upto] is all of the frontier's kind, with no call of `classify`.

        A verdict endpoint is an atom run boundary or a domain edge moved by
        one of `ast.offsets`, none more than `ast.reach` later.  So no
        endpoint falls in the window, or on the frontier, while the trackers
        of the assertion's atoms have no boundary since ``frontier - reach``
        and, where that is before the stream start ``t0``, no ``t0 + o`` is
        near the window; the margin covers the rounding of the shifts.  A
        boundary at ``t0`` itself, from a predicate exactly 0 at the first
        sample or a crossing that rounds to ``t0``, is the domain edge, not a
        truth change: its images are the ``t0 + o`` that the offsets test
        checks, and where ``since >= t0`` they all end before the frontier.
        So neither the boundary test nor ``loud_until`` counts it.  The
        domain end moves by no more than the horizon, to ``upto`` at the
        earliest, and the cut lies a lookback before the frontier.  A match
        is not extended past a horizon: where it lasts to the domain end, it
        ends at the end's image, which the rounding of the shifts can put an
        ulp before ``upto``.  A boundary that blocks this window blocks every
        window until the frontier passes it by the reach: ``loud_until``
        keeps that point, and `feed` calls this only past it.
        """
        if st.kind is None or st.kind == "match" and st.horizon:
            return False
        margin = 4 * self.eps
        since = st.frontier - st.reach - margin
        last = max(map(_LAST, st.trackers))
        if last >= since and last != self._t0:
            st.loud_until = last + st.reach + margin
            return False
        if since >= self._t0:
            return True
        if st.offsets is None:
            return False
        i = bisect_left(st.offsets, st.frontier - margin - self._t0)
        return i == len(st.offsets) or self._t0 + st.offsets[i] > upto + margin

    def _decide(self, st: _PropState, ev: _Evaluator, upto: float) -> list[tuple[Key, str]]:
        """Classify (frontier, upto] and move the frontier to ``upto``.

        Vacuous pieces join the held list; the match, fail and
        undetermined pieces are returned in time order, as component
        keys with their kind.  The kinds are disjoint, so no two keys tie.
        The kind of the piece that holds ``upto``, if any, is kept as the frontier's.
        """
        window = Interval(st.frontier, upto, False, True).intersect(ev.domain)
        st.frontier, st.kind = upto, None
        if window.is_empty:
            return []
        rep = classify(ev, st.prop, st.name, window)
        extend_in_order(st.vacuous, rep.vacuous.keys, self.eps)
        kinds = (("match", rep.nonvacuous), ("fail", rep.fail), ("undetermined", rep.undetermined))
        pieces = sorted((k, kind) for kind, pieces in kinds for k in pieces.keys)
        # the kind of the piece that holds upto; none does where normalization dropped a sliver there
        if pieces and pieces[-1][0][2:] == (upto, True):
            st.kind = pieces[-1][1]
        elif rep.vacuous.keys and rep.vacuous.keys[-1][2:] == (upto, True):
            st.kind = "vacuous"
        return pieces

    def _trim(self) -> None:
        cut = min([st.frontier - st.lookback for st in self.props]) - 2 * self.eps
        if cut <= self._cut:
            return
        self._cut = cut
        for tr in self._trackers.values():
            tr.drop_before(cut)

    def _snapshot(self) -> AtomTable:
        """Atom truth over [cut, now], from the trackers' runs."""
        t = self._t
        return AtomTable(Interval(self._cut, t), self._atoms, lambda base: (self._trackers[base].components(t), False),
                         edges=Interval(self._t0, t), eps=self.eps)
