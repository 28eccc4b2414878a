"""Grid-reference checker tests: sanity on fixtures, engine agreement."""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _corpus import iter_cases, min_bound, random_property, random_trace

from amscheck import ast as A
from amscheck import (
    GridError,
    Trace,
    assertion_match,
    build_table,
    grid_resolves,
    oracle_classify,
    parse_property,
)
from amscheck.expr import Node
from amscheck.oracle import _GridEval, _ticks
from amscheck.wavegen import fixture_trace

SETTLING = (
    "@+{V(Vout)>0.12} |-> ##[0.001:0.004] "
    "{V(Vout)>=1.14 && V(Vout)<=1.26}[*0.002];"
)


def boundary_distance(t, report):
    dist = float("inf")
    for s in (report.nonvacuous, report.vacuous, report.fail, report.undetermined):
        for comp in s.items:
            dist = min(dist, abs(t - comp.lo), abs(t - comp.hi))
    return dist


def any_edges(n):
    """``n`` with the edge of every event in it set to any."""
    if isinstance(n, A.EventAtom):
        return A.EventAtom(n.pred, "any")
    if isinstance(n, tuple):
        return tuple(map(any_edges, n))
    if isinstance(n, Node) and not isinstance(n, (A.Porv, A.BoolSignal)):
        return type(n)(*(any_edges(getattr(n, field)) for field in type(n).__slots__))
    return n


def agree_up_to_boundaries(trace, prop, dt, tol_scale=2.0):
    grid, kinds = oracle_classify(trace, prop, dt)
    rep = assertion_match(prop, build_table(trace, prop))
    for t, k in zip(grid, kinds):
        if k == "uncertain":
            continue  # the oracle abstains within grid slack of a bound
        status = rep.status_at(float(t))
        if status == "undetermined":
            status = "fail"  # the grid oracle has no finality notion
        if status != k and boundary_distance(float(t), rep) > tol_scale * dt + 1e-9:
            return False, float(t), k, status
    return True, None, None, None


class TestFixtures:
    def test_settling_match_only_at_trigger(self):
        tr = fixture_trace("settling")
        p = parse_property(SETTLING)
        grid, kinds = oracle_classify(tr, p, dt=1e-5)
        matches = [t for t, k in zip(grid, kinds) if k == "match"]
        assert len(matches) == 1
        assert matches[0] == pytest.approx(0.7e-3, abs=2e-5)
        assert "fail" not in kinds

    def test_unsatisfiable_antecedent_vacuous_everywhere(self):
        tr = fixture_trace("settling")
        p = parse_property("{V(Vout)>9} |-> ##[0.001:0.004] {V(Vout)>1};")
        _, kinds = oracle_classify(tr, p, dt=1e-5)
        assert set(kinds) == {"vacuous"}

    def test_escape_fail_at_trigger(self):
        # the response misses the window by 50ns, so the grid must be
        # fine enough that 3*dt slack stays inside that margin
        tr = fixture_trace("delay-escape")
        p = parse_property(
            "@+{V(Vin)>3} |-> ##[0.000002:0.00000425] {V(Vout)>1.8};"
        )
        grid, kinds = oracle_classify(tr, p, dt=1e-8)
        fails = [t for t, k in zip(grid, kinds) if k == "fail"]
        assert len(fails) >= 1
        assert min(fails) == pytest.approx(1e-5, abs=2e-8)

    def test_escape_abstains_when_margin_is_sub_slack(self):
        # at dt=1e-7 the 50ns margin sits inside the 3*dt slack band,
        # so the trigger verdict is withheld rather than guessed
        tr = fixture_trace("delay-escape")
        p = parse_property(
            "@+{V(Vin)>3} |-> ##[0.000002:0.00000425] {V(Vout)>1.8};"
        )
        grid, kinds = oracle_classify(tr, p, dt=1e-7)
        assert "fail" not in kinds
        near = [k for t, k in zip(grid, kinds) if abs(t - 1e-5) < 2e-7]
        assert "uncertain" in near


class TestGridPreconditions:
    def test_dt_must_resolve_bounds(self):
        tr = fixture_trace("settling")
        p = parse_property(SETTLING)
        with pytest.raises(GridError):
            oracle_classify(tr, p, dt=5e-4)  # smallest bound is 1ms

    def test_dt_must_resolve_samples(self):
        tr = fixture_trace("delay-escape")
        p = parse_property("{V(Vin)>3} |-> ##[0.00001:0.00002] {V(Vout)>1.8};")
        with pytest.raises(GridError):
            oracle_classify(tr, p, dt=1.9e-6)  # tightest sample gap is smaller
        # without bounds, only the sample spacing limits dt
        tr = Trace([0.0, 0.5, 0.75, 1.0], {"x": [0.0, 1.0, 0.0, 1.0]})
        with pytest.raises(GridError, match="^dt=0.3 exceeds the smallest sample spacing 0.25$"):
            oracle_classify(tr, parse_property("{V(x)>0.5} |-> {V(x)>0.2};"), dt=0.3)


    def test_grid_over_the_point_cap(self, monkeypatch):
        """`_ticks` refuses a grid of more than `_MAX_TICKS` points (patched
        small here) before building it, so the oracle, the resolution check
        and the clocked sampler raise GridError and `grid_resolves` is False."""
        from amscheck import oracle
        from amscheck.clocked import sample_on_clock

        monkeypatch.setattr(oracle, "_MAX_TICKS", 100)
        assert len(_ticks(0.0, 0.99, 0.01)) == 100
        with pytest.raises(GridError, match=r"^dt=0\.01 over \[0, 1\] needs 101 grid points, more than 100$"):
            _ticks(0.0, 1.0, 0.01)
        with pytest.raises(GridError, match="needs inf grid points"):
            _ticks(0.0, 1.0, 1e-320)
        tr = Trace([0.0, 1.0, 2.0], {"x": [0.0, 1.0, 0.0]})
        p = parse_property("{V(x)>0.5} |-> {V(x)<2};")
        assert grid_resolves(tr, p, 0.2)
        assert not grid_resolves(tr, p, 0.1)  # the resolution check's grid holds 161 points
        with pytest.raises(GridError, match="dt=0.01 over"):
            oracle_classify(tr, p, 0.01)
        assert len(sample_on_clock(tr, p.antecedent.bexpr, 0.025)) == 81
        with pytest.raises(GridError, match="needs 201 grid points"):
            sample_on_clock(tr, p.antecedent.bexpr, 0.01)


class TestEngineAgreement:
    def test_settling_agreement(self):
        tr = fixture_trace("settling")
        p = parse_property(SETTLING)
        ok, t, got, want = agree_up_to_boundaries(tr, p, 1e-5)
        assert ok, f"at t={t}: oracle={got} engine={want}"

    def test_randomized_agreement_sample(self):
        """A slice of the differential corpus; the full run lives in the
        acceptance suite."""
        for tr, p, dt in iter_cases(25, seed=11):
            ok, t, got, want = agree_up_to_boundaries(tr, p, dt)
            assert ok, f"at t={t}: oracle={got} engine={want}"

    def test_any_edge_events_agree(self):
        """Corpus cases that hold an event, with every event's edge set to any."""
        rng = random.Random(31)
        done = rewritten = 0
        while done < 25:
            tr = random_trace(rng)
            p = random_property(rng, list(tr.signals))
            if not any(isinstance(n, A.EventAtom) for n in A.iter_nodes(p)):
                continue
            q = any_edges(p)
            dt = min_bound(q) / 20.0
            if dt > float(np.diff(tr.times()).min()) or not grid_resolves(tr, q, dt):
                continue
            ok, t, got, want = agree_up_to_boundaries(tr, q, dt)
            assert ok, f"{A.pretty(q)} at t={t}: oracle={got} engine={want}"
            done += 1
            rewritten += q != p
        assert rewritten > 0

    def test_refinement_stable(self):
        """Halving dt must not flip verdicts away from boundaries."""
        tr = fixture_trace("settling")
        p = parse_property(SETTLING)
        g1, k1 = oracle_classify(tr, p, 2e-5)
        g2, k2 = oracle_classify(tr, p, 1e-5)
        fine = dict(zip((round(t, 12) for t in g2), k2))
        flips = 0
        for t, k in zip(g1, k1):
            kk = fine.get(round(t, 12))
            if kk is not None and kk != k:
                flips += 1
        # flips can only happen within quantization reach of a boundary;
        # on this waveform the regions are wide, so none at all
        assert flips <= 2


class TestWindowCounts:
    """The grid's window counts against O(n²) loops over every index pair."""

    @staticmethod
    def offsets(dt, a, b, slack):
        """Grid offsets d whose lag d*dt lies in [a, b] widened by ``slack``, within
        the grid's 1e-9 step tolerance; a window between two grid points takes
        the point nearest its middle."""
        a, b = max(0.0, a - slack), b + slack
        if b < a:
            return []
        offs = [d for d in range(int(b / dt) + 2) if a - 1e-9 * dt <= d * dt <= b + 1e-9 * dt]
        return offs or [round(0.5 * (a + b) / dt)]

    def cases(self):
        rng = random.Random(2024)
        for case in range(400):
            n = rng.randint(1, 30)
            dt = rng.choice([1.0, 0.25, 1e-3, 3e-7])
            arr = np.array([rng.random() < rng.choice([0.05, 0.3, 0.8]) for _ in range(n)])
            if case % 4 == 0:
                a = b = rng.randint(0, n + 2) * dt  # a point window
            elif case % 4 == 1:
                a, b = rng.uniform(0, 2) * dt, rng.uniform(n, 3 * n) * dt  # wider than the grid
            else:
                a = rng.uniform(0, n) * dt
                b = a + rng.choice([0.0, rng.uniform(0, 0.9), rng.uniform(0, n)]) * dt
            slack = rng.choice([0.0, 3.0, -3.0, rng.uniform(-n, n)]) * dt
            yield n, dt, arr, a, b, slack

    def test_forward_and_backward_counts_equal_brute_force(self):
        left, right = A.SeqBool(A.BoolSignal("p")), A.SeqBool(A.BoolSignal("q"))
        seen = {"point": 0, "wide": 0, "narrowed away": 0}
        for n, dt, arr, a, b, slack in self.cases():
            grid = dt * np.arange(n)
            ev = _GridEval(Trace([0.0, 1.0], {"x": [0.0, 0.0]}), grid, dt, slack=slack)
            offs = self.offsets(dt, a, b, slack)
            fwd = [any(arr[k + d] for d in offs if k + d < n) for k in range(n)]
            back = [any(arr[k - d] for d in offs if k - d >= 0) for k in range(n)]
            assert ev._any_fwd(arr, a, b).tolist() == fwd, (n, dt, a, b, slack)
            # _end reads a delay's left end matches lo..hi back, through the reversed grid
            ev._em[left], ev._em[right] = arr, np.ones(n, dtype=bool)
            assert ev.end(A.Delay(left, a, b, right)).tolist() == back, (n, dt, a, b, slack)
            seen["point"] += a == b
            seen["wide"] += bool(offs) and max(offs) >= n
            seen["narrowed away"] += not offs
        assert min(seen.values()) > 20, seen


def test_grid_samples_equal_value_at_bit_for_bit():
    """The grid's one sampler is `Trace.value_at`'s rule: the same float at every
    grid point, for analog and boolean signals alike."""
    rng = random.Random(77)
    for _ in range(100):
        tr = random_trace(rng)
        times = tr.times()
        cols = {s: tr.values(s) for s in tr.signals}
        cols["d"] = np.array([float(rng.random() < 0.5) for _ in times])
        tr = Trace(times, cols, kinds={"d": "boolean"})
        dt = 1.0 / rng.uniform(50, 500)
        lo, hi = tr.domain.lo, tr.domain.hi
        grid = np.union1d(_ticks(lo, hi, dt), times)  # the sample instants themselves too
        ev = _GridEval(tr, grid, dt)
        for s in tr.signals:
            want = np.array([tr.value_at(s, min(t, hi)) for t in grid.tolist()])
            assert ev.signal(s).tobytes() == want.tobytes(), s
