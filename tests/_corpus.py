"""Randomized trace/assertion corpus shared by the differential suites.

Traces are piecewise linear with a modest number of knots; assertion
bounds are drawn as multiples of 0.01*T inside [0.1*T, 0.33*T] so the
dt = min_bound/20 oracle grid resolves every window comfortably.

`decimal_trace` and ``random_property(..., step=0.25)`` make the
coincidence-heavy corpus: knots on the same 0.01*T grid as the bounds,
values and thresholds on grids of their own, so crossings fall on samples
or on decimal instants between them, where window ends often fall too,
as on test benches with decimal edges.
"""

import random

from amscheck import Trace, validate
from amscheck import ast as A
from amscheck.expr import BinOp, Const, SignalRef
from amscheck.oracle import grid_resolves


def random_trace(rng: random.Random, T: float = 1.0) -> Trace:
    n_sig = rng.randint(2, 3)
    names = [f"s{i}" for i in range(n_sig)]
    n_knots = rng.randint(4, 20)
    interior = sorted(rng.uniform(0.02 * T, 0.98 * T) for _ in range(n_knots))
    times = [0.0] + interior + [T]
    # drop near-duplicates so sample spacing stays usable
    keep = [times[0]]
    for t in times[1:]:
        if t - keep[-1] > T / 400:
            keep.append(t)
    if keep[-1] != T:
        keep.append(T)
    sigs = {}
    for name in names:
        sigs[name] = [rng.uniform(-1.0, 2.0) for _ in keep]
    return Trace(keep, sigs)


def decimal_trace(rng: random.Random, T: float = 1.0) -> Trace:
    """Knots on a 0.01*T grid, the ends included, and values in steps of 0.5."""
    ticks = sorted({0, 100, *rng.sample(range(1, 100), rng.randint(3, 12))})
    names = [f"s{i}" for i in range(rng.randint(2, 3))]
    return Trace([k * 0.01 * T for k in ticks], {n: [0.5 * rng.randint(-1, 3) for _ in ticks] for n in names})


def _porv(rng: random.Random, names, step: float | None = None) -> A.Porv:
    name = rng.choice(names)
    scale = rng.choice([1.0, -1.0, 2.0])
    thresh = rng.uniform(-0.5, 1.5) if step is None else step * rng.randint(-2, 6)
    expr = BinOp("-", BinOp("*", Const(scale), SignalRef(name)), Const(scale * thresh))
    return A.Porv(expr, rng.choice([">", ">="]))


def _bexpr(rng: random.Random, names, step: float | None = None) -> A.BExpr:
    roll = rng.random()
    if roll < 0.55:
        return _porv(rng, names, step)
    if roll < 0.75:
        return A.And((_porv(rng, names, step), _porv(rng, names, step)))
    if roll < 0.9:
        return A.Not(_porv(rng, names, step))
    return A.EventAtom(_porv(rng, names, step), rng.choice(["pos", "neg"]))


def _bound(rng: random.Random, T: float) -> float:
    # lattice of 0.01*T keeps bound/dt ratios stable
    return rng.randint(10, 33) * 0.01 * T


def _window(rng: random.Random, T: float) -> tuple[float, float]:
    # both ends stay within a third of the trace length
    a_units = rng.randint(10, 28)
    b_units = rng.randint(a_units, 33)
    return a_units * 0.01 * T, b_units * 0.01 * T


def _seq(rng: random.Random, names, T: float, depth: int, step: float | None) -> A.SeqExpr:
    if depth <= 0 or rng.random() < 0.4:
        return A.SeqBool(_bexpr(rng, names, step))
    roll = rng.random()
    if roll < 0.4:
        return A.Repeat(_seq(rng, names, T, 0, step), _bound(rng, T))
    if roll < 0.75:
        a, b = _window(rng, T)
        return A.Delay(_seq(rng, names, T, depth - 1, step), a, b, _seq(rng, names, T, 0, step))
    a, b = _window(rng, T)
    return A.RepeatUntil(_seq(rng, names, T, 0, step), a, b, _seq(rng, names, T, 0, step))


def random_property(rng: random.Random, names, T: float = 1.0, step: float | None = None) -> A.Property:
    """A random assertion; predicate thresholds are multiples of ``step`` when it is given."""
    ante = _seq(rng, names, T, rng.randint(0, 2), step)
    cons = _seq(rng, names, T, rng.randint(0, 1), step)
    delay = _window(rng, T) if rng.random() < 0.3 else None
    return validate(A.Property(ante, cons, delay, name="r"))


def min_bound(p: A.Property) -> float:
    from amscheck.oracle import _bounds_of

    bounds = _bounds_of(p)
    return min(bounds) if bounds else 0.1


def iter_cases(n: int, seed: int = 123, T: float = 1.0):
    """Yield (trace, property, dt) triples; deterministic per seed."""
    rng = random.Random(seed)
    made = 0
    while made < n:
        tr = random_trace(rng, T)
        p = random_property(rng, list(tr.signals), T)
        dt = min_bound(p) / 20.0
        # grid must also resolve the trace's own sample spacing
        import numpy as np

        gaps = np.diff(tr.times())
        if dt > float(gaps.min()):
            continue
        # the grid oracle must be able to see every truth feature
        if not grid_resolves(tr, p, dt):
            continue
        made += 1
        yield tr, p, dt
