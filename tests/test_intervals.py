"""Unit and randomized-law tests for the interval set layer."""

import math
import random

import pytest

from amscheck import (
    Interval,
    IntervalSet,
    InvalidDelayError,
    minkowski_diff_set,
    minkowski_sum_set,
    set_complement,
    set_difference,
    set_intersect,
    set_union,
)
from amscheck.intervals import _live, _meet, _normalize, _shift, extend_in_order

MS = 1e-3


def I(lo, hi, lc=True, hc=True):
    return Interval(lo, hi, lc, hc)


def S(*spans):
    """Build an IntervalSet from (lo, hi) or (lo, hi, lc, hc) tuples."""
    return IntervalSet(I(*sp) for sp in spans)


def subset(a, b, domain):
    return set_difference(a, b, domain).is_empty


class TestIntervalBasics:
    def test_point_interval(self):
        p = I(0.7 * MS, 0.7 * MS)
        assert p.lo == p.hi and p.lo_closed and p.hi_closed
        assert not p.is_empty
        assert p.hi - p.lo == 0.0

    def test_empty_when_reversed(self):
        assert I(2.0, 1.0).is_empty

    def test_open_point_is_empty(self):
        # a degenerate span needs both endpoints closed to contain anything
        assert I(1.0, 1.0, True, False).is_empty
        assert I(1.0, 1.0, False, True).is_empty

    def test_contains_respects_closure(self):
        iv = I(1.0, 2.0, False, True)
        assert not iv.contains(1.0)
        assert iv.contains(2.0)
        assert iv.contains(1.5)

    def test_intersect(self):
        got = I(1.0, 4.0).intersect(I(3.0, 6.0))
        assert got.approx_eq(I(3.0, 4.0))

    def test_str_rendering(self):
        assert str(I(1.0, 2.0, False, True)) == "(1:2]"


class TestMinkowski:
    """The window shifts; the scalar cases are single-component sets."""

    def test_sum_basic(self):
        assert minkowski_sum_set(S((1.0, 2.0)), 0.5, 1.0).approx_eq(S((1.5, 3.0)))

    def test_sum_point_window(self):
        # delaying a point match by a window spreads it to the window width
        got = minkowski_sum_set(S((0.7 * MS, 0.7 * MS)), 1 * MS, 4 * MS)
        assert got.approx_eq(S((1.7 * MS, 4.7 * MS)))

    def test_sum_zero_is_identity(self):
        a = S((0.25, 8.5, False, True))
        assert minkowski_sum_set(a, 0.0, 0.0) == a

    def test_diff_basic(self):
        got = minkowski_diff_set(S((3.8 * MS, 5.9 * MS)), 1 * MS, 4 * MS)
        assert got.approx_eq(S((-0.2 * MS, 4.9 * MS)))

    def test_diff_may_cross_zero(self):
        assert minkowski_diff_set(S((2.0, 3.0)), 2.0, 4.0).approx_eq(S((-2.0, 1.0)))

    def test_flags_preserved(self):
        a = S((1.0, 2.0, False, True))
        (s,) = minkowski_sum_set(a, 0.5, 0.5).items
        (d,) = minkowski_diff_set(a, 0.5, 0.5).items
        assert (s.lo_closed, s.hi_closed) == (False, True)
        assert (d.lo_closed, d.hi_closed) == (False, True)

    @pytest.mark.parametrize("c,d", [(-1.0, 2.0), (3.0, 2.0), (float("nan"), 1.0)])
    def test_invalid_window_rejected(self, c, d):
        with pytest.raises(InvalidDelayError):
            minkowski_sum_set(S((0.0, 1.0)), c, d)
        with pytest.raises(InvalidDelayError):
            minkowski_diff_set(S((0.0, 1.0)), c, d)

    def test_set_variants_merge_overlaps(self):
        # widening by the window can fuse neighbouring components
        a = S((0.0, 1.0), (1.5, 2.5))
        got = minkowski_sum_set(a, 0.0, 1.0)
        assert got.approx_eq(S((0.0, 3.5)))


def test_shift_matches_per_component_reference():
    """`_shift` equals shifting each component alone and unioning the results.

    Endpoints and offsets lie on a 0.25 lattice, so membership at lattice
    points and midpoints is exact and is checked too.  Erosions
    (``dlo > dhi``) empty short components; dilations make neighbours
    touch or overlap and merge.
    """
    rng = random.Random(60517)
    emptied = merged = 0
    for _ in range(2000):
        comps = []
        for _ in range(rng.randrange(1, 6)):
            lo = rng.randrange(0, 41) * 0.25
            hi = lo + rng.randrange(0, 9) * 0.25
            comps.append(I(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
        a = IntervalSet(comps)
        dlo, dhi = (rng.randrange(-8, 9) * 0.25 for _ in range(2))
        got = _shift(a, dlo, dhi)

        moved = [I(c.lo + dlo, c.hi + dhi, c.lo_closed, c.hi_closed) for c in a.items]
        want = IntervalSet()
        for iv in moved:
            want = set_union(want, IntervalSet([iv]))
        assert got == want, (a, dlo, dhi)
        assert all(
            got.contains(t) == any(iv.contains(t) for iv in moved)
            for t in (k * 0.125 for k in range(-20, 121))
        ), (a, dlo, dhi)
        live = sum(not iv.is_empty for iv in moved)
        emptied += live < len(a)
        merged += len(got) < live
    assert emptied > 100 and merged > 100


class TestSetOps:
    def test_intersect_basic(self):
        assert set_intersect(S((1, 4)), S((3, 6))).approx_eq(S((3, 4)))

    def test_intersect_multi(self):
        got = set_intersect(S((0, 1), (2, 3)), S((0.5, 2.5)))
        assert got.approx_eq(S((0.5, 1), (2, 2.5)))

    def test_union_merges_touching(self):
        got = set_union(S((1, 2)), S((2, 3, False, True)))
        assert got.approx_eq(S((1, 3)))

    def test_union_keeps_true_gap(self):
        got = set_union(S((1, 2, True, False)), S((2, 3, False, True)))
        assert len(got.items) == 2

    def test_complement_flips_closure(self):
        got = set_complement(S((1, 2)), I(0, 10))
        assert got.approx_eq(S((0, 1, True, False), (2, 10, False, True)))

    def test_complement_of_empty_is_domain(self):
        assert set_complement(IntervalSet(), I(0, 5)).approx_eq(S((0, 5)))

    def test_difference(self):
        dom = I(0, 10)
        got = set_difference(S((0, 10)), S((4, 6)), dom)
        assert got.approx_eq(S((0, 4, True, False), (6, 10, False, True)))

    def test_normalization_sorts_and_merges(self):
        s = IntervalSet([I(5, 6), I(0, 1), I(0.5, 2)])
        assert s.approx_eq(S((0, 2), (5, 6)))

    def test_empty_set(self):
        assert IntervalSet().is_empty
        assert set_intersect(S((0, 1)), S((2, 3))).is_empty


# Randomized algebraic laws.  Endpoints are drawn from a coarse lattice so
# exact-touch cases occur often; flags are random.  Each law application
# counts as one case and the acceptance suite requires >= 10^4 in total.

DOMAIN = Interval(0.0, 10.0)


def rand_interval(rng: random.Random) -> Interval:
    if rng.random() < 0.7:
        lo = rng.randrange(0, 41) * 0.25
        hi = lo + rng.randrange(0, 17) * 0.25
    else:
        lo = rng.uniform(0.0, 10.0)
        hi = lo + rng.uniform(0.0, 4.0)
    hi = min(hi, 10.0)
    return Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


def rand_set(rng: random.Random) -> IntervalSet:
    return IntervalSet(rand_interval(rng) for _ in range(rng.randrange(0, 5)))


# Lattice points and midpoints of the 0.25 lattice, inside and around DOMAIN.
PROBES = [k * 0.125 for k in range(-4, 85)]


def normal_form(s: IntervalSet, eps: float = 1e-9) -> bool:
    """Components non-empty and sorted, separated by a positive gap or by an
    exact open/open puncture; the `Interval` views round-trip to the keys."""
    keys = s.keys
    ok = all(lo < hi or (lo == hi and not lo_open and hi_closed) for lo, lo_open, hi, hi_closed in keys)
    ok = ok and all(y[0] > x[2] or (y[0] == x[2] and not x[3] and y[1]) for x, y in zip(keys, keys[1:]))
    return ok and tuple(iv.key for iv in s.items) == keys and IntervalSet(s.items) == s


def run_law_suite(n_triples: int, seed: int = 20240917) -> int:
    """Check the interval algebra laws on random sets; returns cases run."""
    rng = random.Random(seed)
    cases = 0
    for _ in range(n_triples):
        a, b, c = rand_set(rng), rand_set(rng), rand_set(rng)

        norm = IntervalSet(a.items)
        assert norm.approx_eq(a), f"normalization not idempotent: {a}"
        cases += 1

        assert set_union(a, b).approx_eq(set_union(b, a))
        assert set_intersect(a, b).approx_eq(set_intersect(b, a))
        cases += 2

        assert set_union(set_union(a, b), c).approx_eq(set_union(a, set_union(b, c)))
        assert set_intersect(set_intersect(a, b), c).approx_eq(
            set_intersect(a, set_intersect(b, c))
        )
        cases += 2

        assert set_intersect(a, set_union(b, c)).approx_eq(
            set_union(set_intersect(a, b), set_intersect(a, c))
        )
        cases += 1

        ca = set_complement(a, DOMAIN)
        assert set_complement(ca, DOMAIN).approx_eq(set_intersect(a, IntervalSet([DOMAIN])))
        cases += 1

        ab = set_intersect(set_union(a, b), IntervalSet([DOMAIN]))
        demorgan = set_complement(ab, DOMAIN)
        assert demorgan.approx_eq(
            set_intersect(set_complement(a, DOMAIN), set_complement(b, DOMAIN))
        )
        cases += 1

        assert set_intersect(a, ca).is_empty
        assert set_union(set_intersect(a, IntervalSet([DOMAIN])), ca).approx_eq(
            IntervalSet([DOMAIN])
        )
        cases += 2

        # each operation is the pointwise Boolean one on its operands, in normal form
        union, inter = set_union(a, b), set_intersect(a, b)
        assert all(normal_form(x) for x in (a, union, inter, ca)), (a, b)
        for t in PROBES:
            assert union.contains(t) == (a.contains(t) or b.contains(t)), (a, b, t)
            assert inter.contains(t) == (a.contains(t) and b.contains(t)), (a, b, t)
            assert ca.contains(t) == (DOMAIN.contains(t) and not a.contains(t)), (a, t)
        cases += 4

        lo_w = rng.randrange(0, 9) * 0.25
        hi_w = lo_w + rng.randrange(0, 9) * 0.25
        widened = minkowski_sum_set(a, lo_w, hi_w)
        back = minkowski_diff_set(widened, lo_w, hi_w)
        wide = Interval(-100.0, 100.0)
        assert subset(a, back, wide), f"shift round-trip lost points: {a}"
        cases += 1
    return cases


def test_algebraic_laws_randomized():
    cases = run_law_suite(300)
    assert cases >= 3000


def test_extend_in_order_equals_normalizing_all_pieces_at_once():
    """Pieces added in chunks in time order, or one at a time in any order,
    give the normalization of all of them: sub-eps slivers, closed and open
    points, gaps under eps and exact open/open touches included."""
    rng = random.Random(8080)
    eps = 1e-3
    punctures = slivers = 0
    for _ in range(500):
        keys, lo = [], 0.0
        for _ in range(rng.randint(0, 25)):
            width = rng.choice([0.0, 0.0, rng.uniform(0, eps), eps, rng.uniform(0, 0.1)])
            keys.append((lo, rng.random() < 0.5, lo + width, rng.random() < 0.5))
            # the next piece starts inside this one, at its end exactly, within eps past it, or further on
            lo = rng.choice([lo + rng.uniform(0, width), lo + width, lo + width + rng.uniform(0, eps),
                             lo + width + rng.uniform(0, 0.05)])
        keys.sort()
        want = IntervalSet.from_keys(keys, eps).keys
        held, rest = [], keys
        while rest:
            k = rng.randint(1, len(rest))
            extend_in_order(held, rest[:k], eps)
            rest = rest[k:]
        assert tuple(held) == want, keys
        held = []
        for key in rng.sample(keys, len(keys)):
            extend_in_order(held, [key], eps)
        assert tuple(held) == want, keys
        punctures += sum(x[2] == y[0] for x, y in zip(want, want[1:]))
        slivers += sum(0 < k[2] - k[0] <= eps for k in keys)
    assert punctures > 50 and slivers > 500


def test_complement_of_a_component_near_eps_wide_is_disjoint_and_covers():
    """A component kept by normalization, wider than eps or a closed sliver,
    keeps the two pieces of its complement apart, whatever the rounding of
    ``lo + eps`` at the component's magnitude."""
    eps = 1e-9
    cases = 0
    for mag in (1e-9, 1e-6, 1e-3, 1.0, 1e3):
        domain = I(-1.0, 2.0 * mag + 1.0)
        hi = mag + eps
        for _ in range(4):
            hi = math.nextafter(hi, -math.inf)
        for _ in range(9):
            for lc in (True, False):
                for hc in (True, False):
                    a = S((mag, hi, lc, hc))
                    comp = set_complement(a, domain)
                    probes = (-0.5, mag, 0.5 * (mag + hi), hi, math.nextafter(mag, -1.0), math.nextafter(hi, 2.0 * mag))
                    for t in probes:
                        assert a.contains(t) != comp.contains(t), (mag, hi, lc, hc, t, a, comp)
                    assert set_union(a, comp) == IntervalSet([domain])
                    cases += 1
            hi = math.nextafter(hi, math.inf)
    assert cases > 150
    assert set_complement(S((1.0, 1.0 + 1e-9)), I(0.0, 2.0)) == S((0.0, 1.0, True, False), (1.0 + 1e-9, 2.0, False, True))
    # a closed sliver keeps them apart too
    assert set_complement(S((1.0, 1.0 + 5e-10)), I(0.0, 2.0)) == S((0.0, 1.0, True, False), (1.0 + 5e-10, 2.0, False, True))


def test_intersect_keeps_punctures_less_than_eps_apart():
    """Two punctures, one in each operand, closer than eps: the open sliver
    between them drops and its neighbours stay apart, so neither puncture
    is filled."""
    q = 5.0 - 5e-10
    a = S((0.0, 5.0, True, False), (5.0, 10.0, False, True))
    b = S((0.0, q, True, False), (q, 10.0, False, True))
    want = ((0.0, False, q, False), (5.0, True, 10.0, True))
    assert set_intersect(a, b).keys == set_intersect(b, a).keys == want


def grid_set(rng: random.Random, eps: float, n: int = 12, norm: float | None = None) -> IntervalSet:
    """A set from components on a grid of eps/4, endpoints nudged by an ulp
    now and then: widths and gaps of eps exactly and within an ulp of it,
    sub-eps slivers, closed points, and exact open/open touches.  It is
    normalized with ``norm``, eps unless given."""
    g = eps / 4

    def nudge(x):
        return rng.choice([x, x, x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)])

    keys, x = [], rng.choice([0.0, 1.0, 1024.0])
    for _ in range(rng.randint(0, n)):
        lo = x
        hi = nudge(lo + rng.choice([0, 0, 1, 3, 4, 4, 5, 12]) * g)
        keys.append((lo, rng.random() < 0.5, hi, rng.random() < 0.5))
        x = nudge(hi + rng.choice([0, 0, 0, 1, 4, 4, 5, 12]) * g)
    return IntervalSet.from_keys(keys, eps if norm is None else norm)


def test_intersect_and_complement_equal_normalizing_their_pieces():
    """`set_intersect` and `set_complement` skip the sort and merge: on
    normalized operands they equal `_normalize` of every raw piece, which
    drops the empty and sub-eps pieces and merges none."""
    rng = random.Random(1717)
    eps = 2.0 ** -20  # grid sums are exact, so gaps of eps exactly occur
    exact = 0
    for _ in range(3000):
        a = grid_set(rng, eps)
        # a copy of a moved by up to eps puts punctures of both operands within eps of each other
        b = rng.choice([grid_set(rng, eps), _shift(a, *[rng.choice([-4, -1, 1, 3, 4, 5]) * eps / 4] * 2, eps)])
        raw = [_meet(x, y) for x in a.keys for y in b.keys]
        want = _normalize(raw, eps)
        assert set_intersect(a, b, eps).keys == want == tuple(_live(raw, eps)), (a.keys, b.keys)
        exact += sum(k[2] - k[0] == eps and (k[1] or not k[3]) for k in raw)
        # one component against many, as a window or the domain is: cut from b, or from big's own ends
        big = grid_set(rng, eps, 40)
        ends = sorted(k[i] for k in big.keys for i in (0, 2)) or [0.0]
        lo, hi = sorted(rng.sample(ends, 2) if len(ends) > 1 else ends * 2)
        for x in (*b.keys, (lo, rng.random() < 0.5, hi, rng.random() < 0.5)):
            if x[0] < x[2] or (not x[1] and x[3]):
                want = _normalize([_meet(k, x) for k in big.keys], eps)
                assert set_intersect(big, IntervalSet._of((x,), eps), eps).keys == want, (big.keys, x)
        ends = [k[i] for k in a.keys + b.keys for i in (0, 2)] or [0.0]
        lo, hi = min(ends) - rng.choice([0.0, eps]), max(ends) + rng.choice([0.0, eps])
        domain = I(lo, hi, lo == hi or rng.random() < 0.5, lo == hi or rng.random() < 0.5)
        cuts = [(0.0, False, domain.lo, not domain.lo_closed), *a.keys, (domain.hi, domain.hi_closed, 0.0, False)]
        raw = [(p[2], p[3], n[0], n[1]) for p, n in zip(cuts, cuts[1:])]
        want = _normalize(raw, eps)
        assert set_complement(a, domain, eps).keys == want == tuple(_live(raw, eps)), (a.keys, domain)
        exact += sum(k[2] - k[0] == eps for k in a.keys)
    assert exact >= 50, exact


def test_operands_normalized_with_a_smaller_eps_keep_gaps_and_drop_slivers():
    """Operands normalized with a smaller eps than the call's can hold gaps
    and components no wider than the call's eps: the gaps stay, the slivers
    drop, and `set_intersect`, also of one component against many, and
    `set_complement` equal `_normalize` of their raw pieces."""
    a = IntervalSet([I(0.0, 1.0), I(1.0005, 2.0)])
    assert set_intersect(a, S((0.0, 2.0)), 1e-3) == set_intersect(S((0.0, 2.0)), a, 1e-3) == a
    b = S((0.0, 1.0), (1.5, 1.5005, False, False), (2.0, 3.0))
    assert set_intersect(b, S((0.0, 3.0)), 1e-3) == S((0.0, 1.0), (2.0, 3.0))
    assert set_complement(b, I(0.0, 3.0), 1e-3) == S((1.0, 1.5, False, True), (1.5005, 2.0, True, False))
    rng = random.Random(2929)
    eps = 2.0 ** -20
    for _ in range(1000):
        a, b = grid_set(rng, eps, norm=eps / 8), grid_set(rng, eps, norm=eps / 8)
        raw = [_meet(x, y) for x in a.keys for y in b.keys]
        want = _normalize(raw, eps)
        assert set_intersect(a, b, eps).keys == want, (a.keys, b.keys)
        ends = [k[i] for k in a.keys for i in (0, 2)] or [0.0]
        domain = I(min(ends), max(ends))
        cuts = [(0.0, False, domain.lo, False), *a.keys, (domain.hi, True, 0.0, False)]
        want = _normalize([(p[2], p[3], n[0], n[1]) for p, n in zip(cuts, cuts[1:])], eps)
        assert set_complement(a, domain, eps).keys == want, (a.keys, domain)
        # one component against many, whose slivers the bisecting path would pass through
        big = grid_set(rng, eps, 40, norm=eps / 8)
        x = (big.keys[0][0], False, big.keys[-1][2], True) if big else (0.0, False, 1.0, True)
        want = _normalize([_meet(k, x) for k in big.keys], eps)
        assert set_intersect(big, IntervalSet.from_keys([x], eps), eps).keys == want, big.keys
