"""The package's export list and the CLI defaults that mirror library constants."""

import amscheck
from amscheck import intervals
from amscheck.cli import build_parser


def test_all_unique_and_resolvable():
    names = amscheck.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(amscheck, n)]
    assert not missing


def test_time_tol_default_is_library_tolerance():
    ap = build_parser()
    for argv in (["check", "t.csv", "p.txt"], ["stream", "p.txt", "--signals", "x:analog"]):
        assert ap.parse_args(argv).time_tol == intervals.TIME_TOL


def test_benchmark_harness_contract():
    """What benchmarks/gate.py and benchmarks/run.py read from the package."""
    from amscheck import Interval, IntervalSet, Session, parse_property

    s = IntervalSet([Interval(2.0, 3.0, False, True), Interval(0.0, 1.0)], 1e-9)
    assert [(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) for iv in s.items] == [(0.0, 1.0, True, True), (2.0, 3.0, False, True)]
    assert all(isinstance(iv, Interval) for iv in s)
    assert s.approx_eq(IntervalSet([Interval(0.0, 1.0 + 1e-12), Interval(2.0, 3.0, False, True)]), 1e-9)
    assert not isinstance(Interval(0.0, 1.0), tuple)  # test_online.union_of reads a tuple as (lo, hi, lo_closed, hi_closed)

    sess = Session([parse_property("{V(x)>0.5} |-> {V(x)<2}", name="p")], ["x"])
    verdicts = sess.feed(0.0, [1.0]) + sess.feed(1.0, [1.0]) + sess.finalize()
    assert verdicts and all(type(v.interval.lo) is float and v.interval.lo_closed in (True, False) for v in verdicts)
