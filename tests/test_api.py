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
    assert all(callable(getattr(Session, name)) for name in ("feed", "finalize", "pending_obligations"))

    # benchmarks/tracing.py wraps these names where amscheck.cli binds them
    from amscheck import cli

    assert all(callable(getattr(cli, name)) for name in ("load_csv", "parse_file", "build_table", "assertion_match"))
    assert all(hasattr(amscheck, name) for name in ("parse_file", "Trace", "assertion_match", "build_table", "horizon",
                                                    "IntervalSet"))
    (p,) = amscheck.parse_file("p: {V(x)>0.5} |-> {V(x)<2};")
    tr = amscheck.Trace([0.0, 1.0, 2.0], {"x": [0.0, 1.0, 0.0]})
    rep = amscheck.assertion_match(p, amscheck.build_table(tr, p), name=p.name)
    assert amscheck.horizon(p) == 0.0
    for kind in ("nonvacuous", "vacuous", "fail", "undetermined"):
        assert all(isinstance(iv, Interval) for iv in getattr(rep, kind).items)
