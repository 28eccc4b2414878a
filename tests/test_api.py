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
