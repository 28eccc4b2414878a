"""Correctness gate applied to every benchmark operation.

A check run passes when its JSON report tiles the trace domain with the
four verdict kinds and, per assertion and kind, its component count and
total measure agree with the reference summary.  A stream passes when the
union of its verdicts of each kind equals the offline ``assertion_match``
result on the same samples (the acceptance #4 method).

Summaries have the form ``{assertion: {kind: [components, measure]}}``.
"""

from __future__ import annotations

KINDS = ("nonvacuous", "vacuous", "fail", "undetermined")
STREAM_KIND = {"match": "nonvacuous", "vacuous-end": "vacuous", "fail": "fail", "undetermined": "undetermined"}


def _rows_summary(rows) -> list:
    return [len(rows), sum(hi - lo for lo, hi, _, _ in rows)]


def report_summary(doc: dict) -> dict:
    """Summary of a ``check --report`` JSON document."""
    return {a["name"]: {k: _rows_summary(a[k]) for k in KINDS} for a in doc["assertions"]}


def match_summary(reports) -> dict:
    """Summary of ``MatchReport`` objects."""
    return {
        r.name: {
            k: _rows_summary([(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) for iv in getattr(r, k).items])
            for k in KINDS
        }
        for r in reports
    }


def partition_error(doc: dict, tol: float) -> str | None:
    """None when, for every assertion, the four kinds tile the domain exactly once."""
    lo, hi = doc["domain"]
    for a in doc["assertions"]:
        rows = sorted((r for k in KINDS for r in a[k]), key=lambda r: (r[0], not r[2]))
        at, need_closed = lo, True
        for r_lo, r_hi, lo_closed, hi_closed in rows:
            if abs(r_lo - at) > tol or lo_closed != need_closed or r_hi < r_lo:
                return f"{a['name']}: verdicts do not tile the domain near t={r_lo!r}"
            at, need_closed = r_hi, not hi_closed
        if abs(at - hi) > tol or need_closed:
            return f"{a['name']}: verdicts stop at t={at!r}, domain ends at {hi!r}"
    return None


def summary_error(got: dict, want: dict, tol: float) -> str | None:
    """None when counts are equal and measures agree to ``tol`` per component edge."""
    if sorted(got) != sorted(want):
        return f"assertions {sorted(got)} != reference {sorted(want)}"
    for name in want:
        for kind in KINDS:
            (n, m), (n_ref, m_ref) = got[name][kind], want[name][kind]
            if n != n_ref:
                return f"{name}/{kind}: {n} components, reference has {n_ref}"
            if abs(m - m_ref) > 2 * tol * max(n, 1):
                return f"{name}/{kind}: measure {m!r}, reference {m_ref!r}"
    return None


def stream_error(verdicts, reports, eps: float) -> str | None:
    """None when each kind's verdict union equals the offline report on the same samples."""
    from amscheck import IntervalSet

    for r in reports:
        for stream_kind, kind in STREAM_KIND.items():
            got = IntervalSet([v.interval for v in verdicts if v.name == r.name and v.kind == stream_kind], eps)
            want = getattr(r, kind)
            if not got.approx_eq(want, eps):
                return f"{r.name}/{kind}: streamed union has {len(got)} components, offline {len(want)}, or they differ"
    return None
