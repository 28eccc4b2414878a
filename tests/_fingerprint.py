"""Equivalence fingerprint: SHA-256 digests of everything the checker outputs.

Prints one JSON object that maps each output family to the digest of its
text over a fixed, seeded input set:

- ``check``: ``amscheck check --report`` report bytes, stdout and exit code
  on seeds 0-2 of every workload in ``benchmarks/workloads.py``;
- ``check_split``: ``amscheck check --report`` report bytes, stdout and
  exit code on traces of a few MiB, large enough for ``load_csv`` to parse
  in parts on a host with two CPUs or more: clean files with LF or CRLF line
  ends, a byte-order mark or no final line end, files with a comment,
  whitespace-only, blank, ``#kind``, malformed or non-UTF-8 line late among
  the data, and one with a lone CR in the header;
- ``stream``: ``amscheck stream`` output on each of those inputs' first
  stream window;
- ``session``: `Session` verdicts (name, kind, interval, decided_at) on
  corpus traces resampled to 100 samples, for corpus properties and for
  the same kind of properties with non-affine predicates, whose crossings
  the trackers bisect;
- ``match``: `assertion_match` component keys on corpus cases;
- ``codegen``: `generate_monitors` text, bare and wrapped in a module, or
  the `CodegenError` text, on corpus properties;
- ``oracle``: `oracle_classify` grids and kinds, or the `GridError` text,
  on corpus cases.

To compare two source trees, run it once against each and compare the
outputs byte for byte::

    PYTHONPATH=old/src python3 tests/_fingerprint.py > old.json
    PYTHONPATH=new/src python3 tests/_fingerprint.py > new.json
    cmp old.json new.json

``--tiny`` uses the workloads' tiny sizes, one seed and a few corpus cases.
Only the standard library and numpy are used; nothing is written outside a
temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "benchmarks")]

from _corpus import min_bound, random_property, random_trace  # noqa: E402
from workloads import WORKLOADS, write_csv  # noqa: E402

from amscheck import (  # noqa: E402
    AmscheckError,
    CodegenConfig,
    Session,
    assertion_match,
    build_table,
    cli,
    generate_monitors,
    oracle_classify,
    parse_property,
    pretty,
)

FULL = {"size": "full", "seeds": (0, 1, 2), "split_rows": 60_000, "session": 150, "match": 1500, "codegen": 600,
        "oracle": 300}
TINY = {"size": "tiny", "seeds": (0,), "split_rows": 30_000, "session": 5, "match": 20, "codegen": 20, "oracle": 3}


def _cases(n: int, seed: int):
    """``n`` corpus (trace, property) pairs, without the oracle's resolution filter."""
    rng = random.Random(seed)
    for _ in range(n):
        tr = random_trace(rng)
        yield tr, random_property(rng, list(tr.signals))


def _run_cli(argv: list[str], stdin: str = "") -> str:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return f"rc={rc}\n{out.getvalue()}{err.getvalue()}"


def cli_outputs(cfg: dict, work: Path) -> tuple[list[str], list[str]]:
    """Check and stream outputs on the benchmark workloads; runs in ``work``."""
    checks, streams = [], []
    for name, w in sorted(WORKLOADS.items()):
        (work / "props.txt").write_text(w.props)
        for seed in cfg["seeds"]:
            t, sig = w.inputs(seed, cfg["size"])
            write_csv(work / "trace.csv", t, sig)
            rep = work / "report.json"
            rep.unlink(missing_ok=True)
            text = _run_cli(["check", "trace.csv", "props.txt", "--report", "report.json"])
            checks.append(f"{name} {seed}\n{text}{rep.read_text() if rep.exists() else ''}")
            n = w.stream_rows[cfg["size"]]
            lines = [" ".join(map(repr, row)) for row in zip(t[:n].tolist(), *(v[:n].tolist() for v in sig.values()))]
            streams.append(f"{name} {seed}\n" + _run_cli(["stream", "props.txt", "--signals", ",".join(sig)],
                                                          "\n".join(lines) + "\n"))
    return checks, streams


def split_check_outputs(cfg: dict, work: Path) -> list[str]:
    """Check outputs on traces large enough to be parsed in parts; runs in ``work``."""
    w = WORKLOADS["smooth-cli"]
    (work / "props.txt").write_text(w.props)
    t, sig = w.signals(3, cfg["split_rows"])
    header = "time," + ",".join(sig)
    rows = [",".join(map(repr, row)) for row in zip(t.tolist(), *(v.tolist() for v in sig.values()))]
    late = len(rows) * 7 // 8  # in the last of two or more parts

    def text(body, end="\n", final=True, head=header) -> bytes:
        return (head + end + end.join(body) + (end if final else "")).encode("utf-8", "surrogateescape")

    def inserted(line, at=late):
        return rows[:at] + [line] + rows[at:]

    variants = [
        ("lf", text(rows)),
        ("crlf and bom", b"\xef\xbb\xbf" + text(rows, "\r\n")),
        ("no final line end", text(rows, final=False)),
        ("late comment", text(inserted("# a note"))),
        ("late whitespace-only line", text(inserted("  \t"))),
        ("blank line", text(inserted("", len(rows) // 2))),
        ("late kind row", text(inserted("#kind,analog,analog,analog"))),
        ("late malformed row", text(inserted("1e9,abc,1,2"))),
        ("late non-UTF-8 byte", text(inserted("1e9,\udcff,1,2"))),
        ("lone CR in the header", text(rows, head="# exported\r" + header)),
    ]
    out = []
    for name, data in variants:
        (work / "trace.csv").write_bytes(data)
        rep = work / "report.json"
        rep.unlink(missing_ok=True)
        got = _run_cli(["check", "trace.csv", "props.txt", "--report", "report.json"])
        out.append(f"{name}\n{got}{rep.read_text() if rep.exists() else ''}")
    return out


def _nonaffine(p):
    """``p`` with every ``V(s)`` read as ``V(s)*V(s)-V(s0)/2``: no predicate is affine."""
    return parse_property(re.sub(r"V\((\w+)\)", r"(V(\1)*V(\1)-V(s0)/2)", pretty(p)), name=p.name)


def session_outputs(n: int) -> list[str]:
    out = []
    for tr, p in [*_cases(n, 11), *((tr, _nonaffine(p)) for tr, p in _cases(n, 16))]:
        t = np.linspace(tr.domain.lo, tr.domain.hi, 100)
        cols = {s: np.interp(t, tr.times(), tr.values(s)).tolist() for s in tr.signals}
        sess = Session([p], tr.kinds)
        verdicts = []
        for i, ti in enumerate(t.tolist()):
            verdicts += sess.feed(ti, {s: c[i] for s, c in cols.items()})
        verdicts += sess.finalize()
        out.append(repr([(v.name, v.kind, v.interval.key, v.decided_at) for v in verdicts]))
    return out


def match_outputs(n: int) -> list[str]:
    out = []
    for tr, p in _cases(n, 12):
        r = assertion_match(p, build_table(tr, p))
        out.append(repr([s.keys for s in (r.nonvacuous, r.vacuous, r.fail, r.undetermined)]))
    return out


def codegen_outputs(n: int) -> list[str]:
    out = []
    for _, p in _cases(n, 13):
        for wrap in (False, True):
            try:
                out.append(generate_monitors(p, CodegenConfig(wrap_module=wrap)))
            except AmscheckError as e:
                out.append(f"{type(e).__name__}: {e}")
    return out


def oracle_outputs(n: int) -> list[str]:
    out = []
    for tr, p in _cases(n, 14):
        try:
            # the corpus's grid step, capped at the sample spacing so most cases get a grid
            dt = min(min_bound(p) / 20.0, float(np.diff(tr.times()).min()))
            grid, kinds = oracle_classify(tr, p, dt)
            out.append(repr((grid.tolist(), kinds)))
        except AmscheckError as e:
            out.append(f"{type(e).__name__}: {e}")
    return out


def fingerprint(cfg: dict) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            checks, streams = cli_outputs(cfg, Path(tmp))
            split_checks = split_check_outputs(cfg, Path(tmp))
        finally:
            os.chdir(cwd)
    parts = {
        "check": checks,
        "check_split": split_checks,
        "stream": streams,
        "session": session_outputs(cfg["session"]),
        "match": match_outputs(cfg["match"]),
        "codegen": codegen_outputs(cfg["codegen"]),
        "oracle": oracle_outputs(cfg["oracle"]),
    }
    return {k: hashlib.sha256("\n\x00".join(v).encode()).hexdigest() for k, v in parts.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true", help="small inputs, for a smoke test")
    args = ap.parse_args(argv)
    print(json.dumps(fingerprint(TINY if args.tiny else FULL), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
