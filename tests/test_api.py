"""The package's export list and the CLI defaults that mirror library constants."""

import json
import os
import runpy
import subprocess
import sys
import types
from pathlib import Path

import amscheck
from amscheck import intervals, parser
from amscheck.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def fresh_python(code: str, *args: str, hash_seed: str | None = None) -> object:
    """Run ``code`` in a new interpreter on this checkout's source, with
    ``PYTHONHASHSEED`` set to ``hash_seed`` when given, and return the JSON
    value it prints."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    run = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_all_unique_and_resolvable():
    names = amscheck.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(amscheck, n)]
    assert not missing
    assert not hasattr(amscheck, "load_cvs") and not hasattr(amscheck, "Sesion")
    # every first-use name and every error class is exported, and no module or private name is
    errors = [v for v in vars(amscheck.errors).values()
              if isinstance(v, type) and issubclass(v, amscheck.AmscheckError) and v.__module__ == "amscheck.errors"]
    assert set(amscheck._LAZY) | {e.__name__ for e in errors} <= set(names)
    assert amscheck.BoundError in errors
    assert not [n for n in names if n.startswith("_") or isinstance(getattr(amscheck, n), types.ModuleType)]
    # in a new interpreter, dir() lists every name before any is loaded, and a star import binds them all
    code = """
import json, amscheck
undir = [n for n in amscheck.__all__ if n not in dir(amscheck)]
from amscheck import *
print(json.dumps([undir, [n for n in amscheck.__all__ if n not in globals()]]))
"""
    assert fresh_python(code) == [[], []]


def test_import_and_parse_load_only_the_parser():
    """`import amscheck` and `parse_file` load no engine, streaming, trace or
    CLI module; a module and a public name each load their module on first
    access, and the `Session` name loads the streaming module."""
    code = """
import json, sys
import amscheck
amscheck.parse_file("a: {V(x)>0} |-> ##[0:1] {V(x)>1};")
engine_modules = ["amscheck.atoms", "amscheck.intervals", "amscheck.engine", "amscheck.online"]
parsed = [m for m in engine_modules + ["amscheck.trace", "amscheck.cli", "numpy"] if m in sys.modules]
classify = callable(amscheck.engine.classify)
after_engine = [m for m in engine_modules if m in sys.modules]
amscheck.Session
print(json.dumps([parsed, classify, after_engine, "amscheck.online" in sys.modules]))
"""
    assert fresh_python(code) == [[], True, ["amscheck.atoms", "amscheck.intervals", "amscheck.engine"], True]


def test_check_loads_no_streaming_code(tmp_path):
    """`amscheck check` runs without loading the streaming module."""
    props = tmp_path / "p.txt"
    props.write_text("a: {V(x)>0.5} |-> ##[0:1] {V(x)<0};\n")
    csv = tmp_path / "t.csv"
    csv.write_text("time,x\n0,0\n1,1\n2,3\n")
    code = """
import contextlib, io, json, sys
import amscheck.cli as cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["check", *sys.argv[1:]])
print(json.dumps([code, out.getvalue().count("fail at"), "amscheck.online" in sys.modules]))
"""
    assert fresh_python(code, str(csv), str(props)) == [1, 1, False]


def test_parse_and_session_load_no_numpy():
    """Parsing the stream workload's assertion and streaming it through a
    `Session` load neither numpy, nor the batch and reference modules, nor
    `dataclasses` and the `inspect` it imports; the first access to
    `load_csv` loads the trace module."""
    props = runpy.run_path(str(ROOT / "benchmarks" / "workloads.py"))["STREAM_PROPS"]
    code = """
import json, math, sys
import amscheck
names = json.loads(sys.argv[2])
s = amscheck.Session(amscheck.parse_file(sys.argv[1]), ["x"])
verdicts = pending = 0
for k in range(400):
    t = k * 1e-5
    verdicts += len(s.feed(t, [math.sin(6283.0 * t) + 0.3 * math.sin(45000.0 * t)]))
    if k % 50 == 49:
        pending += len(s.pending_obligations())
verdicts += len(s.finalize())
loaded = [m for m in names if m in sys.modules]
amscheck.load_csv
print(json.dumps([verdicts, pending, loaded, "amscheck.trace" in sys.modules]))
"""
    batch = ["numpy", "amscheck.trace", "amscheck.oracle", "amscheck.wavegen", "amscheck.codegen", "amscheck.clocked",
             "amscheck.cli", "dataclasses", "inspect"]
    verdicts, pending, loaded, trace_loaded = fresh_python(code, props, json.dumps(batch))
    assert verdicts > 0 and pending > 0
    assert loaded == []
    assert trace_loaded


def test_cli_loads_numpy_only_to_read_a_trace(tmp_path):
    """`amscheck stream` and `amscheck codegen` run without numpy, and
    `stream` without `dataclasses` or `inspect`; the `load_csv` that
    `amscheck.cli` binds loads the trace module on its first call."""
    props = tmp_path / "p.txt"
    props.write_text("a: {V(x)>0.5} |-> ##[0:1] {V(x)<2};\n")
    csv = tmp_path / "t.csv"
    csv.write_text("time,x\n0,0\n1,1\n2,3\n")
    code = """
import contextlib, io, json, sys
import amscheck.cli as cli
props, csv = sys.argv[1:]
sys.stdin = io.StringIO("0 0\\n1 1\\n2 3\\n")
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes = [cli.main(["stream", props, "--signals", "x"])]
    streamed = [m for m in ("dataclasses", "inspect") if m in sys.modules]
    codes.append(cli.main(["codegen", props]))
loaded = [m for m in ("numpy", "amscheck.trace") if m in sys.modules]
rows = len(cli.load_csv(csv).times())
print(json.dumps([codes, out.getvalue().count("summary"), streamed, loaded, rows, "amscheck.trace" in sys.modules]))
"""
    assert fresh_python(code, str(props), str(csv)) == [[0, 0], 1, [], [], 3, True]


def test_pickles_hash_as_fresh_values_under_another_hash_seed():
    """A pickle leaves out the cached hash: a parsed `Property`, a `Verdict`
    and an `Interval`, each hashed before pickling, compare and hash equal to
    freshly built ones in an interpreter with another str hash seed."""
    build = """
import json, pickle, sys
import amscheck
(p,) = amscheck.parse_file("p: {V(x)>0.5} |-> ##[0:1] {V(x)<2};")
s = amscheck.Session([p], ["x"])
v = (s.feed(0.0, [1.0]) + s.feed(1.0, [1.0]) + s.finalize())[0]
values = [p, v, amscheck.Interval(0.0, 1.0, False, True)]
"""
    blob = fresh_python(build + "[hash(x) for x in values]\nprint(json.dumps(pickle.dumps(values).hex()))",
                        hash_seed="0")
    load = "old = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
    load += "print(json.dumps([[a == b, hash(a) == hash(b)] for a, b in zip(old, values)]))"
    assert fresh_python(build + load, blob, hash_seed="1") == [[True, True]] * 3


def test_time_tol_default_is_library_tolerance():
    ap = build_parser()
    for argv in (["check", "t.csv", "p.txt"], ["stream", "p.txt", "--signals", "x:analog"]):
        args = ap.parse_args(argv)
        assert args.time_tol == intervals.TIME_TOL
        assert args.value_tol == parser.VALUE_TOL


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


def test_benchmark_setup_probe_builds_the_stream_session(tmp_path):
    """`benchmarks/run.py --probe-setup` builds a `Session` for the stream workload
    in a fresh interpreter and prints its normalised setup time."""
    workloads = runpy.run_path(str(ROOT / "benchmarks" / "workloads.py"))["WORKLOADS"]
    props = tmp_path / "stream-noisy.txt"
    props.write_text(workloads["stream-noisy"].props)
    run = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "run.py"), "--probe-setup", str(props), "x"],
                         capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.splitlines()
    assert float(line) > 0


def test_equivalence_fingerprint_smoke():
    """`tests/_fingerprint.py --tiny` prints one SHA-256 digest per output family,
    the same in fresh interpreters under two str hash seeds as in this one, so
    `check --report` bytes and `stream` output do not depend on the hash seed."""
    import _fingerprint

    here = Path(__file__).resolve().parent
    want = _fingerprint.fingerprint(_fingerprint.TINY)
    assert sorted(want) == ["check", "check_split", "codegen", "match", "oracle", "session", "stream"]
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in want.values())
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(here.parent / "src"), "PYTHONHASHSEED": seed}
        run = subprocess.run([sys.executable, str(here / "_fingerprint.py"), "--tiny"], capture_output=True,
                             text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == want, seed
