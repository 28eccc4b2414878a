#!/usr/bin/env python3
"""Seeded benchmark for amscheck: offline check and streaming, end to end and per layer.

    python3 benchmarks/run.py --workload dense-cli --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the checker is imported from
``src/``, nothing needs installing.  Each run generates its inputs from
``--seed``, measures for ``--seconds``, checks every operation's output
(see gate.py), prints every metric with its unit and, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from spans recorded around the checker's public functions (written to
``.bench_out/``).  The exit code is 0 only when every operation passed.

``--write-reference`` regenerates the committed verdict summaries in
reference.json; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

TIME_TOL = 1e-9  # the check command's default --time-tol
MIN_CHECKS = 3  # check runs per run at least, so the median has three samples
SETUP_PROBES = {"full": 7, "tiny": 2}
PENDING_SAMPLES = 12  # pending_obligations() calls per traced stream
REPLAYS = 3  # a stream cycle feeds every window this many times
CAL_PERIOD_S = 0.05  # a stream recalibrates after this much time
CAL_REPEAT = 5  # calibrations taken around a whole operation
# Host times are reported normalised to a reference host on which calibrate()
# takes CAL_REF_S: time * CAL_REF_S / calibrate() measured around it.  The
# shared host this benchmark was built on runs 1.3-2x slower for stretches of
# a fraction of a second to minutes; the normalised times stay steady across them.
CAL_REF_S = 0.002

END_TO_END = {
    "setup_s": "s",
    "check_s": "s",
    "peak_rss_mb": "MB",
    "stream_samples_per_s": "1/s",
}
PER_LAYER = {
    "trace.load_csv_s": "s",
    "trace.rows": "count",
    "parser.parse_file_s": "s",
    "atoms.build_table_s": "s",
    "atoms.atoms": "count",
    "atoms.truth_components": "count",
    "engine.assertion_match_s": "s",
    "engine.verdict_components": "count",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "online.feed_ms_p50": "ms",
    "online.feed_ms_p99": "ms",
    "online.feed_s": "s",
    "online.finalize_s": "s",
    "online.verdicts": "count",
    "online.pending_obligations": "count",
    "online.feed_growth": "ratio",
    "verdict_lag_s_p50": "s",
    "verdict_lag_s_max": "s",
    "bench.trace_overhead_ratio": "ratio",
}
# per-layer counts of a check run that must repeat exactly for one seed
CHECK_COUNTS = ("trace.rows", "atoms.atoms", "atoms.truth_components", "engine.verdict_components")


def calibrate(repeat: int = 1) -> float:
    """Seconds the host takes right now for a fixed pure-Python kernel of
    integer arithmetic and small-object allocation, like the checker's loops
    (median of ``repeat`` runs)."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        x = 0
        for i in range(20_000):
            x += i * i
        d = {}
        for i in range(4_000):
            d[i] = str(i)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(*cals: float) -> float:
    """Factor that turns host seconds measured between these calibrations into reference seconds."""
    return CAL_REF_S * len(cals) / sum(cals)


def probe_setup(props_path: str, signals: str) -> None:
    """Child process: time importing amscheck and parsing the assertion file
    (and constructing a Session when ``signals`` is given)."""
    before = calibrate(CAL_REPEAT)
    start = time.perf_counter()
    import amscheck

    props = amscheck.parse_file(Path(props_path).read_text())
    if signals:
        amscheck.Session(props, signals.split(","))
    elapsed = time.perf_counter() - start
    print(repr(elapsed * scale(before, calibrate(CAL_REPEAT))))


def measure_setup(props_rel: str, signals: str, probes: int) -> list[float]:
    """Normalised setup seconds, each from a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", props_rel, signals]
    return [float(subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT).stdout) for _ in range(probes)]


def environment(workload, args) -> dict:
    import numpy
    from workloads import WINDOWS

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True
            ).stdout.strip()
    src_hash = hashlib.sha256()
    for f in sorted((SRC / "amscheck").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            src_hash.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
        "workload": workload.name,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "check_rows": workload.check_rows[args.size],
        "stream_windows": WINDOWS,
        "stream_samples": workload.stream_rows[args.size],
    }


# -- operations -------------------------------------------------------------


class Ops:
    """The two operations a workload times, with everything needed to gate them.

    The checked CSV holds the whole trace.  Its first WINDOWS stretches of
    ``stream_rows`` samples are each streamed through a fresh Session; the
    streams cycle through them, so the stream figures of one seed average over
    several noise realisations."""

    def __init__(self, workload, seed: int, size: str, work: Path):
        from workloads import WINDOWS, write_csv

        from amscheck import parse_file

        self.times, self.signals = workload.inputs(seed, size)
        self.csv = work / "trace.csv"
        self.props_file = work / "props.txt"
        self.report = work / "report.json"
        write_csv(self.csv, self.times, self.signals)
        self.props_file.write_text(workload.props)
        self.n = n = workload.stream_rows[size]
        ts = self.times[: WINDOWS * n].tolist()
        cols = {k: v[: WINDOWS * n].tolist() for k, v in self.signals.items()}
        samples = [(t, {k: c[i] for k, c in cols.items()}) for i, t in enumerate(ts)]
        self.windows = [samples[j * n : (j + 1) * n] for j in range(WINDOWS)]
        self.kinds = {k: "analog" for k in self.signals}
        self.props = parse_file(workload.props)
        self.pending_every = max(1, n // PENDING_SAMPLES)

    def window_inputs(self, j: int):
        cut = slice(j * self.n, (j + 1) * self.n)
        return self.times[cut], {k: v[cut] for k, v in self.signals.items()}

    def rel(self, p: Path) -> str:
        return os.path.relpath(p, ROOT)

    def check(self, tracer=None) -> dict:
        """One ``amscheck check <csv> <props> --report <out>`` through cli.main."""
        from amscheck import cli

        from gate import partition_error, report_summary

        argv = ["check", self.rel(self.csv), self.rel(self.props_file), "--report", self.rel(self.report)]
        self.report.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                start = time.perf_counter()
                rc = cli.main(argv)
                elapsed = time.perf_counter() - start
            else:
                with tracer.installed():
                    start = time.perf_counter()
                    with tracer.span("cli.main"):
                        rc = cli.main(argv)
                    elapsed = time.perf_counter() - start
        op = {"host_seconds": elapsed, "rc": rc, "errors": []}
        if rc not in (0, 1):
            op["errors"].append(f"check exited {rc}: {err.getvalue().strip()[-300:]}")
            return op
        op["report_bytes"] = self.report.stat().st_size
        with open(self.report) as fh:
            doc = json.load(fh)
        op["summary"] = report_summary(doc)
        if (msg := partition_error(doc, TIME_TOL)) is not None:
            op["errors"].append(msg)
        return op

    def stream(self, window: int, tracer=None) -> dict:
        """Feed one window sample by sample to a fresh Session (closed loop), then finalize.

        The host is recalibrated every CAL_PERIOD_S between feeds, and each
        feed is normalised by the (smoothed) calibrations on either side of it."""
        from amscheck import Session

        pending: list[int] = []
        clock = time.perf_counter
        cals = [(0, calibrate())]  # (feeds done, calibration seconds)
        with tracer.installed() if tracer else contextlib.nullcontext():
            sess = Session(self.props, self.kinds)
            root = tracer.begin("bench.stream") if tracer else None
            verdicts, lat = [], []
            last_cal = clock()
            for i, (t, vals) in enumerate(self.windows[window], 1):
                a = clock()
                verdicts += sess.feed(t, vals)
                b = clock()
                lat.append(b - a)
                if tracer and i % self.pending_every == 0:
                    pending.append(len(sess.pending_obligations()))
                if b - last_cal >= CAL_PERIOD_S:
                    cals.append((i, calibrate()))
                    last_cal = clock()
            a = clock()
            verdicts += sess.finalize()
            fin = clock() - a
            if tracer:
                tracer.end(root)
        cals.append((len(lat), calibrate()))
        # one short calibration is noisy: use the median of its neighbourhood
        smooth = [statistics.median(c for _, c in cals[max(0, k - 2) : k + 3]) for k in range(len(cals))]
        feeds = []
        for k in range(len(cals) - 1):
            feeds += [x * scale(smooth[k], smooth[k + 1]) for x in lat[cals[k][0] : cals[k + 1][0]]]
        fin *= scale(smooth[-2], smooth[-1])
        return {
            "window": window,
            "seconds": sum(feeds) + fin,
            "feed": feeds,
            "finalize": fin,
            "scale": scale(*(c for _, c in cals)),
            "verdicts": verdicts,
            "pending": pending,
            "errors": [],
        }


def run_ops(ops: Ops, workload, seconds: float, traced: bool):
    """Interleave check runs and streams for ``seconds``, each kind taking its
    share of the time.  There are at least MIN_CHECKS check runs, and streams
    run in whole cycles that replay every window REPLAYS times; a new cycle
    starts only if the last one would still fit before the deadline.

    Interleaving spreads every kind's repetitions over the whole run, and a
    calibration after every operation gives a check run its normalisation
    factor (``scale``).  In a traced run every other operation of a kind is
    traced, so the untraced ones give the tracing overhead from the same
    process."""
    from tracing import Tracer
    from workloads import WINDOWS

    tracer = Tracer() if traced else None
    done = {"check": [], "stream": []}
    busy = {"check": 0.0, "stream": 0.0}
    shares = {"check": workload.check_share, "stream": 1 - workload.check_share}
    cycle = REPLAYS * WINDOWS
    need = {"check": MIN_CHECKS * (2 if traced else 1), "stream": cycle}
    deadline = time.perf_counter() + seconds
    cal = calibrate(CAL_REPEAT)
    while True:
        short = [k for k in done if len(done[k]) < need[k] or (k == "stream" and len(done[k]) % cycle)]
        now = time.perf_counter()
        if not short and now >= deadline:
            break
        cycle_wall = busy["stream"] * cycle / max(len(done["stream"]), 1) / shares["stream"]
        open_kinds = [k for k in done if k == "check" or now + cycle_wall < deadline]
        kind = min(short or open_kinds, key=lambda k: busy[k] / shares[k])
        count = len(done[kind])
        use = tracer if traced and count % 2 == 1 else None
        if use is not None:
            use.op += 1
        start = time.perf_counter()
        try:
            op = ops.check(use) if kind == "check" else ops.stream(count % WINDOWS, use)
        except Exception as exc:  # a crashing operation is a failed operation
            op = {"errors": [f"{kind} raised {type(exc).__name__}: {exc}"]}
        busy[kind] += time.perf_counter() - start
        before, cal = cal, calibrate(CAL_REPEAT)
        if "host_seconds" in op:
            op["scale"] = scale(before, cal)
            op["seconds"] = op["host_seconds"] * op["scale"]
        op["traced"] = use is not None
        op["trace_op"] = use.op if use is not None else None
        if use is not None and kind == "check":
            op.update(check_counts(use))
        done[kind].append(op)
    return done, tracer


def check_counts(tracer) -> dict:
    """Counts from the objects the traced layer calls returned in the last operation."""
    kept, tracer.kept = tracer.kept, []
    out = dict.fromkeys(CHECK_COUNTS, 0)
    for name, value in kept:
        if name == "trace.load_csv":
            out["trace.rows"] += len(value)
        elif name == "atoms.build_table":
            atoms = value.atoms()
            out["atoms.atoms"] += len(atoms)
            out["atoms.truth_components"] += sum(len(value.get(a)) for a in atoms)
        elif name == "engine.assertion_match":
            out["engine.verdict_components"] += sum(
                len(s) for s in (value.nonvacuous, value.vacuous, value.fail, value.undetermined)
            )
    return out


# -- references and the gate ------------------------------------------------


def library_reports(props, times, signals):
    """Offline verdicts through the library on the in-memory samples (no CSV, no JSON)."""
    from amscheck import Trace, assertion_match, build_table

    table = build_table(Trace(times, signals), props, eps=TIME_TOL)
    return [assertion_match(p, table, name=p.name) for p in props]


def reference_key(workload, size: str, seed: int) -> str:
    return f"{workload.name}/{size}/{seed}"


def committed_reference(key: str) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(key)


def stream_signature(op: dict) -> str:
    rows = [
        (v.name, v.kind, v.interval.lo, v.interval.hi, v.interval.lo_closed, v.interval.hi_closed, v.decided_at)
        for v in op["verdicts"]
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def gate(ops: Ops, done: dict, key: str) -> list[str]:
    """Append each operation's failures to its ``errors``; return the references used."""
    from gate import match_summary, stream_error, summary_error

    check_reports = library_reports(ops.props, ops.times, ops.signals)
    stream_reports = [library_reports(ops.props, *ops.window_inputs(j)) for j in range(len(ops.windows))]
    library = {"check": match_summary(check_reports), "stream": [match_summary(r) for r in stream_reports]}
    refs = {"library": library}
    stale: dict[int, str] = {}  # window -> how the committed stream reference disagrees
    committed = committed_reference(key)
    if committed is not None:
        refs["committed"] = committed
        if len(committed["stream"]) != len(stream_reports):
            stale = dict.fromkeys(range(len(stream_reports)), f"{len(committed['stream'])} windows")
        for j, (got, want) in enumerate(zip(library["stream"], committed["stream"])):
            if (msg := summary_error(got, want, TIME_TOL)) is not None:
                stale[j] = msg
    want_rc = 1 if any(not r.fail.is_empty for r in check_reports) else 0

    checks = [op for op in done["check"] if "summary" in op]
    first_traced = next((op for op in checks if op["traced"]), None)
    for op in checks:
        if op["rc"] != want_rc:
            op["errors"].append(f"exit code {op['rc']}, expected {want_rc}")
        for source, ref in refs.items():
            if (msg := summary_error(op["summary"], ref["check"], TIME_TOL)) is not None:
                op["errors"].append(f"{source} reference: {msg}")
        if op["report_bytes"] != checks[0]["report_bytes"]:
            op["errors"].append(f"report size {op['report_bytes']} != {checks[0]['report_bytes']} in the first run")
        for c in CHECK_COUNTS if op["traced"] else ():
            if op[c] != first_traced[c]:
                op["errors"].append(f"{c} = {op[c]} != {first_traced[c]} in the first traced run")

    first: dict[int, dict] = {}
    first_pending: dict[int, list[int]] = {}
    for op in (o for o in done["stream"] if "verdicts" in o):
        w = op["window"]
        if (msg := stream_error(op["verdicts"], stream_reports[w], TIME_TOL)) is not None:
            op["errors"].append(f"window {w}: {msg}")
        if w in stale:
            op["errors"].append(f"window {w}: committed reference: {stale[w]}")
        ref = first.setdefault(w, op)
        if stream_signature(op) != stream_signature(ref):
            op["errors"].append(f"window {w}: verdicts differ from its first stream in this run")
        if op["pending"] and op["pending"] != first_pending.setdefault(w, op["pending"]):
            op["errors"].append(f"window {w}: pending obligations {op['pending']} != {first_pending[w]}")
    return sorted(refs)


# -- metrics ----------------------------------------------------------------


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _percentile(xs, q):
    import numpy

    return float(numpy.percentile(xs, q)) if xs else float("nan")


def _ok(done: dict, kind: str, traced: bool) -> list[dict]:
    return [op for op in done[kind] if op["traced"] == traced and not op["errors"]]


def end_to_end(done: dict, setup: list[float], rss_mb: float) -> dict:
    """Medians of normalised host times; throughput over all untraced streams."""
    checks = [op["seconds"] for op in _ok(done, "check", False)]
    streams = _ok(done, "stream", False)
    return {
        "setup_s": _median(setup),
        "check_s": _median(checks),
        "peak_rss_mb": rss_mb,
        "stream_samples_per_s": sum(len(op["feed"]) for op in streams) / sum(op["seconds"] for op in streams)
        if streams
        else float("nan"),
    }


def feed_latencies(streams: list[dict]) -> list[float]:
    """Per sample position of each window, the fastest of the window's replays:
    the replays do identical work, so this drops delays that other processes
    on the host inflict on single feeds."""
    replays: dict[int, list[list[float]]] = {}
    for op in streams:
        replays.setdefault(op["window"], []).append(op["feed"])
    return [min(col) for runs in replays.values() for col in zip(*runs)]


def per_layer(done: dict, tracer, props, workload) -> dict:
    from amscheck import horizon

    from tracing import durations, self_time

    checks, streams = _ok(done, "check", True), _ok(done, "stream", True)

    def spans(op):
        return tracer.op_spans(op["trace_op"])

    def span_median(ops, name):
        return _median([op["scale"] * sum(durations(spans(op), name)) for op in ops])

    feeds = feed_latencies(_ok(done, "stream", False))
    out = {
        "online.feed_ms_p50": 1e3 * _percentile(feeds, 50),
        "online.feed_ms_p99": 1e3 * _percentile(feeds, 99),
        "trace.load_csv_s": span_median(checks, "trace.load_csv"),
        "parser.parse_file_s": span_median(checks, "parser.parse_file"),
        "atoms.build_table_s": span_median(checks, "atoms.build_table"),
        "engine.assertion_match_s": span_median(checks, "engine.assertion_match"),
        "cli.self_s": _median([op["scale"] * self_time(spans(op), "cli.main") for op in checks]),
        "cli.report_bytes": checks[0]["report_bytes"] if checks else float("nan"),
        "online.feed_s": span_median(streams, "online.feed"),
        "online.finalize_s": span_median(streams, "online.finalize"),
    }
    for c in CHECK_COUNTS:
        out[c] = checks[0][c] if checks else float("nan")

    def growth(op):
        feeds = durations(spans(op), "online.feed")
        q = max(1, len(feeds) // 4)
        return statistics.median(feeds[-q:]) / statistics.median(feeds[:q])

    hor = {p.name: horizon(p) for p in props}
    per_window = list({op["window"]: op for op in reversed(streams)}.values())  # first traced stream of each window
    lags = [v.decided_at - (v.interval.hi + hor[v.name]) for op in per_window for v in op["verdicts"]]
    out.update(
        {
            "online.verdicts": sum(len(op["verdicts"]) for op in per_window),
            "online.pending_obligations": max((max(op["pending"]) for op in per_window if op["pending"]), default=0),
            "online.feed_growth": _median([growth(op) for op in streams]),
            "verdict_lag_s_p50": _median(lags),
            "verdict_lag_s_max": max(lags, default=float("nan")),
        }
    )
    if workload.primary == "check":
        base = _median([op["seconds"] for op in _ok(done, "check", False)])
        with_spans = _median([op["seconds"] for op in checks])
    else:  # mean feed latency: the two halves need not hold equally many streams
        base = statistics.fmean(x for op in _ok(done, "stream", False) for x in op["feed"])
        with_spans = statistics.fmean(x for op in streams for x in op["feed"])
    out["bench.trace_overhead_ratio"] = with_spans / base
    return out


def layer_split(tracer, done) -> dict:
    """Share of the traced check time spent in each layer (for the printout)."""
    from tracing import CLI_LAYERS, durations, self_time

    shares: dict[str, list[float]] = {}
    for op in _ok(done, "check", True):
        spans = tracer.op_spans(op["trace_op"])
        total = sum(durations(spans, "cli.main"))
        for name in CLI_LAYERS.values():
            shares.setdefault(name, []).append(sum(durations(spans, name)) / total)
        shares.setdefault("cli.self", []).append(self_time(spans, "cli.main") / total)
    return {k: _median(v) for k, v in shares.items()}


# -- entry points -----------------------------------------------------------


def run_workload(args) -> int:
    from workloads import WORKLOADS

    import amscheck

    if Path(amscheck.__file__).resolve().parent != (SRC / "amscheck").resolve():
        print(f"error: imported amscheck from {amscheck.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(workload, args)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))  # fixed-length name, so report sizes repeat
    try:
        ops = Ops(workload, args.seed, args.size, work)
        setup = []
        if not args.trace:
            signals = ",".join(ops.kinds) if workload.primary == "stream" else ""
            setup = measure_setup(ops.rel(ops.props_file), signals, SETUP_PROBES[args.size])
        done, tracer = run_ops(ops, workload, args.seconds, bool(args.trace))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        env["reference"] = gate(ops, done, reference_key(workload, args.size, args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    all_ops = done["check"] + done["stream"]
    attempted = len(all_ops)
    failed = sum(1 for op in all_ops if op["errors"])
    print("# env " + json.dumps(env, sort_keys=True))
    for kind in ("check", "stream"):
        for i, op in enumerate(done[kind]):
            for msg in op["errors"]:
                print(f"# FAIL {kind} #{i}: {msg}", file=sys.stderr)

    if args.trace:
        metrics, units = per_layer(done, tracer, ops.props, workload), PER_LAYER
        split = layer_split(tracer, done)
        print("# traced check time by layer: " + ", ".join(f"{k} {v:.3f}" for k, v in split.items()))
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{workload.name}-{args.size}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"env": env, "spans": tracer.spans}))
        print(f"# spans: {len(tracer.spans)} written to {os.path.relpath(spans_file, ROOT)}")
    else:
        metrics, units = end_to_end(done, setup, rss_mb), END_TO_END
    for kind in ("check", "stream"):
        for traced in (False, True):
            ok = _ok(done, kind, traced)
            if ok:
                print(
                    f"# {'traced' if traced else 'untraced'} {kind}: n={len(ok)},"
                    f" median {_median([op['seconds'] for op in ok]):.6g} reference s,"
                    f" {_median([op['seconds'] / op['scale'] for op in ok]):.6g} host s,"
                    f" host slowness {_median([1 / op['scale'] for op in ok]):.3f}x"
                )
    print(f"# setup probes: {len(setup)}; stream windows: {len(ops.windows)} x {ops.n} samples")
    for name, unit in units.items():
        print(f"{name:<28} {metrics[name]:>16.6g} {unit}")
    print(f"{'op_fail_ratio':<28} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def write_reference(args) -> int:
    """Recompute the committed summaries for the given seeds through the library path."""
    from gate import match_summary
    from workloads import WINDOWS, WORKLOADS

    from amscheck import parse_file

    lo, _, hi = args.seeds.partition("-")
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for workload in WORKLOADS.values():
        props = parse_file(workload.props)
        n = workload.stream_rows[args.size]
        for seed in range(int(lo), int(hi or lo) + 1):
            times, signals = workload.inputs(seed, args.size)
            windows = [
                library_reports(props, times[j * n : (j + 1) * n], {k: v[j * n : (j + 1) * n] for k, v in signals.items()})
                for j in range(WINDOWS)
            ]
            data[reference_key(workload, args.size, seed)] = {
                "check": match_summary(library_reports(props, times, signals)),
                "stream": [match_summary(r) for r in windows],
            }
            print(f"{workload.name} seed {seed}", file=sys.stderr)
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(data.items())]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "amscheck" / "__init__.py").is_file():
        print(f"error: no checker source at {SRC}/amscheck; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if argv[:1] == ["--probe-setup"]:
        probe_setup(*argv[1:3])
        return 0
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: seconds-long self-test inputs")
    ap.add_argument("--write-reference", action="store_true", help="recompute reference.json entries")
    ap.add_argument("--seeds", default="0-31", help="seed range for --write-reference")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    os.chdir(ROOT)
    if args.write_reference:
        return write_reference(args)
    if args.workload is None:
        ap.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
