"""Command-line front end.

Subcommands: check (batch trace vs assertions, JSON report), stream
(samples on stdin, verdict JSON lines out), oracle (dense-grid
reference classification), codegen (Verilog-AMS monitor text), and
genwave (synthetic trace CSV from a waveform spec).

Exit codes: 0 clean, 1 at least one fail interval/verdict, 2 usage,
IO (including input that is not UTF-8), parse, or protocol errors.

The trace, oracle, wavegen and codegen modules are imported by the
commands that use them, so stream and codegen never load numpy.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys

from .ast import horizon
from .atoms import build_table
from .engine import assertion_match
from .errors import AmscheckError, ProtocolError, open_utf8
from .intervals import KEY_TEXT, TIME_TOL, Interval, IntervalSet, Key, extend_in_order
from .online import Session
from .parser import VALUE_TOL, parse_file

REPORT_VERSION = 1


def load_csv(path):
    """`trace.load_csv`, imported on first use: only the commands that read a trace load numpy."""
    from .trace import load_csv

    return load_csv(path)


def _key_row(k: Key) -> list:
    return [k[0], k[2], not k[1], k[3]]


# The check report as json.dumps(doc, indent=2, sort_keys=True) writes it.  That
# call runs the pure-Python encoder, so the verdict rows are written here from
# the component keys instead.  Every endpoint lies in the trace domain, which
# is finite, so json would write it with float.__repr__ too.  A set's rows are
# lo, _SEP, hi and a tail, which holds both flags and the opening of the next
# row: _TAIL[lo_open][hi_closed]; the last row's tail loses that opening.
_SEP = ",\n          "
_NEXT = ",\n        [\n          "
_TAIL = [[_SEP + lo + _SEP + hi + "\n        ]" + _NEXT for hi in ("false", "true")] for lo in ("true", "false")]
_ASSERTION = (
    '    {\n      "fail": %s,\n      "horizon": %s,\n      "name": %s,\n      "nonvacuous": %s,\n'
    '      "undetermined": %s,\n      "vacuous": %s\n    }'
)


def _assertion_text(r) -> str:
    """One assertion's report entry; each distinct endpoint value is formatted once."""
    sets = (r.fail, r.nonvacuous, r.undetermined, r.vacuous)
    num = float.__repr__
    # the kinds tile the domain, so most endpoints are shared.  -0.0 and 0.0
    # are one dict key, so zeros are left out and formatted where they occur
    text = dict.fromkeys([k[0] for s in sets for k in s.keys] + [k[2] for s in sets for k in s.keys])
    text.pop(0.0, None)
    get = {x: num(x) for x in text}.get

    def rows(s: IntervalSet) -> str:
        if not s:
            return "[]"
        cells = []
        for lo, lo_open, hi, hi_closed in s.keys:
            cells += (get(lo) or num(lo), _SEP, get(hi) or num(hi), _TAIL[lo_open][hi_closed])
        return "[\n        [\n          " + "".join(cells)[: -len(_NEXT)] + "\n      ]"

    return _ASSERTION % (rows(r.fail), json.dumps(r.horizon), json.dumps(r.name), rows(r.nonvacuous),
                         rows(r.undetermined), rows(r.vacuous))


def write_report(f, trace_path: str, domain: Interval, time_tol: float, reports) -> None:
    """Write the ``check --report`` JSON document for these `MatchReport`s, one assertion at a time."""
    rest = json.dumps(
        {"domain": [domain.lo, domain.hi], "time_tol": time_tol, "trace": trace_path, "version": REPORT_VERSION},
        indent=2,
        sort_keys=True,
    )
    f.write('{\n  "assertions": [')
    for i, r in enumerate(reports):
        f.write((",\n" if i else "\n") + _assertion_text(r))
    f.write(("\n  ]," if reports else "],") + rest[1:] + "\n")


def _load_assertions(path: str, value_tol: float):
    with open_utf8(path) as f:
        props = parse_file(f.read(), value_tol=value_tol)
    if not props:
        raise AmscheckError(f"{path}: no assertions found")
    return props


def _pick(props, name_filter):
    if name_filter is None:
        return props
    chosen = [p for p in props if p.name == name_filter]
    if not chosen:
        raise AmscheckError(f"no assertion named {name_filter!r}")
    return chosen


def cmd_check(args) -> int:
    # a check builds some 10^5 acyclic tuples that the cyclic collector would sweep to free nothing: pause it
    collecting = gc.isenabled()
    gc.disable()
    try:
        # load_csv, parse_file, build_table and assertion_match are looked up in
        # this module when the command runs, so a caller can wrap them
        trace = load_csv(args.trace)
        props = _pick(_load_assertions(args.assertions, args.value_tol), args.assert_name)
        table = build_table(trace, props, eps=args.time_tol)
        reports = [assertion_match(p, table) for p in props]
        if args.report:
            with open(args.report, "w") as f:
                write_report(f, args.trace, trace.domain, args.time_tol, reports)
        width = max(len(r.name) for r in reports)
        fail_at = "\n" + " " * width + "  fail at " + KEY_TEXT
        lines = []
        for r in reports:
            keys = r.fail.keys
            lines.append(
                f"{r.name:<{width}}  {'FAIL' if keys else 'PASS'}  match={len(r.nonvacuous)}"
                f" vacuous={len(r.vacuous)} fail={len(keys)} undetermined={len(r.undetermined)}"
                + (fail_at * len(keys)) % tuple([c for lo, a, hi, b in keys for c in ("[("[a], lo, hi, ")]"[b])])
            )
        print("\n".join(lines))
        return 1 if any(not r.fail.is_empty for r in reports) else 0
    finally:
        if collecting:
            gc.enable()


def cmd_stream(args) -> int:
    kinds = {}
    for part in args.signals.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            name, kind = part.split(":", 1)
        else:
            name, kind = part, "analog"
        name = name.strip()
        if name in kinds:
            raise ProtocolError(f"duplicate signal names: {name!r} declared twice")
        kinds[name] = kind.strip()
    props = _pick(_load_assertions(args.assertions, args.value_tol), args.assert_name)
    sess = Session(props, kinds, eps=args.time_tol)
    out = sys.stdout
    names = list(kinds)
    # verdict components per assertion and kind, merged as they arrive, in time order per assertion
    totals: dict[str, dict[str, list[Key]]] = {}

    def emit(v):
        k = v.interval.key
        extend_in_order(totals.setdefault(v.name, {}).setdefault(v.kind, []), [k], args.time_tol)
        row = {"assertion": v.name, "kind": v.kind, "interval": _key_row(k), "decided_at": v.decided_at}
        out.write(json.dumps(row, sort_keys=True) + "\n")
        out.flush()

    for lineno, line in enumerate(sys.stdin, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if len(toks) != len(names) + 1:
            print(f"stdin:{lineno}: expected time + {len(names)} values", file=sys.stderr)
            return 2
        try:
            t = float(toks[0])
            vals = dict(zip(names, (float(x) for x in toks[1:])))
        except ValueError:
            print(f"stdin:{lineno}: bad number", file=sys.stderr)
            return 2
        try:
            verdicts = sess.feed(t, vals)
        except ProtocolError as e:
            print(f"stdin:{lineno}: {e}", file=sys.stderr)
            return 2
        for v in verdicts:
            emit(v)
    for v in sess.finalize():
        emit(v)
    summary = {name: {kind: [_key_row(k) for k in keys] for kind, keys in per.items()} for name, per in totals.items()}
    out.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    return 1 if any(per.get("fail") for per in totals.values()) else 0


def cmd_oracle(args) -> int:
    from .oracle import oracle_classify

    trace = load_csv(args.trace)
    props = _pick(_load_assertions(args.assertions, args.value_tol), args.assert_name)
    doc = {"version": REPORT_VERSION, "dt": args.dt, "assertions": []}
    for p in props:
        grid, kinds = oracle_classify(trace, p, args.dt)
        doc["assertions"].append(
            {
                "name": p.name,
                "horizon": horizon(p),
                "points": [[float(t), k] for t, k in zip(grid, kinds)],
            }
        )
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_codegen(args) -> int:
    from .codegen import CodegenConfig, generate_monitors

    props = _pick(_load_assertions(args.assertions, args.value_tol), args.assert_name)
    opts = dict(time_acc=args.time_acc, value_acc=args.value_acc, module_name=args.module_name, wrap_module=args.module)
    text = "\n".join(generate_monitors(p, CodegenConfig(assertion_id=args.id + i, **opts)) for i, p in enumerate(props))
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_genwave(args) -> int:
    from .trace import save_csv
    from .wavegen import fixture_spec, generate, load_spec

    if args.fixture:
        spec = fixture_spec(args.fixture)
    elif args.spec:
        spec = load_spec(args.spec)
    else:
        raise AmscheckError("genwave needs a spec file or --fixture")
    trace = generate(spec)
    save_csv(trace, args.out)
    print(f"wrote {args.out}: {len(trace.times())} samples, signals {', '.join(trace.signals)}")
    return 0


def _number(low: str):
    """An argparse type for a finite float ``>= 0`` or ``> 0``, as ``low`` says; others exit 2."""

    def number(text: str) -> float:
        try:
            v = float(text)
        except ValueError:
            v = math.nan
        if math.isfinite(v) and (v > 0 or (v == 0 and low == ">=")):
            return v
        raise argparse.ArgumentTypeError(f"expected a finite number {low} 0, got {text!r}")

    return number


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="amscheck", description="Dense-time checker for analog/mixed-signal assertions.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--value-tol", type=_number(">="), default=VALUE_TOL, help="tolerance used to desugar == on analog values")
        p.add_argument("--assert-name", default=None, help="check only the named assertion")

    def dense(p):  # the two commands that build interval sets
        p.add_argument("--time-tol", type=_number(">="), default=TIME_TOL, help="time tolerance in seconds: thinner pieces drop, closed points stay")
        common(p)

    p = sub.add_parser("check", help="check a trace CSV against an assertion file")
    p.add_argument("trace")
    p.add_argument("assertions")
    p.add_argument("--report", default=None, help="write a JSON report here")
    dense(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("stream", help="check samples streamed on stdin")
    p.add_argument("assertions")
    p.add_argument("--signals", required=True, help="comma list of name:kind declaring the sample columns")
    dense(p)
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("oracle", help="dense-grid reference classification")
    p.add_argument("trace")
    p.add_argument("assertions")
    p.add_argument("--dt", type=_number(">"), required=True, help="grid step in seconds")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("codegen", help="emit Verilog-AMS monitor text")
    p.add_argument("assertions")
    p.add_argument("--id", type=int, default=0, help="assertion id for callback arguments")
    p.add_argument("--time-acc", type=_number(">"), default=1e-9)
    p.add_argument("--value-acc", type=_number(">"), default=1e-6)
    p.add_argument("--out", default=None, help="output .vams path (default stdout)")
    p.add_argument("--module", action="store_true", help="wrap blocks in a module")
    p.add_argument("--module-name", default="amscheck_monitors")
    common(p)
    p.set_defaults(func=cmd_codegen)

    p = sub.add_parser("genwave", help="generate a trace CSV from a waveform spec")
    p.add_argument("spec", nargs="?", default=None, help="waveform spec JSON path")
    p.add_argument("--fixture", default=None, help="bundled spec name: settling, delay-escape")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_genwave)
    return ap


# built on the first call and shared by every later one: parse_args keeps nothing of a call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (AmscheckError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
