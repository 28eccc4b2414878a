"""Command-line harness tests, driven in-process through main()."""

import contextlib
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from amscheck import cli
from amscheck.cli import build_parser, main, write_report
from amscheck.intervals import TIME_TOL
from amscheck.engine import MatchReport
from amscheck.wavegen import fixture_trace
from amscheck import Interval, IntervalSet, Trace, save_csv

SETTLING = (
    "settling: @+{V(Vout)>0.12} |-> ##[0.001:0.004] "
    "{V(Vout)>=1.14 && V(Vout)<=1.26}[*0.002];\n"
)

ESCAPE = (
    "escape: @+{V(Vin)>3} |-> ##[0.000002:0.00000425] {V(Vout)>1.8};\n"
)


@pytest.fixture
def settle_files(tmp_path):
    trace = tmp_path / "settle.csv"
    save_csv(fixture_trace("settling"), trace)
    props = tmp_path / "props.txt"
    props.write_text(SETTLING)
    return trace, props


@pytest.fixture
def escape_files(tmp_path):
    trace = tmp_path / "escape.csv"
    save_csv(fixture_trace("delay-escape"), trace)
    props = tmp_path / "props.txt"
    props.write_text(ESCAPE)
    return trace, props


class TestCheck:
    def test_passing_run_exit_zero(self, settle_files, capsys):
        trace, props = settle_files
        code = main(["check", str(trace), str(props)])
        out = capsys.readouterr().out
        assert code == 0
        assert "settling" in out and "PASS" in out

    def test_report_content(self, settle_files, tmp_path):
        trace, props = settle_files
        report = tmp_path / "report.json"
        assert main(["check", str(trace), str(props), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["version"] == 1
        (entry,) = doc["assertions"]
        assert entry["name"] == "settling"
        assert entry["nonvacuous"] == [[0.0007, 0.0007, True, True]]
        assert entry["fail"] == []
        assert entry["horizon"] == pytest.approx(0.006)

    def test_reports_are_byte_identical(self, settle_files, tmp_path):
        trace, props = settle_files
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["check", str(trace), str(props), "--report", str(r1)])
        main(["check", str(trace), str(props), "--report", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()

    def test_report_writer_equals_json_dumps(self):
        """`write_report` writes the verdict rows itself; it must write what
        json.dumps(doc, indent=2, sort_keys=True) writes for the same report."""
        rng = random.Random(31)

        def rand_set():
            ends = sorted(rng.uniform(0, 1) * 10.0 ** rng.randint(-300, 300) for _ in range(2 * rng.randint(0, 4)))
            return IntervalSet(Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5) for lo, hi in zip(ends[::2], ends[1::2]))

        def tiled(name):
            """A report whose four kinds tile a domain, so neighbours share endpoints."""
            cuts = sorted({rng.choice([0.1, 1.0, 3e-9]) * rng.randint(0, 40) for _ in range(rng.randint(2, 25))})
            ends = [rng.choice(["left", "right", "point"]) for _ in cuts]
            pieces = [Interval(lo, hi, ends[j] == "right" or j == 0, ends[j + 1] == "left" or j + 2 == len(cuts))
                      for j, (lo, hi) in enumerate(zip(cuts, cuts[1:]))]
            pieces += [Interval(c, c) for c, end in zip(cuts[1:-1], ends[1:-1]) if end == "point"]
            kinds = [[], [], [], []]
            for iv in pieces:
                rng.choice(kinds).append(iv)
            return MatchReport(name, Interval(cuts[0], cuts[-1]), *map(IntervalSet, kinds), rng.random())

        def zeros(name, first, second):
            """Both zeros in one assertion: they compare and hash equal but print differently."""
            return MatchReport(name, domain, IntervalSet([Interval(-1.0, first, True, False)]), IntervalSet(),
                               IntervalSet([Interval(second, 1.0), Interval(2.0, 3.0)]), IntervalSet([Interval(1.5, 1.5)]),
                               1.0)

        odd = IntervalSet([Interval(-0.0, 5e-324), Interval(1e-300, 0.5, False, True), Interval(0.75, 0.75),
                           Interval(2.0, 1e300, True, False)])
        domain = Interval(-0.0, 1e300)
        reports = [
            MatchReport('a "quoted" \\ näme ✓', domain, odd, IntervalSet(), IntervalSet([Interval(1e300, 1e300)]),
                        IntervalSet(), 0.25),
            MatchReport("empty", domain, IntervalSet(), IntervalSet(), IntervalSet(), IntervalSet(), 0.0),
            zeros("zeros", -0.0, 0.0),
            zeros("zeros swapped", 0.0, -0.0),
        ] + [MatchReport(f"r{i}", domain, rand_set(), rand_set(), rand_set(), rand_set(), rng.random()) for i in range(30)]
        reports += [tiled(f"t{i}") for i in range(30)]
        assert sum(iv.hi == jv.lo for r in reports for iv in r.fail for jv in r.nonvacuous) > 20
        kinds = ("nonvacuous", "vacuous", "fail", "undetermined")
        for path, reps in (('dir\\"tr\u00e2ce"\n.csv', reports), ("t.csv", reports[1:2]), ("t.csv", [])):
            doc = {
                "version": 1,
                "trace": path,
                "domain": [domain.lo, domain.hi],
                "time_tol": 1e-9,
                "assertions": [
                    {"name": r.name, "horizon": r.horizon,
                     **{k: [[iv.lo, iv.hi, iv.lo_closed, iv.hi_closed] for iv in getattr(r, k)] for k in kinds}}
                    for r in reps
                ],
            }
            out = io.StringIO()
            write_report(out, path, domain, 1e-9, reps)
            assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_fail_lines_print_each_component(self, escape_files, monkeypatch, capsys):
        """`check` writes one ``fail at`` line per fail component, as `Interval.__str__` prints it."""
        fail = IntervalSet([Interval(-1.5, -0.0, True, False), Interval(0.1234567, 1.23456789e-7 + 0.2, False, True),
                            Interval(0.5, 0.5), Interval(2.000001, 3.9999996, False, False), Interval(1e21, 1e22)])
        quiet = MatchReport("quiet", Interval(-2.0, 1e22), IntervalSet(), IntervalSet(), IntervalSet(), IntervalSet(), 0.0)
        loud = MatchReport("loud one", Interval(-2.0, 1e22), IntervalSet(), IntervalSet(), fail, IntervalSet(), 0.0)
        reports = iter([quiet, loud])
        monkeypatch.setattr("amscheck.cli.assertion_match", lambda p, table: next(reports))
        trace, props = escape_files
        props.write_text(ESCAPE + ESCAPE.replace("escape", "second"))
        assert main(["check", str(trace), str(props)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "quiet     PASS  match=0 vacuous=0 fail=0 undetermined=0"
        assert lines[1] == "loud one  FAIL  match=0 vacuous=0 fail=5 undetermined=0"
        assert lines[2:] == [f"          fail at {iv}" for iv in fail]
        assert lines[2:] == [
            "          fail at [-1.5:-0)",
            "          fail at (0.123457:0.2]",
            "          fail at [0.5:0.5]",
            "          fail at (2:4)",
            "          fail at [1e+21:1e+22]",
        ]

    def test_failing_run_exit_one(self, escape_files, capsys):
        trace, props = escape_files
        code = main(["check", str(trace), str(props)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_missing_trace_exit_two(self, settle_files, capsys):
        _, props = settle_files
        code = main(["check", "/nonexistent.csv", str(props)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_assertion_file_exit_two(self, settle_files, tmp_path, capsys):
        trace, _ = settle_files
        bad = tmp_path / "bad.txt"
        bad.write_text("{V(Vout)>1} |-> ;\n")
        assert main(["check", str(trace), str(bad)]) == 2

    def test_digit_like_character_exit_two(self, settle_files, tmp_path, capsys):
        trace, _ = settle_files
        bad = tmp_path / "bad.txt"
        bad.write_text("settling: {V(Vout) > ²} |-> {V(Vout)<1};\n")
        assert main(["check", str(trace), str(bad)]) == 2
        assert "line 1, col 22: unexpected character '²'" in capsys.readouterr().err

    def test_unfinished_assertion_exit_two(self, settle_files, tmp_path, capsys):
        trace, _ = settle_files
        bad = tmp_path / "bad.txt"
        bad.write_text("a: {V(Vout)>0.5} |-> # consequent left out\n")
        assert main(["check", str(trace), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1, col ") and "expected a number, signal" in err

    def test_empty_assertion_file_exit_two(self, settle_files, tmp_path, capsys):
        trace, _ = settle_files
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["check", str(trace), str(empty)]) == 2

    @pytest.mark.parametrize("was_on", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "trace_text, props_text, code",
        [
            ("time,x\n0,0\n1,1\n2,0\n", "p: {V(x)>0.5} |-> {V(x)>0};\n", 0),
            ("time,x\n0,0\n1,1\n2,0\n", "p: {V(x)>0.5} |-> {V(x)>2};\n", 1),
            ("time,x\n0,0\n1,abc\n", "p: {V(x)>0.5} |-> {V(x)>0};\n", 2),
            ("time,x\n0,0\n1,1\n2,0\n", "{V(x)>1} |-> ;\n", 2),
            (None, "p: {V(x)>0.5} |-> {V(x)>0};\n", 2),
        ],
        ids=["pass", "fail", "malformed-trace", "malformed-assertions", "missing-trace"],
    )
    def test_collector_left_as_the_caller_had_it(self, tmp_path, monkeypatch, capsys, trace_text, props_text, code,
                                                 was_on):
        """`check` pauses the cyclic collector, and on every exit turns it on again only if it was on before."""
        trace, props = tmp_path / "t.csv", tmp_path / "p.txt"
        if trace_text is not None:
            trace.write_text(trace_text)
        props.write_text(props_text)
        seen = []
        real = cli.load_csv
        monkeypatch.setattr(cli, "load_csv", lambda path: seen.append(gc.isenabled()) or real(path))
        before = gc.isenabled()
        (gc.enable if was_on else gc.disable)()
        try:
            assert main(["check", str(trace), str(props)]) == code
            assert gc.isenabled() is was_on
        finally:
            (gc.enable if before else gc.disable)()
        assert seen == [False]

    def test_assert_name_filter(self, settle_files, capsys):
        trace, props = settle_files
        assert main(["check", str(trace), str(props), "--assert-name", "settling"]) == 0
        assert main(["check", str(trace), str(props), "--assert-name", "absent"]) == 2


class TestRepeatedCalls:
    """One process may call main() many times: the parser it builds once keeps nothing of a call."""

    @pytest.fixture
    def two_files(self, tmp_path):
        trace, props = tmp_path / "t.csv", tmp_path / "p.txt"
        trace.write_text("time,x\n0,0\n1,1\n2,0\n")
        props.write_text("p: {V(x)>0.5} |-> {V(x)>0};\nq: {V(x)>0.5} |-> {V(x)<2};\n")
        return str(trace), str(props)

    def test_options_do_not_carry_over(self, two_files, monkeypatch, capsys):
        seen = []
        real = cli.build_table
        monkeypatch.setattr(cli, "build_table", lambda trace, props, eps: seen.append(eps) or real(trace, props, eps))
        for _ in range(3):
            assert main(["check", *two_files, "--time-tol", "1e-6", "--assert-name", "p"]) == 0
            picked = capsys.readouterr().out
            assert main(["check", *two_files]) == 0
            both = capsys.readouterr().out
            assert [line.split()[0] for line in picked.splitlines()] == ["p"]
            assert [line.split()[0] for line in both.splitlines()] == ["p", "q"]
        assert seen == [1e-6, TIME_TOL] * 3

    def test_usage_error_then_valid_call(self, two_files, capsys):
        for argv in (["check", two_files[0]], ["check", *two_files, "--time-tol", "-1"], ["nope"]):
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == 2
            assert main(["check", *two_files]) == 0
            assert "q  PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["-h"], ["check", "-h"], ["stream", "--help"]])
    def test_help_text_unchanged(self, argv):
        def help_text(parse):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as e:
                parse(argv)
            assert e.value.code == 0
            return out.getvalue()

        first = help_text(main)
        assert first == help_text(main) == help_text(build_parser().parse_args)
        assert "usage: amscheck" in first


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheet exports and some editors write, is dropped."""

    BOM = b"\xef\xbb\xbf"

    def test_trace(self, tmp_path, capsys):
        trace, props = tmp_path / "t.csv", tmp_path / "p.txt"
        trace.write_bytes(self.BOM + b"time,x\n0,1\n1,2\n")
        props.write_text("p: {V(x)>0} |-> {V(x)>0};\n")
        assert main(["check", str(trace), str(props)]) == 0
        assert capsys.readouterr().out == "p  PASS  match=1 vacuous=0 fail=0 undetermined=0\n"

    def test_assertions(self, settle_files, capsys):
        trace, props = settle_files
        assert main(["check", str(trace), str(props)]) == 0
        plain = capsys.readouterr().out
        props.write_bytes(self.BOM + props.read_bytes())
        assert main(["check", str(trace), str(props)]) == 0
        assert capsys.readouterr().out == plain

    def test_genwave_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        text = json.dumps({"signals": {"v": {"segments": [{"type": "pwl", "points": [[0, 0], [1, 1]]}]}}})
        spec.write_bytes(self.BOM + text.encode())
        assert main(["genwave", str(spec), "--out", str(tmp_path / "w.csv")]) == 0
        assert "signals v" in capsys.readouterr().out


@pytest.mark.parametrize("argv, read", [
    (["check", "t.csv", "p.txt"], True),
    (["stream", "p.txt", "--signals", "x"], True),
    (["oracle", "t.csv", "p.txt", "--dt", "0.1"], False),
    (["codegen", "p.txt"], False),
])
def test_time_tol_only_where_it_is_read(argv, read, capsys):
    """`check` and `stream` take --time-tol; `oracle` and `codegen` never read it and reject it."""
    if read:
        assert build_parser().parse_args([*argv, "--time-tol", "1e-6"]).time_tol == 1e-6
    else:
        with pytest.raises(SystemExit) as e:
            build_parser().parse_args([*argv, "--time-tol", "1e-6"])
        assert e.value.code == 2 and "--time-tol" in capsys.readouterr().err


class TestNumericOptions:
    """Tolerances must be finite and non-negative, steps and accuracies finite and
    positive: other values changed verdicts silently, or crashed."""

    @pytest.mark.parametrize(
        "command,option,value",
        [
            ("check", "--time-tol", "nan"),
            ("check", "--time-tol", "inf"),
            ("check", "--time-tol", "abc"),
            ("stream", "--time-tol", "-1e-9"),
            ("check", "--value-tol", "nan"),
            ("check", "--value-tol", "-1"),
            ("oracle", "--dt", "0"),
            ("oracle", "--dt", "nan"),
            ("oracle", "--dt", "-0.1"),
            ("codegen", "--time-acc", "nan"),
            ("codegen", "--time-acc", "inf"),
            ("codegen", "--value-acc", "0"),
            ("codegen", "--value-acc", "-1e-6"),
        ],
    )
    def test_rejected_exit_two(self, settle_files, capsys, command, option, value):
        trace, props = settle_files
        head = {
            "check": ["check", str(trace), str(props)],
            "stream": ["stream", str(props), "--signals", "Vout"],
            "oracle": ["oracle", str(trace), str(props), "--dt", "1e-5"],
            "codegen": ["codegen", str(props)],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(head + [f"{option}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected a finite number" in err and repr(value) in err

    def test_zero_tolerances_accepted(self, settle_files, capsys):
        trace, props = settle_files
        assert main(["check", str(trace), str(props), "--time-tol", "0", "--value-tol", "0"]) == 0
        assert main(["codegen", str(props), "--time-acc", "1e-12", "--value-acc", "2e-3"]) == 0


class TestNonFinite:
    def test_check_nan_trace_exit_two(self, settle_files, tmp_path, capsys):
        _, props = settle_files
        bad = tmp_path / "nan.csv"
        bad.write_text("time,Vout\n0,0\n0.001,nan\n0.002,1.2\n")
        assert main(["check", str(bad), str(props)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_stream_nan_sample_exit_two(self, settle_files, monkeypatch, capsys):
        _, props = settle_files
        monkeypatch.setattr("sys.stdin", io.StringIO("0.0 0.0\n0.001 nan\n0.002 1.2\n"))
        assert main(["stream", str(props), "--signals", "Vout:analog"]) == 2
        assert "stdin:2" in capsys.readouterr().err


class TestStream:
    def run_stream(self, monkeypatch, capsys, props, signals, trace):
        lines = []
        names = [s.split(":")[0] for s in signals.split(",")]
        for i in range(len(trace)):
            t, vals = trace.sample(i)
            lines.append(" ".join([repr(t)] + [repr(vals[n]) for n in names]))
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(["stream", str(props), "--signals", signals])
        return code, capsys.readouterr().out

    def test_stream_matches_offline(self, settle_files, monkeypatch, capsys, tmp_path):
        trace_path, props = settle_files
        tr = fixture_trace("settling")
        code, out = self.run_stream(monkeypatch, capsys, props, "Vout:analog", tr)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines() if line.strip()]
        verdicts = [r for r in rows if "kind" in r]
        kinds = {v["kind"] for v in verdicts}
        assert "match" in kinds and "vacuous-end" in kinds
        match = next(v for v in verdicts if v["kind"] == "match")
        assert match["interval"][0] == pytest.approx(0.0007)
        assert match["decided_at"] == pytest.approx(0.0068)
        summary = rows[-1]
        assert "summary" in summary

    def test_stream_fail_exit_one(self, escape_files, monkeypatch, capsys):
        _, props = escape_files
        tr = fixture_trace("delay-escape")
        code, out = self.run_stream(
            monkeypatch, capsys, props, "Vin:analog,Vout:analog", tr
        )
        assert code == 1
        rows = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert any(r.get("kind") == "fail" for r in rows)

    def test_blank_and_comment_lines_skipped(self, settle_files, monkeypatch, capsys):
        _, props = settle_files
        tr = fixture_trace("settling")
        lines = [f"{t!r} {vals['Vout']!r}" for t, vals in map(tr.sample, range(len(tr)))]
        runs = []
        for text in ("\n".join(lines), "# header\n\n" + "\n  \n# note\n".join(lines) + "\n#"):
            monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
            runs.append((main(["stream", str(props), "--signals", "Vout"]), capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][1].err == ""

    @pytest.mark.parametrize("bad, msg", [
        ("0.002 1.0 2.0", "stdin:4: expected time + 1 values"),
        ("0.002", "stdin:4: expected time + 1 values"),
        ("0.002 one", "stdin:4: bad number"),
        ("t 1.0", "stdin:4: bad number"),
    ])
    def test_malformed_line_exit_two(self, settle_files, monkeypatch, capsys, bad, msg):
        _, props = settle_files
        monkeypatch.setattr("sys.stdin", io.StringIO(f"0.0 0.0\n\n0.001 0.5\n{bad}\n0.003 1.2\n"))
        assert main(["stream", str(props), "--signals", "Vout"]) == 2
        assert capsys.readouterr().err == msg + "\n"

    def test_match_next_to_a_window_start_is_not_vacuous(self, tmp_path, monkeypatch, capsys):
        """A window that starts one ulp after the match at 0.005 keeps the
        vacuous pieces on either side of it apart, in the rows and the summary."""
        props = tmp_path / "p.txt"
        props.write_text("p: @+{V(a)>=0.5} |-> ##[0.007:0.015] @-{V(a)>=0.5};\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n0.01 1\n0.02 0\n0.03 1\n0.04 0\n"))
        assert main(["stream", str(props), "--signals", "a"]) == 0
        *rows, last = map(json.loads, capsys.readouterr().out.splitlines())
        vacuous = [[0.0, 0.005, True, False], [0.02 - 0.015, 0.025, False, False], [0.025, 0.04, False, True]]
        assert [r["interval"] for r in rows if r["kind"] == "vacuous-end"] == vacuous
        assert last["summary"] == {"p": {"match": [[0.005, 0.005, True, True], [0.025, 0.025, True, True]],
                                         "vacuous-end": vacuous}}

    @pytest.mark.parametrize("names", [("p", "q")])
    def test_summary_is_the_union_of_the_verdicts(self, tmp_path, monkeypatch, capsys, names):
        props = tmp_path / "props.txt"
        props.write_text(f"{names[0]}: {{V(x)>0}} |-> ##[0.3:0.5] {{V(x)<0}};\n{names[1]}: {{V(x)<0.5}} |-> {{V(x)>-0.5}};\n")
        times = [k * 0.05 for k in range(200)]
        lines = [f"{t!r} {math.sin(7 * t) + 0.3 * math.sin(31 * t)!r}" for t in times]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["stream", str(props), "--signals", "x"]) == 1
        *verdicts, last = map(json.loads, capsys.readouterr().out.splitlines())
        assert set(last["summary"]) == set(names)
        for name, per in last["summary"].items():
            assert set(per) == {v["kind"] for v in verdicts if v["assertion"] == name}
            for kind, rows in per.items():
                pieces = [Interval(*v["interval"]) for v in verdicts if (v["assertion"], v["kind"]) == (name, kind)]
                got = IntervalSet([Interval(*r) for r in rows])
                assert rows == [[k[0], k[2], not k[1], k[3]] for k in got.keys], (name, kind)  # normalized
                # one assertion's verdicts of one kind arrive in time order: merged exactly as all at once
                assert got == IntervalSet(pieces), (name, kind)

    def test_repeated_assertion_name_exit_two(self, tmp_path, monkeypatch, capsys):
        props = tmp_path / "props.txt"
        props.write_text("p: {V(x)>0} |-> {V(x)<1};\np: {V(x)<0.5} |-> {V(x)>-0.5};\n")
        trace = tmp_path / "t.csv"
        save_csv(Trace([0.0, 1.0], {"x": [0.0, 1.0]}), trace)
        assert main(["check", str(trace), str(props)]) == 2
        checked = capsys.readouterr()
        assert checked.out == ""
        assert checked.err == "error: line 2, col 1: assertion name 'p' is already used on line 1\n"
        monkeypatch.setattr("sys.stdin", io.StringIO("0.0 0.0\n1.0 1.0\n"))
        assert main(["stream", str(props), "--signals", "x"]) == 2
        assert capsys.readouterr() == checked

    def test_protocol_error_exit_two(self, settle_files, monkeypatch, capsys):
        _, props = settle_files
        monkeypatch.setattr("sys.stdin", io.StringIO("0.0 1.0\n0.0 2.0\n"))
        assert main(["stream", str(props), "--signals", "Vout:analog"]) == 2

    @pytest.mark.parametrize("text", ["{V(d)>0.5} |-> {V(x)>0}", "{x} |-> {V(x)>0}", "{V(x)>0} |-> @+{w}"])
    def test_signal_kind_error_same_as_check(self, tmp_path, monkeypatch, capsys, text):
        props = tmp_path / "props.txt"
        props.write_text(f"p: {text};\n")
        trace = tmp_path / "t.csv"
        save_csv(Trace([0.0, 1.0], {"x": [0.0, 1.0], "d": [0.0, 1.0]}, kinds={"d": "boolean"}), trace)
        assert main(["check", str(trace), str(props)]) == 2
        checked = capsys.readouterr().err
        monkeypatch.setattr("sys.stdin", io.StringIO("0.0 0.0 0.0\n"))
        assert main(["stream", str(props), "--signals", "x,d:boolean"]) == 2
        assert capsys.readouterr().err == checked and checked.startswith("error: ")

    def test_empty_signal_entry_skipped(self, tmp_path, monkeypatch, capsys):
        props = tmp_path / "props.txt"
        props.write_text("p: {V(x)>0} |-> {d};\n")
        outs = []
        for signals in ("x,,d:boolean", "x,d:boolean"):
            monkeypatch.setattr("sys.stdin", io.StringIO("0.0 1.0 1\n1.0 2.0 0\n2.0 -1.0 0\n"))
            assert main(["stream", str(props), "--signals", signals]) == 1
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1] and "fail" in outs[0].out

    @pytest.mark.parametrize("signals", ["x,x", "x:analog,x:boolean", "x,y:analog,x"])
    def test_duplicate_signal_names_exit_two(self, tmp_path, monkeypatch, capsys, signals):
        props = tmp_path / "props.txt"
        props.write_text("p: {V(x)>1} |-> {V(x)>0};\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("0.0 2.0\n1.0 2.0\n"))
        assert main(["stream", str(props), "--signals", signals]) == 2
        captured = capsys.readouterr()
        assert "duplicate signal names" in captured.err and captured.out == ""


def test_value_tol_widens_analog_equality(tmp_path, capsys):
    trace, props = tmp_path / "t.csv", tmp_path / "p.txt"
    trace.write_text("time,x\n0,1.0005\n1,1.0005\n2,0.9999995\n3,0.9999995\n")
    props.write_text("p: {V(x)==1} |-> {V(x)>2};\n")
    # |x - 1| is 5e-4, then 5e-7: the default 1e-6 band holds from where x falls to 1 + 1e-6
    assert main(["check", str(trace), str(props)]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["   fail at [1.997:3]"]
    assert main(["check", str(trace), str(props), "--value-tol", "1e-3"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["   fail at [0:3]"]


class TestOracle:
    def test_oracle_json(self, settle_files, capsys):
        trace, props = settle_files
        code = main(["oracle", str(trace), str(props), "--dt", "1e-5"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        (entry,) = doc["assertions"]
        assert entry["name"] == "settling"
        matches = [t for t, kind in entry["points"] if kind == "match"]
        assert len(matches) == 1 and abs(matches[0] - 0.0007) < 2e-5

    def test_too_coarse_dt(self, settle_files, capsys):
        trace, props = settle_files
        assert main(["oracle", str(trace), str(props), "--dt", "0.5"]) == 2

    def test_tiny_dt_without_traceback(self, settle_files):
        # numpy refuses a grid this size outright, so the case allocates none even without the cap
        trace, props = settle_files
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        run = subprocess.run([sys.executable, "-m", "amscheck.cli", "oracle", str(trace), str(props), "--dt", "1e-300"],
                             capture_output=True, text=True, env=env, timeout=120)
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == "error: dt=1e-300 over [0, 0.008] needs 8e+297 grid points, more than 10000000\n"


class TestCodegen:
    def test_codegen_to_file(self, tmp_path):
        props = tmp_path / "props.txt"
        props.write_text("{V(v)>1} |-> {V(w)>1};\n")
        out = tmp_path / "mon.vams"
        assert main(["codegen", str(props), "--out", str(out)]) == 0
        text = out.read_text()
        assert "$updateTruthInterval(0,0,+1,$abstime);" in text

    def test_codegen_stdout_module(self, tmp_path, capsys):
        props = tmp_path / "props.txt"
        props.write_text("{V(v)>1} |-> {V(w)>1};\n")
        assert main(["codegen", str(props), "--module"]) == 0
        assert "module amscheck_monitors;" in capsys.readouterr().out


class TestGenwave:
    def test_fixture_to_csv(self, tmp_path, capsys):
        out = tmp_path / "wave.csv"
        assert main(["genwave", "--fixture", "settling", "--out", str(out)]) == 0
        assert out.exists()
        from amscheck import load_csv

        tr = load_csv(out)
        assert tr.signals == ("Vout",)

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "signals": {"v": {"segments": [
                {"type": "pwl", "points": [[0, 0], [1, 1]]},
            ]}},
        }))
        out = tmp_path / "wave.csv"
        assert main(["genwave", str(spec), "--out", str(out)]) == 0

    def test_needs_spec_or_fixture(self, tmp_path, capsys):
        assert main(["genwave", "--out", str(tmp_path / "w.csv")]) == 2


class TestLoopsEnd:
    """Where one ulp of the time stamps exceeds the time tolerance, as at Unix-epoch times, or the
    tolerance is 0, no float may lie between the ends of a bisection or after a square wave's edge.
    Each run is a fresh process with a timeout and a cap on its address space, so a loop without
    end fails the test instead of hanging it or filling memory."""

    PROPS = "p: {V(x)*V(y)>1} |-> {V(x)>0};\n"  # not affine: the tracker bisects its crossings

    @staticmethod
    def bounded(argv, stdin=""):
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "from amscheck.cli import main; sys.exit(main(sys.argv[1:]))")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        return subprocess.run([sys.executable, "-c", code, *argv], input=stdin, capture_output=True, text=True,
                              env=env, timeout=30)

    @pytest.mark.parametrize("t0, tol", [(1.7e9, []), (0.0, ["--time-tol", "0"])], ids=["epoch", "no tolerance"])
    def test_a_bisection_ends(self, tmp_path, t0, tol):
        rows = [(t0, 0.3), (t0 + 1.0, 2.7), (t0 + 2.0, 0.1)]
        trace, props = tmp_path / "t.csv", tmp_path / "p.txt"
        trace.write_text("time,x,y\n" + "".join(f"{t!r},{x!r},1\n" for t, x in rows))
        props.write_text(self.PROPS)
        run = self.bounded(["check", str(trace), str(props), *tol])
        assert (run.returncode, run.stdout) == (0, "p  PASS  match=1 vacuous=2 fail=0 undetermined=0\n"), run.stderr
        run = self.bounded(["stream", str(props), "--signals", "x,y", *tol], "".join(f"{t!r} {x!r} 1\n" for t, x in rows))
        summary = json.loads(run.stdout.splitlines()[-1])["summary"]["p"]
        assert run.returncode == 0 and [len(summary["match"]), len(summary["vacuous-end"])] == [1, 2], run.stderr

    def test_a_square_wave_below_the_time_resolution_is_refused(self, tmp_path):
        spec = tmp_path / "spec.json"
        segment = {"type": "square", "t0": 1.7e9, "t1": 1.7e9 + 1.0, "period": 1e-7}  # half an ulp is 1.2e-7
        spec.write_text(json.dumps({"signals": {"clk": {"kind": "boolean", "segments": [segment]}}}))
        run = self.bounded(["genwave", str(spec), "--out", str(tmp_path / "w.csv")])
        assert run.returncode == 2
        assert run.stderr == "error: square segment period 1e-07 is below the float resolution at t=1700000000.0\n"


class TestCheckStreamEquivalence:
    def test_same_fail_intervals(self, escape_files, monkeypatch, capsys, tmp_path):
        trace_path, props = escape_files
        report = tmp_path / "r.json"
        main(["check", str(trace_path), str(props), "--report", str(report)])
        capsys.readouterr()
        doc = json.loads(report.read_text())
        offline_fail = doc["assertions"][0]["fail"]

        tr = fixture_trace("delay-escape")
        code, out = TestStream().run_stream(
            monkeypatch, capsys, props, "Vin:analog,Vout:analog", tr
        )
        rows = [json.loads(line) for line in out.splitlines() if line.strip()]
        online_fail = [
            r["interval"][:2] for r in rows if r.get("kind") == "fail"
        ]
        assert [f[:2] for f in offline_fail] == online_fail


class TestNoTraceback:
    """Bad input files end in one `error:` line and exit 2 from the real command
    line, never in a traceback (which exits 1, the code for a failed assertion)."""

    CASES = {
        "spec-signal-not-a-mapping": ("genwave", {"signals": {"x": 5}}),
        "spec-point-not-a-number": ("genwave", {"signals": {"v": {"segments": [
            {"type": "pwl", "points": [["a", 1], [1, 2]]}]}}}),
        "spec-segments-not-a-list": ("genwave", {"signals": {"v": {"segments": 7}}}),
        "spec-t-end-not-a-number": ("genwave", {"t_end": "z", "signals": {"v": {"segments": [
            {"type": "pwl", "points": [[0, 0], [1, 1]]}]}}}),
        "trace-header-not-utf8": ("trace", b"time,x\xff\n0,1\n1,2\n"),
        "trace-row-not-utf8": ("trace", b"time,x\n0,1\n1,2\n2,\xff3\n"),
        "trace-last-line-not-utf8": ("trace", b"time,x\n0,1\n1,2\n2,3\xff"),
        # text mode reads a lone carriage return as a line end, and the line count follows it
        "trace-cr-lines-not-utf8": ("trace", b"time,x\r0,1\r\n1,2\r2,\xff3\r"),
        # far past numpy's and the text reader's buffers: the line still counts from the file start
        "trace-deep-row-not-utf8": ("trace", b"time,x\n" + b"".join(b"%d,1\n" % i for i in range(10000))
                                    + b"10000,\xff1\n"),
        "assertions-not-utf8": ("assertions", b"p: {V(x)>0} |-> {V(x)>0}; # \xff\n"),
        # the column counts characters: the two-byte é before the bad byte is one column
        "assertions-last-line-not-utf8": ("assertions", b"p: {V(x)>0} |-> {V(x)>0};\n# caf\xc3\xa9 \xff"),
        "spec-header-not-utf8": ("genwave", b'\xfe{"signals": {}}\n'),
        # a leading byte-order mark is not counted as a column
        "trace-bom-header-not-utf8": ("trace", b"\xef\xbb\xbftime,x\xff\n0,1\n1,2\n"),
        # a comment before the header with a field over csv.field_size_limit()
        "trace-comment-field-too-large": ("trace", b"# " + b"x" * 200_000 + b"\ntime,x\n0,1\n1,2\n"),
        # a bound that overflows to inf, and finite bounds whose sum does
        "assertions-bound-not-finite": ("assertions", b"p: {V(x)>0} |-> ##[0:1e309] {V(x)>0};\n"),
        "assertions-horizon-not-finite": ("assertions", b"p: {V(x)>0} |-> ##[0:1e308] {V(x)>0}[*1e308];\n"),
        # ast.depth and the engine recurse once or more per level
        "assertions-antecedent-nested-too-deep": ("assertions", b"p: {V(x)>0}" + b" ##[0:1] {V(x)>0.5}" * 1500
                                                  + b" |-> {V(x)>0};\n"),
        "assertions-consequent-nested-too-deep": ("assertions", b"p: {V(x)>0} |-> {V(x)>0}"
                                                  + b" ##[0:1] {V(x)>0.5}" * 1500 + b";\n"),
        # the parser recurses once per brace and per recurrence continuation, and the hash of a
        # predicate once per arithmetic operator
        "assertions-braces-nested-too-deep": ("assertions", b"p: " + b"{" * 1500 + b"V(x)>0" + b"}" * 1500
                                              + b" |-> {V(x)>0};\n"),
        "assertions-recurrences-nested-too-deep": ("assertions", b"p: " + b"{V(x)>0}[*0:1] " * 1500
                                                   + b"{V(x)>0} |-> {V(x)>0};\n"),
        "assertions-sum-nested-too-deep": ("assertions", b"p: {V(x)" + b"+V(x)" * 600 + b">0} |-> {V(x)>0};\n"),
    }
    # (line, column) of the first byte that is not UTF-8, and that byte
    NOT_UTF8 = {
        "trace-header-not-utf8": (1, 7, 0xFF),
        "trace-row-not-utf8": (4, 3, 0xFF),
        "trace-last-line-not-utf8": (4, 4, 0xFF),
        "trace-cr-lines-not-utf8": (4, 3, 0xFF),
        "trace-deep-row-not-utf8": (10002, 7, 0xFF),
        "assertions-not-utf8": (1, 29, 0xFF),
        "assertions-last-line-not-utf8": (2, 8, 0xFF),
        "spec-header-not-utf8": (1, 1, 0xFE),
        "trace-bom-header-not-utf8": (1, 7, 0xFF),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_input_exits_two_without_traceback(self, tmp_path, case):
        what, content = self.CASES[case]
        trace, props = tmp_path / "t.csv", tmp_path / "p.txt"
        trace.write_bytes(b"time,x\n0,1\n1,2\n")
        props.write_bytes(b"p: {V(x)>0} |-> {V(x)>0};\n")
        if what == "genwave":
            bad = tmp_path / "spec.json"
            bad.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
            argv = ["genwave", str(bad), "--out", str(tmp_path / "w.csv")]
        else:
            bad = trace if what == "trace" else props
            bad.write_bytes(content)
            argv = ["check", str(trace), str(props)]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        run = subprocess.run([sys.executable, "-m", "amscheck.cli", *argv], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 2, run.stderr
        assert "Traceback" not in run.stderr
        assert [line for line in run.stderr.splitlines() if line.startswith("error: ")], run.stderr
        if case in self.NOT_UTF8:
            line, col, byte = self.NOT_UTF8[case]
            assert run.stderr == f"error: {bad}:{line}: not UTF-8 (byte 0x{byte:02x} at column {col})\n"
