"""Command-line harness tests, driven in-process through main()."""

import io
import json
import random

import pytest

from amscheck.cli import main, write_report
from amscheck.engine import MatchReport
from amscheck.wavegen import fixture_trace
from amscheck import Interval, IntervalSet, save_csv

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

    def test_empty_assertion_file_exit_two(self, settle_files, tmp_path, capsys):
        trace, _ = settle_files
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["check", str(trace), str(empty)]) == 2

    def test_assert_name_filter(self, settle_files, capsys):
        trace, props = settle_files
        assert main(["check", str(trace), str(props), "--assert-name", "settling"]) == 0
        assert main(["check", str(trace), str(props), "--assert-name", "absent"]) == 2


class TestNumericOptions:
    """Tolerances must be finite and non-negative, steps and accuracies finite and
    positive: other values changed verdicts silently, or crashed."""

    @pytest.mark.parametrize(
        "command,option,value",
        [
            ("check", "--time-tol", "nan"),
            ("check", "--time-tol", "inf"),
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

    def test_protocol_error_exit_two(self, settle_files, monkeypatch, capsys):
        _, props = settle_files
        monkeypatch.setattr("sys.stdin", io.StringIO("0.0 1.0\n0.0 2.0\n"))
        assert main(["stream", str(props), "--signals", "Vout:analog"]) == 2

    @pytest.mark.parametrize("signals", ["x,x", "x:analog,x:boolean", "x,y:analog,x"])
    def test_duplicate_signal_names_exit_two(self, tmp_path, monkeypatch, capsys, signals):
        props = tmp_path / "props.txt"
        props.write_text("p: {V(x)>1} |-> {V(x)>0};\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("0.0 2.0\n1.0 2.0\n"))
        assert main(["stream", str(props), "--signals", signals]) == 2
        captured = capsys.readouterr()
        assert "duplicate signal names" in captured.err and captured.out == ""


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
