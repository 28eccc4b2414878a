"""Trace container, interpolation, and CSV round-trip tests."""

import csv
import errno
import io
import mmap
import os
import pathlib
import subprocess
import sys
import threading
import types
import urllib.request
import warnings

import numpy as np
import pytest

from amscheck import Trace, TraceError, UnknownSignalError, build_table, load_csv, parse_property, save_csv
from amscheck import AmscheckError, cli, trace
from amscheck.wavegen import fixture_trace


def ramp_trace():
    return Trace([0.0, 1.0, 2.0], {"v": [0.0, 2.0, 0.0]})


class TestConstruction:
    def test_domain(self):
        tr = ramp_trace()
        assert (tr.domain.lo, tr.domain.hi) == (0.0, 2.0)
        assert tr.domain.lo_closed and tr.domain.hi_closed

    def test_time_must_increase(self):
        with pytest.raises(TraceError):
            Trace([0.0, 1.0, 0.5], {"v": [0, 1, 2]})
        with pytest.raises(TraceError):
            Trace([0.0, 1.0, 1.0], {"v": [0, 1, 2]})

    def test_length_mismatch(self):
        with pytest.raises(TraceError):
            Trace([0.0, 1.0], {"v": [0.0]})

    def test_too_short(self):
        with pytest.raises(TraceError):
            Trace([0.0], {"v": [1.0]})

    def test_no_signal(self):
        with pytest.raises(TraceError, match="^a trace needs at least one signal$"):
            Trace([0.0, 1.0], {})

    def test_unknown_kind(self):
        with pytest.raises(TraceError):
            Trace([0, 1], {"v": [0, 1]}, kinds={"v": "digital"})

    def test_boolean_values_checked(self):
        with pytest.raises(TraceError):
            Trace([0, 1], {"d": [0.0, 0.5]}, kinds={"d": "boolean"})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(TraceError, match="non-finite"):
            Trace([0, 1, 2, 3], {"x": [0.0, bad, 1.0, 0.0]})
        with pytest.raises(TraceError, match="non-finite"):
            Trace([0.0, 1.0, bad], {"x": [0.0, 1.0, 0.0]})

    def test_finite_values_whose_sum_overflows_accepted(self):
        tr = Trace([0.0, 1.0], {"x": [1e308, 1e308]})
        assert tr.value_at("x", 0.5) == 1e308


class TestLookup:
    def test_linear_interpolation(self):
        tr = ramp_trace()
        assert tr.value_at("v", 0.5) == pytest.approx(1.0)
        assert tr.value_at("v", 1.5) == pytest.approx(1.0)

    def test_exact_sample(self):
        tr = ramp_trace()
        assert tr.value_at("v", 1.0) == pytest.approx(2.0)

    def test_boolean_holds_last_value(self):
        tr = Trace([0.0, 1.0, 2.0], {"d": [0.0, 1.0, 1.0]}, kinds={"d": "boolean"})
        assert tr.value_at("d", 0.5) == 0.0
        assert tr.value_at("d", 1.0) == 1.0
        assert tr.value_at("d", 1.7) == 1.0

    def test_out_of_domain(self):
        tr = ramp_trace()
        with pytest.raises(TraceError):
            tr.value_at("v", -0.1)
        with pytest.raises(TraceError):
            tr.value_at("v", 2.1)

    def test_unknown_signal(self):
        with pytest.raises(UnknownSignalError):
            ramp_trace().value_at("w", 0.5)

    def test_sample_row(self):
        t, vals = ramp_trace().sample(1)
        assert t == 1.0
        assert vals == {"v": 2.0}


class TestReadOnly:
    def test_columns_cannot_be_written(self):
        tr = Trace([0.0, 1.0, 2.0, 3.0], {"x": [0.0, 1.0, 0.0, 1.0]})
        prop = parse_property("{V(x)>0.5} |-> {V(x)<2};")
        before = build_table(tr, prop).get(prop.antecedent.bexpr)
        with pytest.raises(ValueError):
            tr.values("x")[1] = 5.0
        with pytest.raises(ValueError):
            tr.times()[0] = -1.0
        assert tr.values("x").tolist() == [0.0, 1.0, 0.0, 1.0]
        assert build_table(tr, prop).get(prop.antecedent.bexpr) == before

    def test_input_is_copied(self):
        t, x = np.array([0.0, 1.0]), np.array([0.0, 1.0])
        tr = Trace(t, {"x": x})
        x[0] = 7.0
        t[1] = 9.0
        assert tr.values("x").tolist() == [0.0, 1.0]
        assert tr.domain.hi == 1.0
        assert tr.values("x").flags.c_contiguous


class TestCsv:
    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("time,x\n0,0\n1,nan\n2,1\n")
        with pytest.raises(TraceError, match="non-finite"):
            load_csv(str(path))

    def test_round_trip(self, tmp_path):
        tr = Trace(
            [0.0, 1e-3, 2e-3],
            {"v": [0.0, 1.25, 0.5], "d": [0.0, 1.0, 0.0]},
            kinds={"d": "boolean"},
        )
        path = tmp_path / "t.csv"
        save_csv(tr, path)
        back = load_csv(path)
        assert np.allclose(back.times(), tr.times())
        assert np.allclose(back.values("v"), tr.values("v"))
        assert back.kinds["d"] == "boolean"
        assert back.kinds["v"] == "analog"

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "absent.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(TraceError):
            load_csv(path)

    @pytest.mark.parametrize("text,msg", [
        ("", "{}: no header row"),
        ("# a comment\n\n  \n# another\n", "{}: no header row"),
        ("time,x\n", "a trace needs at least two samples"),
    ], ids=["empty", "comments-and-blank-lines", "header-only"])
    def test_no_samples_exit_two(self, tmp_path, capsys, text, msg):
        path, props = tmp_path / "t.csv", tmp_path / "p.txt"
        path.write_text(text)
        props.write_text("p: {V(x)>0} |-> {V(x)>0};\n")
        assert cli.main(["check", str(path), str(props)]) == 2
        assert capsys.readouterr().err == f"error: {msg.format(path)}\n"


def write_bytes(tmp_path, text: str) -> pathlib.Path:
    """Write ``text`` verbatim, so CRLF line endings reach the reader."""
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    return path


class TestCsvDialect:
    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("time,x\n0,1\n1,2,3\n", 3),  # too many fields
            ("time,x,y\n0,1,2\n\n# note\n1,2\n", 5),  # too few fields
            ("time,x\n0,1\n1,abc\n", 3),  # non-numeric cell
            ("time,x\n0,1\n1,\n", 3),  # empty cell
            ("time,x,y\n0,,2\n", 2),  # empty cell in the middle
            ("time,x\n0,1\n1,--1\n", 3),  # malformed number
            ("time,x\n#kind,analog,boolean\n0,1\n1,2\n", 2),  # #kind arity
            ("# header follows\ntime,x,x\n0,1,2\n1,2,3\n", 2),  # duplicate names
            ("\nt,x\n0,1\n1,2\n", 2),  # first column is not time
            ("time\n0\n1\n", 1),  # no signal column
            # a field over csv.field_size_limit() before the first data row: a comment, the header, #kind
            pytest.param("\n# " + "x" * 200_000 + "\ntime,x\n0,1\n1,2\n", 2, id="comment-field-too-large"),
            pytest.param("time,x" + "y" * 200_000 + "\n0,1\n1,2\n", 1, id="header-field-too-large"),
            pytest.param("time,x\n#kind,analog" + " " * 200_000 + "\n0,1\n1,2\n", 2, id="kind-field-too-large"),
        ],
    )
    def test_malformed_input_names_its_line(self, tmp_path, text, lineno):
        path = write_bytes(tmp_path, text)
        with pytest.raises(TraceError, match=f":{lineno}:"):
            load_csv(path)

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        text = (
            "# exported by a simulator\n\ntime,x,d\n# units: s, V\n#kind,analog,boolean\n\n"
            "0,0.5,0\n# a comment between rows\n\n  \n   # an indented comment\n1,1.5,1\n2,2.5,0\n\n"
        )
        tr = load_csv(write_bytes(tmp_path, text))
        assert tr.times().tolist() == [0.0, 1.0, 2.0]
        assert tr.values("x").tolist() == [0.5, 1.5, 2.5]
        assert tr.values("d").tolist() == [0.0, 1.0, 0.0]
        assert tr.kinds == {"x": "analog", "d": "boolean"}

    def test_crlf_and_padded_cells(self, tmp_path):
        tr = load_csv(write_bytes(tmp_path, "time, x\r\n#kind, analog\r\n0, 1.5 \r\n1,\t2e-3\r\n"))
        assert tr.signals == ("x",)
        assert tr.values("x").tolist() == [1.5, 2e-3]

    def test_path_and_str_arguments(self, tmp_path):
        path = write_bytes(tmp_path, "time,x\n0,1\n1,2\n")
        assert isinstance(path, pathlib.Path)
        assert load_csv(path).values("x").tolist() == load_csv(str(path)).values("x").tolist() == [1.0, 2.0]

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ('time,x\n0,1\n"1",2\n', 3),  # quoted cell
            ("time,x\n0,1\n1,1_0\n", 3),  # digit separator
            ("time,x\n0,1\n#kind,boolean\n1,0\n", 3),  # #kind row after the data started
        ],
    )
    def test_inputs_outside_the_dialect_rejected(self, tmp_path, text, lineno):
        with pytest.raises(TraceError, match=f":{lineno}:"):
            load_csv(write_bytes(tmp_path, text))

    @pytest.mark.parametrize("extra", ["# a comment\n", "\n", "  \t\n", "   # indented\n"])
    @pytest.mark.parametrize("at", [1, 2, 3000, 5999, 6000])
    def test_lines_among_the_data_change_nothing(self, tmp_path, extra, at):
        """A comment or blank line anywhere among the data rows, in or across
        the batches the reader hands numpy, loads the same arrays as the file without it."""
        lines = ["time,x,y\n"] + [f"{i * 0.5!r},{(i * 7919) % 101 / 7!r},{i}\n" for i in range(6000)]
        plain = load_csv(write_bytes(tmp_path, "".join(lines)))
        lines.insert(at, extra)
        lines[at + 1] = lines[at + 1].rstrip("\n") + "  # trailing note\n"
        got = load_csv(write_bytes(tmp_path, "".join(lines)))
        assert got.times().tobytes() == plain.times().tobytes()
        for name in ("x", "y"):
            assert got.values(name).tobytes() == plain.values(name).tobytes()

    @pytest.mark.parametrize("bad_line", [2, 3, 500, 777, 1002])
    def test_first_bad_line_found_in_long_file(self, tmp_path, bad_line):
        lines = ["time,x"] + [f"{i},{i % 7}" for i in range(1000)] + ["# end"]
        lines.insert(400, "# a comment shifts the line numbers")
        lines[bad_line - 1] = "oops,1"
        lines.append("1e9,1,2")  # a later bad line is not reported
        with pytest.raises(TraceError, match=f":{bad_line}: could not convert"):
            load_csv(write_bytes(tmp_path, "\n".join(lines) + "\n"))


def reference_read(path):
    """The CSV dialect read with csv.reader and float(): (times, {name: column}, kinds)."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and r[0].strip()]
    header = [c.strip() for c in rows[0]]
    kinds = {n: k.strip() for r in rows if r[0].strip() == "#kind" for n, k in zip(header[1:], r[1:])}
    data = [[float(c) for c in r] for r in rows[1:] if not r[0].strip().startswith("#")]
    cols = [np.array(c) for c in zip(*data)]
    return cols[0], dict(zip(header[1:], cols[1:])), kinds


def random_columns(rng):
    n = int(rng.integers(2, 300))
    times = np.cumsum(rng.uniform(0.1, 10.0, n) * 10.0 ** rng.integers(-15, 4))
    cols = {
        "wide": rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-300, 300, n),
        "tiny": rng.integers(-(10**6), 10**6, n) * 5e-324,  # subnormals
        "ints": rng.integers(-1000, 1000, n).astype(float),
        "bit": rng.integers(0, 2, n).astype(float),
    }
    cols["wide"][rng.integers(0, n)] = -0.0
    return times, cols


class TestCsvDifferential:
    """load_csv must read back exactly what a plain csv.reader/float() reader reads."""

    @pytest.mark.parametrize("seed", range(8))
    def test_save_csv_files(self, tmp_path, seed):
        times, cols = random_columns(np.random.default_rng(seed))
        path = tmp_path / "t.csv"
        save_csv(Trace(times, cols, kinds={"bit": "boolean"}), path)
        self.assert_same(path)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("fmt", [repr, "{:.17g}".format, "{:.6e}".format, "{:.9g}".format])
    def test_hand_written_files(self, tmp_path, seed, fmt):
        times, cols = random_columns(np.random.default_rng(100 + seed))
        lines = ["time," + ",".join(cols), "# a comment", "#kind,analog,analog,analog,boolean"]
        for i, t in enumerate(times.tolist()):
            lines.append(",".join(fmt(v) for v in [t, *(c[i].item() for c in cols.values())]))
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        self.assert_same(path)

    @staticmethod
    def assert_same(path):
        times, cols, kinds = reference_read(path)
        tr = load_csv(path)
        assert tr.times().tobytes() == times.tobytes()
        assert tr.signals == tuple(cols)
        for name, col in cols.items():
            assert tr.values(name).dtype == np.float64
            assert tr.values(name).tobytes() == col.tobytes(), name
            assert tr.kinds[name] == kinds.get(name, "analog")


class TestFixtureWaveform:
    def test_settling_porv_components(self):
        """The packaged settling waveform holds its in-band predicate on
        exactly four spans."""
        tr = fixture_trace("settling")
        v = tr.values("Vout")
        t = tr.times()
        rated = 1.2
        inside = (v >= 0.95 * rated - 1e-12) & (v <= 1.05 * rated + 1e-12)
        # four maximal runs of in-band samples
        runs = []
        prev = False
        for i, flag in enumerate(inside):
            if flag and not prev:
                runs.append([t[i], t[i]])
            elif flag:
                runs[-1][1] = t[i]
            prev = flag
        assert len(runs) == 4
        assert runs[0] == pytest.approx([1.6e-3, 2.03e-3])
        assert runs[-1] == pytest.approx([3.8e-3, 7.9e-3])


def hand_written_file(rng) -> tuple[bytes, bool]:
    """A seeded trace in the style of hand-written files, and whether it is clean: no comment,
    whitespace-only line or malformed row among the data and nothing but UTF-8."""
    # a fifth of the files run past the text reader's first 8 KiB chunk
    n, width = int(rng.integers(2, 60) if rng.random() < 0.8 else rng.integers(400, 600)), int(rng.integers(2, 5))
    fmt = [repr, "{:.6e}".format, "{:g}".format, lambda v: f"  {v!r}\t"][int(rng.integers(0, 4))]
    head = ["time," + ",".join(f"s{j}" for j in range(1, width)), "#kind" + ",analog" * (width - 1)]
    if rng.random() < 0.5:
        head.insert(int(rng.integers(0, 3)), ["# exported by hand", "", "   "][int(rng.integers(0, 3))])
    rows = [",".join(fmt(v) for v in [i * 1e-3, *rng.normal(0.0, 1.0, width - 1).tolist()]) for i in range(n)]
    clean = True
    for _ in range(int(rng.integers(0, 3))):
        at, kind = int(rng.integers(1, n + 1)), int(rng.integers(0, 8))
        blank = ["", " ", "\t "][int(rng.integers(0, 3))]
        clean = clean and kind == 2 and not blank  # numpy skips empty lines itself
        if kind == 0:
            rows.insert(at, "# a note among the data")
        elif kind == 1:
            rows[at - 1] += "  # trailing note"
        elif kind == 2:
            rows.insert(at, blank)
        elif kind == 3:
            rows.insert(at, "#kind" + ",boolean" * (width - 1))
        elif kind == 4:
            rows[at - 1] = rows[at - 1].rsplit(",", 1)[0] + ",abc"
        elif kind == 5:
            rows[at - 1] += ",1"
        elif kind == 6:
            rows[at - 1] = rows[at - 1].rsplit(",", 1)[0] + ","
        else:
            rows[at - 1] = "\udcff" + rows[at - 1]  # written as the lone byte 0xff
    end = ["\n", "\r\n", "\r"][int(rng.integers(0, 3))]
    data = end.join(head + rows).encode("utf-8", "surrogateescape") + end.encode() * int(rng.integers(0, 2))
    return (b"\xef\xbb\xbf" if rng.random() < 0.3 else b"") + data, clean


def outcome(path):
    """The arrays and kinds ``load_csv`` reads from ``path``, or its error's type and text."""
    try:
        tr = load_csv(path)
    except AmscheckError as e:
        return type(e).__name__, str(e)
    return tr.times().tobytes(), [tr.values(n).tobytes() for n in tr.signals], tr.kinds


class TestCsvReadByName:
    """numpy reads a file by name from its first data row on; a file it rejects
    is read again line by line.  Both reads must give the same trace or error."""

    SUFFIXES = [".csv", ".csv.gz", ".bz2", ".xz", ".lzma"]  # numpy opens the last four as compressed files

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("suffix", SUFFIXES)
    def test_same_as_the_line_filter(self, tmp_path, monkeypatch, seed, suffix):
        rng = np.random.default_rng([seed, self.SUFFIXES.index(suffix)])
        read_rows = trace._read_rows
        by_name = []  # the files whose rows numpy read by name

        def spied(source, width, **file_args):
            rows = read_rows(source, width, **file_args)
            if isinstance(source, str):
                by_name.append(rows is not None)
            return rows

        for i in range(20):
            text, clean = hand_written_file(rng)
            path = tmp_path / f"t{i}{suffix}"
            path.write_bytes(text)
            monkeypatch.setattr(trace, "_read_rows", spied)
            by_name.clear()
            got = outcome(path)
            # no read by name: the line filter alone
            monkeypatch.setattr(trace, "_read_rows", lambda s, w, **f: None if isinstance(s, str) else read_rows(s, w))
            assert got == outcome(path), text
            # numpy reads every clean file by name, no file it should not open, and accepts no other
            assert by_name == [True] if clean and suffix == ".csv" else True not in by_name, text
            assert suffix == ".csv" or by_name == [], text

    def test_a_name_that_reads_as_a_url_is_read_locally(self, tmp_path, monkeypatch):
        """np.loadtxt would fetch a name holding "://" from the network; it is read from disk."""

        def no_network(*args, **kwargs):
            raise AssertionError("urlopen called")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "example.com").mkdir(parents=True)
        (tmp_path / "http:" / "example.com" / "t.csv").write_text("time,x\n0,1\n1,2\n")
        assert load_csv("http://example.com/t.csv").values("x").tolist() == [1.0, 2.0]


class TestPipe:
    """A trace read from a pipe, which can be read only once, loads as the same file on
    disk does; numpy cannot read it by name after the header loop has read from it."""

    @staticmethod
    def through_pipe(data: bytes):
        """``outcome`` of ``data`` written into a pipe and read by its /dev/fd name."""
        r, w = os.pipe()

        def write():
            with open(w, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            return outcome(f"/dev/fd/{r}"), f"/dev/fd/{r}"
        finally:
            writer.join()
            os.close(r)

    @staticmethod
    def rows(n: int) -> list[str]:
        return ["time,x,y\n"] + [f"{i * 0.5!r},{(i * 7919) % 101 / 7!r},{i}\n" for i in range(n)]

    @pytest.mark.parametrize("n", [2, 50, 1000, 8000])  # up to well past the 8 KiB text buffer and the 64 KiB pipe
    @pytest.mark.parametrize("change", ["none", "comment", "blank", "bad cell", "short row", "late kind", "bom"])
    def test_same_as_the_file(self, tmp_path, n, change):
        lines = self.rows(n)
        at = len(lines) - 1
        if change == "comment":
            lines.insert(at, "# a note\n")
        elif change == "blank":
            lines.insert(at, "  \t\n")
        elif change == "bad cell":
            lines[at] = "1e9,abc,1\n"
        elif change == "short row":
            lines[at] = "1e9,1\n"
        elif change == "late kind":
            lines.insert(at, "#kind,analog,boolean\n")
        elif change == "bom":
            lines[0] = "\ufeff" + lines[0]
        data = "".join(lines).encode()
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        got, name = self.through_pipe(data)
        want = outcome(path)
        if isinstance(want[0], str):  # an error: the same text, naming the pipe
            want = (want[0], want[1].replace(str(path), name))
        assert got == want
        assert (change in ("none", "comment", "blank", "bom")) == (not isinstance(got[0], str))

    def test_a_byte_that_is_not_utf8_is_named(self):
        got, name = self.through_pipe(b"time,x\n0,1\n1,\xff\n")
        assert got == ("EncodingError", f"{name}: not UTF-8 (byte 0xff)")

    def test_check_reads_a_pipe(self, tmp_path, capsys):
        from amscheck.cli import main

        props = tmp_path / "p.txt"
        props.write_text("p: {V(x)>0} |-> {V(y)>=0};\n")
        r, w = os.pipe()
        with open(w, "wb") as fh:
            fh.write("".join(self.rows(50)).encode())
        try:
            assert main(["check", f"/dev/fd/{r}", str(props)]) == 0
        finally:
            os.close(r)
        assert capsys.readouterr().out.startswith("p  PASS  match=")


def no_child_left():
    """True when this process has no child, running or a zombie, left to reap."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


# load_csv with small parts in a fresh process, so that numpy's warnings reach stderr; it prints
# the number of children forked, the number of line-filter reads and the repr of `outcome`
SPLIT_SCRIPT = """
import io, os, sys
sys.path.insert(0, sys.argv[4])
from test_trace import outcome, trace
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[2])))
trace.PART_BYTES = int(sys.argv[3])
fork, read_rows, log = trace._fork, trace._read_rows, {"forks": 0, "filtered": 0}

def counted():
    log["forks"] += 1
    return fork()

def spied(source, width, **file_args):
    log["filtered"] += not isinstance(source, (str, io.TextIOBase))
    return read_rows(source, width, **file_args)

trace._fork, trace._read_rows = counted, spied
got = outcome(sys.argv[1])
print(log["forks"], log["filtered"], repr(got))
"""


class TestSplitRead:
    """A large regular file is cut into byte ranges just after a line feed, and a forked child
    parses each.  ``PART_BYTES`` and the CPU count are patched here so that small files
    split; the split read must give what the whole-file read gives."""

    @pytest.fixture
    def parts(self, monkeypatch):
        """``parts(cpus)`` lets files of a few hundred bytes split into up to ``cpus`` parts; it
        returns a log of the children forked (``forks``) and of the line filter's reads (``filtered``)."""
        log = types.SimpleNamespace(forks=[], filtered=0)
        fork, read_rows = trace._fork, trace._read_rows

        def counted():
            if pid := fork():
                log.forks.append(pid)
            return pid

        def spied(source, width, **file_args):
            log.filtered += not isinstance(source, (str, io.TextIOBase))  # a part's text is a TextIOWrapper
            return read_rows(source, width, **file_args)

        def split(cpus, part_bytes=64):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            monkeypatch.setattr(trace, "PART_BYTES", part_bytes)
            monkeypatch.setattr(trace, "_fork", counted)
            monkeypatch.setattr(trace, "_read_rows", spied)
            return log

        return split

    @staticmethod
    def whole(path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        return outcome(path)

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_same_as_the_whole_file_read(self, tmp_path, monkeypatch, parts, cpus):
        """Over hand-written files (CRLF and lone CR line ends, byte-order marks, comments,
        blank lines and malformed rows among the data, non-UTF-8 bytes), rows and errors."""
        rng = np.random.default_rng(cpus)
        split = 0
        for i in range(60):
            path = tmp_path / f"t{i}.csv"
            text, clean = hand_written_file(rng)
            path.write_bytes(text)
            log = parts(cpus)
            forks, filtered = len(log.forks), log.filtered
            got = outcome(path)
            assert no_child_left()
            if len(log.forks) > forks:
                split += len(log.forks) > forks + 1
                assert (log.filtered > filtered) == (not clean), text  # a clean file needs no filter
            assert got == self.whole(path, monkeypatch), text
        assert split >= 20

    @pytest.mark.parametrize(
        "layout",
        ["lf", "crlf", "bom", "no final line end", "long last row", "long last row, no line end", "one long row"],
    )
    def test_cut_points(self, tmp_path, monkeypatch, parts, layout):
        """A cut right after the last row leaves an empty last range, which is dropped."""
        end = "\r\n" if layout == "crlf" else "\n"
        rows = [f"{i * 0.25!r},{(i * 7919) % 101 / 7!r},{i}" for i in range(40)]
        if layout.startswith("long last row"):
            rows[-1] += " " * 400  # padding numpy accepts: the last share of the bytes falls in this row
        if layout == "one long row":
            rows = ["0, 1" + " " * 600 + ",2", "1,2,3"]
        text = end.join(["time,x,y", "#kind,analog,analog", *rows])
        text += "" if "no line end" in layout else end
        path = tmp_path / "t.csv"
        path.write_bytes((b"\xef\xbb\xbf" if layout == "bom" else b"") + text.encode())
        log = parts(4)
        got = outcome(path)
        assert no_child_left() and log.filtered == 0
        assert got == self.whole(path, monkeypatch)
        assert len(got[1]) == 2 and len(got[0]) == 8 * len(rows)
        assert len(log.forks) == (2 if layout == "one long row" else 3 if "long last row" in layout else 4)

    @pytest.mark.parametrize(
        "layout", ["lone CR in the header", "lone CR among the data", "lone CR line ends", "blank lines", "CRLF blank lines"]
    )
    def test_lone_cr_and_blank_line_files_split(self, tmp_path, monkeypatch, parts, layout):
        """A line feed ends a text line whatever the line ends around it, so a cut just after one
        falls between two lines; a file without one is a single part."""
        rows = [f"{i * 0.25!r},{i % 7}" for i in range(200)]
        if layout == "lone CR among the data":
            rows[100:102] = [rows[100] + "\r" + rows[101]]
        if layout.endswith("blank lines"):
            for at in (150, 100, 50, 1):
                rows.insert(at, "")
        end = "\r" if layout == "lone CR line ends" else "\r\n" if layout.startswith("CRLF") else "\n"
        head = "# exported\rtime,x" if layout == "lone CR in the header" else "time,x"
        path = write_bytes(tmp_path, end.join([head, *rows]) + end)
        log = parts(4)
        got = outcome(path)
        assert no_child_left() and log.filtered == 0
        assert got == self.whole(path, monkeypatch)
        assert np.frombuffer(got[0]).tolist() == [i * 0.25 for i in range(200)]
        assert len(log.forks) == (1 if layout == "lone CR line ends" else 4)

    @pytest.mark.parametrize("layout", ["long header row", "long comment before the header", "bad row"])
    def test_a_header_longer_than_a_part(self, tmp_path, monkeypatch, layout):
        """The first part then holds no row, for which numpy warns and gives shape (0, 1): it counts
        as no row, and nothing reaches stderr.  A part that starts inside the header is rejected."""
        rows = [f"{i},{i % 7}" for i in range(100)]
        if layout == "bad row":
            rows[60] = "60,abc"
        head = ["# " + "x" * 3000, "time,x"] if layout.startswith("long comment") else ["time,x" + " " * 3000]
        path = write_bytes(tmp_path, "\n".join([*head, *rows]) + "\n")
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        run = subprocess.run([sys.executable, "-c", SPLIT_SCRIPT, str(path), "2", "64", str(src.parent / "tests")],
                             capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert run.returncode == 0 and run.stderr == "", run.stderr
        forks, filtered, got = run.stdout.rstrip("\n").split(" ", 2)
        assert forks == "2" and got == repr(self.whole(path, monkeypatch))
        assert (filtered == "0") == (layout == "long header row")  # a part that starts in the header is rejected

    def test_a_part_over_its_row_bound_writes_nothing(self, tmp_path, monkeypatch, parts):
        """A part's rows must fit the region its bytes bound; one more fails the part before it writes,
        so no row reaches another part's region, and the file goes to the line filter."""
        path = write_bytes(tmp_path, "time,x\n" + "".join(f"{i},{i % 7}\n" for i in range(400)))
        want = self.whole(path, monkeypatch)
        log = parts(4)
        maps, make, read_rows = [], mmap.mmap, trace._read_rows

        def kept(*args):
            maps.append(make(*args))
            return maps[-1]

        def too_many(source, width, **file_args):
            if isinstance(source, io.TextIOBase) and source.encoding == "utf-8-sig":  # the part at byte 0
                return np.full((len(source.buffer.getvalue()) // (2 * width) + 2, width), 0.125)
            return read_rows(source, width, **file_args)

        monkeypatch.setattr(mmap, "mmap", kept)
        monkeypatch.setattr(trace, "_read_rows", too_many)
        assert outcome(path) == want
        assert no_child_left() and len(log.forks) == 4 and log.filtered == 1
        assert 0.125 not in np.frombuffer(maps[0], float)

    def test_without_a_shared_map_the_file_is_read_whole(self, tmp_path, monkeypatch, parts):
        path = write_bytes(tmp_path, "time,x\n" + "".join(f"{i},{i % 7}\n" for i in range(400)))
        want = self.whole(path, monkeypatch)
        log = parts(4)
        calls, read_rows = [], trace._read_rows

        def spied(source, width, **file_args):
            calls.append("name" if isinstance(source, str) else "lines")
            calls[-1] += "" if file_args.get("max_rows") is None else " part"
            return read_rows(source, width, **file_args)

        def no_map(*args):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", no_map)
        monkeypatch.setattr(trace, "_read_rows", spied)
        assert outcome(path) == want
        assert calls == ["name part", "name"] and log.forks == [] and no_child_left()

    @pytest.mark.parametrize(
        "line",
        ["# a note", "  \t", "#kind,analog,boolean", "1e9,abc,1", "1e9,1", "1e9,1,2,3", "1e9,\udcff,1", ""],
        ids=["comment", "whitespace", "kind row", "bad cell", "short row", "long row", "not utf-8", "blank"],
    )
    def test_a_line_in_a_child_range(self, tmp_path, monkeypatch, parts, line):
        """Each gives the same rows, or the same error naming the same line, as the whole-file read."""
        # 4000 rows: numpy decodes the first few KiB of text before it parses one row
        lines = ["time,x,y"] + [f"{i * 0.5!r},{(i * 7919) % 101 / 7!r},{i}" for i in range(4000)]
        lines.insert(3800, line)  # in the last quarter of the bytes
        path = tmp_path / "t.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        log = parts(4, part_bytes=8192)
        got = outcome(path)
        assert no_child_left()
        assert got == self.whole(path, monkeypatch)
        assert len(log.forks) == 4
        if line in ("# a note", "  \t", ""):
            assert len(np.frombuffer(got[0])) == 4000
        else:
            assert got[1].startswith(f"{path}:3801: ")

    @pytest.mark.parametrize("at, line", [(390, "# a note"), (1, "oops,1")])
    def test_a_rejected_range_goes_straight_to_the_line_filter(self, tmp_path, monkeypatch, parts, at, line):
        """A comment among the data is parsed no more often than by the whole-file read: the
        parts, then the line filter, and no read of the whole file by name between.
        A bad first row, which the one-row read finds, is not parsed again either."""
        lines = ["time,x"] + [f"{i},{i % 7}" for i in range(400)]
        lines.insert(at, line)
        path = write_bytes(tmp_path, "\n".join(lines) + "\n")
        log = parts(2, part_bytes=1024)
        calls = []
        read_rows = trace._read_rows

        def spied(source, width, **file_args):
            calls.append("name" if isinstance(source, str) else "lines")
            calls[-1] += "" if file_args.get("max_rows") is None else " part"
            return read_rows(source, width, **file_args)

        monkeypatch.setattr(trace, "_read_rows", spied)
        got = outcome(path)
        assert no_child_left()
        if at > 1:
            assert np.frombuffer(got[0]).tolist() == [float(i) for i in range(400)]
            # the one-row read that loads numpy's reader, then the filter; the parts read in the children
            assert calls == ["name part", "lines"] and len(log.forks) == 2
        else:
            assert got[1] == f"{path}:2: could not convert string to float: 'oops'"
            # the one-row read, then the filter, which numpy rejects, so it bisects the lines
            assert calls[:2] == ["name part", "lines"] and set(calls[2:]) == {"lines"} and log.forks == []

    @pytest.mark.parametrize("failure", ["child exits 1", "caller raises", "wait fails", "fork fails"])
    def test_every_child_is_reaped(self, tmp_path, monkeypatch, parts, failure):
        lines = ["time,x"] + [f"{i},{i % 7}" for i in range(400)]
        path = write_bytes(tmp_path, "\n".join(lines) + "\n")
        want = self.whole(path, monkeypatch)
        log = parts(4, part_bytes=512)
        caller = os.getpid()
        read_rows = trace._read_rows
        if failure == "child exits 1":
            monkeypatch.setattr(trace, "_read_rows", lambda s, w, **f: None if os.getpid() != caller else
                                read_rows(s, w, **f))
        elif failure == "wait fails":
            waitpid = os.waitpid

            def lost(pid, options):
                waitpid(pid, options)
                raise ChildProcessError

            monkeypatch.setattr(os, "waitpid", lost)
        else:
            fork = trace._fork

            def no_process():
                if len(log.forks) < 2:
                    return fork()
                if failure == "caller raises":
                    raise KeyboardInterrupt
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

            monkeypatch.setattr(trace, "_fork", no_process)
        if failure == "caller raises":
            with pytest.raises(KeyboardInterrupt):
                load_csv(path)
        else:
            assert outcome(path) == want
        monkeypatch.undo()
        assert no_child_left()
        assert len(log.forks) == (2 if failure in ("caller raises", "fork fails") else 4)

    def test_at_most_max_parts(self, tmp_path, monkeypatch, parts):
        path = write_bytes(tmp_path, "time,x\n" + "".join(f"{i},{i % 7}\n" for i in range(400)))
        monkeypatch.setattr(trace, "MAX_PARTS", 3)
        log = parts(4)
        assert outcome(path) == self.whole(path, monkeypatch)
        assert len(log.forks) == 3 and no_child_left() and log.filtered == 0

    def test_only_the_fork_warning_of_python_312_is_silenced(self, monkeypatch):
        """Python 3.12+ warns at a fork of a process with other threads, as numpy's BLAS pool is."""
        message = "This process (pid=1) is multi-threaded, use of fork() may lead to deadlocks in the child."

        def warning_fork(text):
            warnings.warn(text, DeprecationWarning, stacklevel=2)
            return 12345

        monkeypatch.setattr(os, "fork", lambda: warning_fork(message))
        assert trace._fork() == 12345
        monkeypatch.setattr(os, "fork", lambda: warning_fork("another deprecation"))
        with pytest.raises(DeprecationWarning):
            trace._fork()
