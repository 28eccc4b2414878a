"""Sampled waveform container with dense-time lookup.

A trace holds one strictly increasing time axis and one value column
per signal.  Between samples an analog signal is linearly interpolated
and a boolean signal holds its previous sample, so every signal has a
well-defined value at every instant of the trace domain.  Each column is
stored once, as a float64 array copied from the caller's input, and
``times()`` and ``values()`` return it read-only.

CSV layout::

    time,Vout,en
    #kind,analog,boolean
    0.0,0.0,0
    1e-4,0.3,1

The header is the first line that is neither blank nor a ``#`` comment.
The optional ``#kind`` row must come before the data and defaults every
column to analog.  The data rows are comma-separated numbers with
optional surrounding whitespace, one per header column; ``#`` starts a
comment and blank lines are skipped.  Quoted cells, ``1_0`` digit
separators and non-ASCII digits are rejected.  ``np.loadtxt`` reads a
regular file by name; a file it rejects, a pipe and a name it would not
open as a plain file go through a line filter, where a malformed row raises
``TraceError`` naming its line.  The file is read as UTF-8, whatever the
locale, without a leading byte-order mark, by `errors.open_utf8`: a byte
that is not UTF-8 raises ``EncodingError`` naming its line and column.

A regular file of at least two ``PART_BYTES`` is parsed in parts at once,
one per usable CPU and at most ``MAX_PARTS``: the data rows are cut just
after a line end into byte ranges of about equal size, the caller parses
the first range and one forked child per other range writes its rows into
shared memory.  Every child is reaped before `load_csv` returns.  A
file with a lone ``\r`` or a blank line keeps the whole-file read, and so
does a platform without ``os.fork`` or ``os.sched_getaffinity``.  A range
that numpy rejects, a child that does not exit 0 or a failed wait sends
the file to the line filter, so rows and error messages do not depend on
the split.  Nothing of this is configurable.
"""

from __future__ import annotations

import csv
import mmap
import os
import signal
import stat
import warnings
from itertools import chain
from typing import Iterable, Iterator, Mapping, NoReturn, TextIO

import numpy as np

from .atoms import KINDS
from .errors import TraceError, UnknownSignalError, open_utf8
from .intervals import Interval


def _column(values: Iterable[float]) -> np.ndarray:
    """A fresh read-only contiguous float64 copy of ``values``."""
    col = np.array(values if isinstance(values, (np.ndarray, list, tuple)) else list(values), dtype=float)
    col.flags.writeable = False
    return col


class Trace:
    def __init__(
        self,
        times: Iterable[float],
        signals: Mapping[str, Iterable[float]],
        kinds: Mapping[str, str] | None = None,
    ):
        t = self._times = _column(times)
        if t.shape[0] < 2:
            raise TraceError("a trace needs at least two samples")
        if not (finite := np.isfinite(t)).all():
            i = int(finite.argmin())
            raise TraceError(f"time axis has non-finite value {t.item(i)!r} at sample {i}")
        if not (rising := t[1:] > t[:-1]).all():
            raise TraceError(f"time axis must be strictly increasing (at t={t.item(int(rising.argmin()) + 1)!r})")
        self._columns: dict[str, np.ndarray] = {}
        self.kinds: dict[str, str] = {}
        for name, column in signals.items():
            col = _column(column)
            if col.shape != t.shape:
                raise TraceError(f"signal {name!r} has {col.size} samples, expected {t.size}")
            kind = (kinds or {}).get(name, "analog")
            if kind not in KINDS:
                raise TraceError(f"signal {name!r} has unknown kind {kind!r}")
            if not (finite := np.isfinite(col)).all():
                i = int(finite.argmin())
                raise TraceError(f"signal {name!r} has non-finite value {col.item(i)!r} at t={t.item(i)!r}")
            if kind == "boolean" and np.any((col != 0.0) & (col != 1.0)):
                raise TraceError(f"boolean signal {name!r} carries values outside 0/1")
            self._columns[name] = col
            self.kinds[name] = kind
        if not self._columns:
            raise TraceError("a trace needs at least one signal")

    # ------------------------------------------------------------------

    @property
    def signals(self) -> tuple[str, ...]:
        return tuple(self._columns)

    @property
    def domain(self) -> Interval:
        return Interval(self._times.item(0), self._times.item(-1))

    def __len__(self) -> int:
        return self._times.shape[0]

    def times(self) -> np.ndarray:
        return self._times

    def values(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise UnknownSignalError(f"trace has no signal {name!r}")
        return self._columns[name]

    def sample(self, i: int) -> tuple[float, dict[str, float]]:
        return self._times.item(i), {n: col.item(i) for n, col in self._columns.items()}

    def value_at(self, name: str, t: float) -> float:
        """Interpolated (analog) or held (boolean) value at time ``t``."""
        col, ts = self.values(name), self._times
        if t < ts.item(0) or t > ts.item(-1):
            raise TraceError(f"t={t!r} outside trace domain [{ts.item(0)!r}:{ts.item(-1)!r}]")
        i = int(ts.searchsorted(t, side="right")) - 1
        if i >= len(ts) - 1:
            return col.item(-1)
        t0, v0 = ts.item(i), col.item(i)
        if self.kinds[name] == "boolean" or t == t0:
            return v0
        t1, v1 = ts.item(i + 1), col.item(i + 1)
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _read_rows(source: str | Iterable[str], width: int, **file_args) -> np.ndarray | None:
    """``source``, a file name or data lines, as an (n, width) float64 array, or None if np.loadtxt rejects it."""
    try:
        rows = np.loadtxt(source, delimiter=",", comments=None, ndmin=2, **file_args)
    except ValueError:
        return None
    return rows if rows.shape[1] == width else None


def _data_body(path, lineno: int, line: str) -> str:
    """A data line without its ``#`` comment; a ``#kind`` row there raises TraceError."""
    if line.split(",", 1)[0].strip() == "#kind":
        raise TraceError(f"{path}:{lineno}: #kind row after the first data row")
    return line.split("#", 1)[0]


def _data_lines(path, batches: Iterable[list[str]], first: int) -> Iterator[list[str]]:
    """The batches of data lines numbered from ``first``, without comments and blank lines."""
    for batch in batches:
        kept = [line for line in batch if "#" not in line and not line.isspace()]
        if len(kept) < len(batch):
            bodies = (_data_body(path, lineno, line) for lineno, line in enumerate(batch, start=first))
            kept = [body for body in bodies if body.strip()]
        first += len(batch)
        yield kept


def _bad_row(path, lines: Iterable[str], first: int, width: int) -> NoReturn:
    """Raise TraceError naming the first of the data lines, numbered from
    ``first``, that cannot be read; np.loadtxt rejects them as a whole."""
    numbered = [(n, body) for n, line in enumerate(lines, start=first) if (body := _data_body(path, n, line)).strip()]
    linenos, kept = zip(*numbered)
    lo, hi = 0, len(kept)  # kept[lo:hi] holds the first bad line
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _read_rows(kept[lo:mid], width) is None else (mid, hi)
    cells = kept[lo].split(",")
    if len(cells) != width:
        raise TraceError(f"{path}:{linenos[lo]}: expected {width} fields, got {len(cells)}")
    bad = next(c.strip() for c in cells if not c.strip() or _read_rows([c], 1) is None)
    raise TraceError(f"{path}:{linenos[lo]}: could not convert string to float: {bad!r}")


# the least data worth a part: numpy parses 1 MiB in about 6.5 ms, and a fork and reap take 1-2.5 ms; after
# a fork the caller's first write to each page it held faults, which costs more in a larger process (2 vCPU:
# a 2.2 MB file read in two parts took 11.7 ms, not 13.7, but 15.6 ms, not 15.0, beside a 300k-object heap)
PART_BYTES = 1 << 20
MAX_PARTS = 8


def _line_ends(name: str, first: int) -> tuple[int, np.ndarray] | None:
    """The byte offset of data line ``first`` of ``name`` and the offset just past each data line,
    or None where line numbers by ``\n`` bytes could disagree with numpy's, which counts text lines:
    a lone ``\r`` ends a text line, and a blank line is not a row but counts in ``skiprows``."""
    ends, crs, pos = [], [], 0
    with open(name, "rb") as fh:
        while chunk := fh.read(1 << 20):  # in chunks, so the scan holds no copy of the file
            u = np.frombuffer(chunk, np.uint8)
            ends.append(np.flatnonzero(u == 10) + (pos + 1))
            if b"\r" in chunk:
                crs.append(np.flatnonzero(u == 13) + (pos + 2))  # where its line ends if a \n follows
            pos += len(chunk)
    ends = np.concatenate(ends)
    if crs and not np.isin(np.concatenate(crs), ends, assume_unique=True).all():
        return None
    start, ends = ends.item(first - 2), ends[first - 1 :]
    if not ends.size or ends.item(-1) < pos:  # the last line has no line end
        ends = np.append(ends, pos)
    # a row holds two fields and a comma; a shorter line is blank, "\r\n" included, or numpy rejects it
    return None if np.diff(ends, prepend=start).min() < 3 else (start, ends)


def _fork() -> int:
    with warnings.catch_warnings():
        # Python 3.12+ warns that forking a process with other threads (numpy's BLAS pool) may
        # deadlock the child; a part's child only runs numpy's text parser and leaves by os._exit
        warnings.filterwarnings("ignore", r".*fork\(\) may lead to deadlocks", DeprecationWarning)
        return os.fork()


def _read_file(name: str, size: int, first: int, width: int) -> np.ndarray | None:
    """The rows of the regular file ``name`` from data line ``first`` on, as an (n, width)
    float64 array, or None if numpy rejects a row; parsed in parts at once if it is large."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1
    parts = min(cpus, size // PART_BYTES, MAX_PARTS)
    found = _line_ends(name, first) if parts > 1 else None
    if found is None:
        return _read_rows(name, width, skiprows=first - 1, encoding="utf-8-sig")
    # a one-row read first loads what numpy's reader imports on first use, so the children import nothing
    if _read_rows(name, width, skiprows=first - 1, max_rows=1, encoding="utf-8-sig") is None:
        return None
    start, ends = found
    n = len(ends)
    # part k starts after the line that holds the k-th equal share of the data bytes; an empty part is dropped
    shares = start + (ends.item(-1) - start) * np.arange(1, parts) // parts
    cuts = sorted({0, n, *(np.searchsorted(ends, shares) + 1).tolist()})
    out = np.frombuffer(mmap.mmap(-1, n * width * 8), dtype=float).reshape(n, width)

    def fill(k: int) -> bool:
        lo, hi = cuts[k], cuts[k + 1]
        rows = _read_rows(name, width, skiprows=first - 1 + lo, max_rows=hi - lo, encoding="utf-8-sig")
        if rows is None or len(rows) != hi - lo:
            return False
        out[lo:hi] = rows
        return True

    pids: list[int] = []
    ok = False
    try:
        for k in range(1, len(cuts) - 1):
            if (pid := _fork()) == 0:
                try:
                    os._exit(0 if fill(k) else 1)
                finally:
                    os._exit(1)
            pids.append(pid)
        ok = fill(0)
    except OSError:  # no process for a part, or the file went: the line filter reads the open file
        pass
    finally:
        if not ok:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            try:
                ok = os.waitpid(pid, 0)[1] == 0 and ok
            except OSError:
                ok = False
    return out if ok else None


def _data_rows(path, fh: TextIO, line: str, first: int, width: int) -> np.ndarray:
    """The data rows as an (n, width) float64 array: ``line``, which is line ``first``
    of ``path``, and the lines after it, which ``fh`` has still to read."""
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    # numpy reads a regular file by name from the first data row on, in large chunks and, for a large
    # file, in parts at once (_read_file); it opens a name with a compressor's suffix as a compressed
    # file and one holding "://" as a URL, and a pipe or FIFO holds only what the header loop left
    plain = isinstance(name, str) and "://" not in name and not name.endswith((".gz", ".bz2", ".xz", ".lzma"))
    if plain and stat.S_ISREG((st := os.stat(name)).st_mode):
        if (rows := _read_file(name, st.st_size, first, width)) is not None:
            return rows
    # otherwise, or if numpy rejects the file (a comment, whitespace-only line or malformed row
    # among the data, or a byte that is not UTF-8), filter the lines of ``fh``, which are kept
    # for _bad_row; ~64 KiB batches, not single lines, keep clean lines as fast as bare loadtxt
    batches = [[line], *iter(lambda: fh.readlines(1 << 16), [])]
    if (rows := _read_rows(chain.from_iterable(_data_lines(path, batches, first)), width)) is None:
        _bad_row(path, chain.from_iterable(batches), first, width)
    return rows


def load_csv(path) -> Trace:
    header: list[str] | None = None
    kinds: dict[str, str] = {}
    data = None
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            row = [c.strip() for c in next(csv.reader([line]), [])] or [""]
            if row == [""] or (header is None and row[0].startswith("#")):
                continue
            if header is None:
                header = row
                if header[0] != "time" or len(header) < 2:
                    raise TraceError(f"{path}:{lineno}: header must be 'time,<signal>,...'")
                if len(set(header[1:])) != len(header) - 1:
                    raise TraceError(f"{path}:{lineno}: duplicate signal names")
            elif row[0] == "#kind":
                if len(row) != len(header):
                    raise TraceError(f"{path}:{lineno}: #kind row arity mismatch")
                kinds = dict(zip(header[1:], row[1:]))
            elif not row[0].startswith("#"):
                data = _data_rows(path, fh, line, lineno, len(header))  # this row and every row after it
                break
    if header is None:
        raise TraceError(f"{path}: no header row")
    if data is None:
        data = np.empty((0, len(header)))
    return Trace(data[:, 0], {name: data[:, j] for j, name in enumerate(header[1:], 1)}, kinds)


def save_csv(trace: Trace, path: str) -> None:
    names = trace.signals
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", *names])
        if any(trace.kinds[n] == "boolean" for n in names):
            writer.writerow(["#kind", *(trace.kinds[n] for n in names)])
        rows = zip(trace.times().tolist(), *(trace.values(n).tolist() for n in names))
        writer.writerows(map(repr, row) for row in rows)
