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
column to analog.  One ``np.loadtxt`` call parses the data rows:
comma-separated numbers with optional surrounding whitespace, one per
header column; ``#`` starts a comment and blank lines are skipped, by a
filter that feeds the call batches of lines.  Quoted cells, ``1_0``
digit separators and non-ASCII digits are rejected.  A malformed row
raises ``TraceError`` naming its line.  The file is read as UTF-8,
whatever the locale, by `errors.open_utf8`: a byte that is not UTF-8 raises
``EncodingError`` naming its line and column.
"""

from __future__ import annotations

import csv
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, NoReturn

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


def _read_rows(lines: Iterable[str], width: int) -> np.ndarray | None:
    """``lines`` as an (n, width) float64 array, or None if np.loadtxt rejects them."""
    try:
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
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


def load_csv(path) -> Trace:
    header: list[str] | None = None
    kinds: dict[str, str] = {}
    first_data: int | None = None  # line number of the first data row
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
                # numpy parses this row and every row after it in one call
                first_data = lineno
                # filtering ~64 KiB batches, not single lines, keeps clean files as fast as bare loadtxt
                batches = chain([[line]], iter(lambda: fh.readlines(1 << 16), []))
                data = _read_rows(chain.from_iterable(_data_lines(path, batches, lineno)), len(header))
                break
    if header is None:
        raise TraceError(f"{path}: no header row")
    if first_data is None:
        data = np.empty((0, len(header)))
    elif data is None:
        # a malformed line among the data rows: find it
        with open_utf8(path) as fh:
            _bad_row(path, islice(fh, first_data - 1, None), first_data, len(header))
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
