"""Sampled waveform container with dense-time lookup.

A trace holds one strictly increasing time axis and one value column
per signal.  Between samples an analog signal is linearly interpolated
and a boolean signal holds its previous sample, so every signal has a
well-defined value at every instant of the trace domain.

CSV layout::

    time,Vout,en
    #kind,analog,boolean
    0.0,0.0,0
    1e-4,0.3,1

The ``#kind`` row is optional and defaults every column to analog.
Other ``#`` lines are comments.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from typing import Iterable, Mapping

import numpy as np

from .errors import TraceError, UnknownSignalError
from .intervals import Interval

KINDS = ("analog", "boolean")


def _first_non_finite(values: list[float]) -> int | None:
    """Index of the first nan or inf in ``values``, or None."""
    # a nan or inf anywhere makes the sum non-finite, and summing a list of
    # floats costs less than converting it to an array
    if math.isfinite(sum(values)):
        return None
    bad = np.flatnonzero(~np.isfinite(np.asarray(values, dtype=float)))
    return int(bad[0]) if bad.size else None


class Trace:
    def __init__(
        self,
        times: Iterable[float],
        signals: Mapping[str, Iterable[float]],
        kinds: Mapping[str, str] | None = None,
    ):
        self._times = [float(t) for t in times]
        if len(self._times) < 2:
            raise TraceError("a trace needs at least two samples")
        if (i := _first_non_finite(self._times)) is not None:
            raise TraceError(f"time axis has non-finite value {self._times[i]!r} at sample {i}")
        # the array built for this check is the one times() returns
        t_arr = np.asarray(self._times, dtype=float)
        bad = np.flatnonzero(~(t_arr[1:] > t_arr[:-1]))
        if bad.size:
            raise TraceError(f"time axis must be strictly increasing (at t={self._times[bad[0] + 1]!r})")
        self._cache: dict[str, np.ndarray] = {"": t_arr}
        self._values: dict[str, list[float]] = {}
        self.kinds: dict[str, str] = {}
        kinds = dict(kinds or {})
        for name, column in signals.items():
            col = [float(v) for v in column]
            if len(col) != len(self._times):
                raise TraceError(f"signal {name!r} has {len(col)} samples, expected {len(self._times)}")
            kind = kinds.get(name, "analog")
            if kind not in KINDS:
                raise TraceError(f"signal {name!r} has unknown kind {kind!r}")
            if (i := _first_non_finite(col)) is not None:
                raise TraceError(f"signal {name!r} has non-finite value {col[i]!r} at t={self._times[i]!r}")
            if kind == "boolean" and any(v not in (0.0, 1.0) for v in col):
                raise TraceError(f"boolean signal {name!r} carries values outside 0/1")
            self._values[name] = col
            self.kinds[name] = kind
        if not self._values:
            raise TraceError("a trace needs at least one signal")

    # ------------------------------------------------------------------

    @property
    def signals(self) -> tuple[str, ...]:
        return tuple(self._values)

    @property
    def domain(self) -> Interval:
        return Interval(self._times[0], self._times[-1])

    def __len__(self) -> int:
        return len(self._times)

    def times(self) -> np.ndarray:
        if "" not in self._cache:
            self._cache[""] = np.asarray(self._times, dtype=float)
        return self._cache[""]

    def values(self, name: str) -> np.ndarray:
        if name not in self._values:
            raise UnknownSignalError(f"trace has no signal {name!r}")
        if name not in self._cache:
            self._cache[name] = np.asarray(self._values[name], dtype=float)
        return self._cache[name]

    def sample(self, i: int) -> tuple[float, dict[str, float]]:
        return self._times[i], {n: col[i] for n, col in self._values.items()}

    def value_at(self, name: str, t: float) -> float:
        """Interpolated (analog) or held (boolean) value at time ``t``."""
        if name not in self._values:
            raise UnknownSignalError(f"trace has no signal {name!r}")
        ts = self._times
        if t < ts[0] or t > ts[-1]:
            raise TraceError(f"t={t!r} outside trace domain [{ts[0]!r}:{ts[-1]!r}]")
        col = self._values[name]
        i = bisect_right(ts, t) - 1
        if i >= len(ts) - 1:
            return col[-1]
        if self.kinds[name] == "boolean" or t == ts[i]:
            return col[i]
        t0, t1 = ts[i], ts[i + 1]
        return col[i] + (col[i + 1] - col[i]) * (t - t0) / (t1 - t0)

    def append_sample(self, t: float, values: Mapping[str, float]) -> None:
        if not math.isfinite(t):
            raise TraceError(f"sample time {t!r} is not finite")
        if t <= self._times[-1]:
            raise TraceError(f"sample time {t!r} not after {self._times[-1]!r}")
        if set(values) != set(self._values):
            raise TraceError("sample carries a different signal set than the trace")
        row = {name: float(v) for name, v in values.items()}
        for name, v in row.items():
            if not math.isfinite(v):
                raise TraceError(f"signal {name!r} got non-finite value {v!r}")
            if self.kinds[name] == "boolean" and v not in (0.0, 1.0):
                raise TraceError(f"boolean signal {name!r} got value {v!r}")
        for name, v in row.items():
            self._values[name].append(v)
        self._times.append(float(t))
        self._cache.clear()


def load_csv(path: str) -> Trace:
    times: list[float] = []
    columns: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header: list[str] | None = None
        kinds: dict[str, str] = {}
        names: list[str] = []
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            first = row[0].strip()
            if header is None:
                if first.startswith("#"):
                    continue
                header = [c.strip() for c in row]
                if not header or header[0] != "time" or len(header) < 2:
                    raise TraceError(f"{path}:{lineno}: header must be 'time,<signal>,...'")
                names = header[1:]
                if len(set(names)) != len(names):
                    raise TraceError(f"{path}:{lineno}: duplicate signal names")
                columns = [[] for _ in names]
                continue
            if first == "#kind":
                if len(row) != len(header):
                    raise TraceError(f"{path}:{lineno}: #kind row arity mismatch")
                for name, kind in zip(names, row[1:]):
                    kinds[name] = kind.strip()
                continue
            if first.startswith("#"):
                continue
            if len(row) != len(header):
                raise TraceError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                values = [float(c) for c in row]
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: {exc}") from None
            times.append(values[0])
            for col, v in zip(columns, values[1:]):
                col.append(v)
    if header is None:
        raise TraceError(f"{path}: no header row")
    return Trace(times, dict(zip(names, columns)), kinds)


def save_csv(trace: Trace, path: str) -> None:
    names = trace.signals
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", *names])
        if any(trace.kinds[n] == "boolean" for n in names):
            writer.writerow(["#kind", *(trace.kinds[n] for n in names)])
        cols = [trace.values(n) for n in names]
        for i, t in enumerate(trace.times()):
            writer.writerow([repr(float(t)), *(repr(float(c[i])) for c in cols)])
