"""Deterministic synthetic waveform construction.

A waveform spec is a JSON-ready dict: per signal, a kind and a list of
segments (pwl points, ramp, exponential settle, square wave).  Every
signal's knot times are merged into one global time column; analog
signals are linearly interpolated at the merged times, which preserves
their piecewise-linear shape exactly, and boolean signals hold their
last value.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .atoms import KINDS
from .errors import TraceError, open_utf8
from .trace import Trace

_FIXTURES = {
    "settling": "settling.json",
    "delay-escape": "delay_escape.json",
}


# What a spec of the wrong shape raises while it is read: a missing key, a
# value of the wrong type, a number that does not parse.
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


def _seg_knots(seg: dict, kind: str) -> list[tuple[float, float]]:
    typ = seg["type"]
    if typ == "pwl":
        pts = seg.get("points")
        if not isinstance(pts, list) or not pts:
            raise TraceError("pwl segment needs a non-empty 'points' list")
        out = []
        for p in pts:
            if not isinstance(p, (list, tuple)) or len(p) != 2:
                raise TraceError(f"pwl point must be [t, v]: {p!r}")
            out.append((float(p[0]), float(p[1])))
        return out
    if typ == "ramp":
        return [(float(seg["t0"]), float(seg["v0"])), (float(seg["t1"]), float(seg["v1"]))]
    if typ == "exp":
        # exponential settle toward a target, sampled into pwl knots
        t0, t1 = float(seg["t0"]), float(seg["t1"])
        v0, target, tau = float(seg["v0"]), float(seg["target"]), float(seg["tau"])
        if tau <= 0 or t1 <= t0:
            raise TraceError("exp segment needs tau > 0 and t1 > t0")
        n = int(seg.get("steps", 50))
        ts = np.linspace(t0, t1, n + 1)
        return [(float(t), float(target + (v0 - target) * np.exp(-(t - t0) / tau))) for t in ts]
    if typ == "square":
        t0, t1, period = float(seg["t0"]), float(seg["t1"]), float(seg["period"])
        duty = float(seg.get("duty", 0.5))
        lo_v = float(seg.get("low", 0.0))
        hi_v = float(seg.get("high", 1.0))
        if period <= 0 or not (0 < duty < 1) or t1 <= t0:
            raise TraceError("square segment needs period > 0, 0 < duty < 1, t1 > t0")
        if kind != "boolean":
            raise TraceError("square segments only make sense on boolean signals; use pwl")
        out = []
        t = t0
        while t < t1 - 1e-15:
            out.append((t, hi_v))
            fall = t + duty * period
            if fall < t1:
                out.append((fall, lo_v))
            t += period
        out.append((t1, out[-1][1] if out else lo_v))
        return out
    raise TraceError(f"unknown segment type {typ!r}")


def _reason(e: Exception) -> str:
    return f"missing key {e}" if isinstance(e, KeyError) else str(e)


def generate(spec: dict) -> Trace:
    """Build a trace from a waveform spec dict."""
    if not isinstance(spec, dict) or "signals" not in spec:
        raise TraceError("waveform spec needs a 'signals' mapping")
    sig_spec = spec["signals"]
    if not isinstance(sig_spec, dict) or not sig_spec:
        raise TraceError("waveform spec has no signals")
    knots: dict[str, list[tuple[float, float]]] = {}
    kinds: dict[str, str] = {}
    for name, s in sig_spec.items():
        try:
            kind = s.get("kind", "analog")
            if kind not in KINDS:
                raise TraceError(f"signal {name!r}: unknown kind {kind!r}")
            kinds[name] = kind
            pts = [knot for seg in s.get("segments", []) for knot in _seg_knots(seg, kind)]
        except _MALFORMED as e:
            raise TraceError(f"signal {name!r}: malformed spec: {_reason(e)}") from None
        if len(pts) < 2:
            raise TraceError(f"signal {name!r} needs at least two knots")
        for (a, _), (b, _) in zip(pts, pts[1:]):
            if b <= a:
                raise TraceError(f"signal {name!r}: knot times must increase ({b} after {a})")
        knots[name] = pts
    try:
        t_end = None if spec.get("t_end") is None else float(spec["t_end"])
    except _MALFORMED as e:
        raise TraceError(f"malformed spec: t_end: {_reason(e)}") from None
    all_times = sorted({t for pts in knots.values() for t, _ in pts} | ({t_end} if t_end is not None else set()))
    if t_end is not None:
        all_times = [t for t in all_times if t <= t_end + 1e-15]
    times = np.asarray(all_times, dtype=float)
    columns: dict[str, np.ndarray] = {}
    for name, pts in knots.items():
        kt = np.asarray([t for t, _ in pts])
        kv = np.asarray([v for _, v in pts])
        if kinds[name] == "analog":
            columns[name] = np.interp(times, kt, kv)
        else:
            idx = np.clip(np.searchsorted(kt, times, side="right") - 1, 0, len(kv) - 1)
            columns[name] = kv[idx]
    return Trace(times, columns, kinds)


def load_spec(path: str) -> dict:
    with open_utf8(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise TraceError(f"bad waveform spec {path}: {e}") from None


def fixture_spec(name: str) -> dict:
    """One of the bundled demo waveform specs."""
    if name not in _FIXTURES:
        raise TraceError(f"unknown fixture {name!r}; have {sorted(_FIXTURES)}")
    text = resources.files("amscheck").joinpath("fixtures", _FIXTURES[name]).read_text()
    return json.loads(text)


def fixture_trace(name: str) -> Trace:
    return generate(fixture_spec(name))
