"""In-memory spans recorded around calls into the checker's public functions.

The wrappers are installed on the names ``amscheck.cli`` binds and on
``Session.feed`` / ``Session.finalize``; nothing inside ``amscheck`` is
changed.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# name bound in amscheck.cli -> span name (layer.function)
CLI_LAYERS = {
    "load_csv": "trace.load_csv",
    "parse_file": "parser.parse_file",
    "build_table": "atoms.build_table",
    "assertion_match": "engine.assertion_match",
}
SESSION_LAYERS = {"feed": "online.feed", "finalize": "online.finalize"}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.kept: list[tuple[str, object]] = []  # (span name, returned value) for counting later
        self._stack: list[int] = []
        self.op = 0

    def begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "op": self.op,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def wrap(self, name: str, fn, keep: bool):
        def traced(*args, **kwargs):
            s = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(s)
            if keep:
                self.kept.append((name, out))
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap the checker's layer entry points for the duration of the block."""
        from amscheck import cli, online

        saved = []
        for owner, layers, keep in ((cli, CLI_LAYERS, True), (online.Session, SESSION_LAYERS, False)):
            for attr, name in layers.items():
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, keep))
        try:
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def op_spans(self, op: int) -> list[dict]:
        return [s for s in self.spans if s["op"] == op]


def durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_time(spans: list[dict], name: str) -> float:
    """Total time of the named spans minus the time their direct children cover."""
    ids = {s["id"] for s in spans if s["name"] == name}
    total = sum(durations(spans, name))
    return total - sum(s["end"] - s["start"] for s in spans if s["parent"] in ids)
