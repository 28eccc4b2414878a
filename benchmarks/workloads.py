"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the seed and the size, so two runs with
the same seed check byte-identical CSV files and stream identical samples.
The program under test only ever sees the generated files and samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The four assertions of the acceptance #7 scale test.
OFFLINE_PROPS = """\
b1: {V(s0)>0}[*0.5] |-> {V(s2)>-0.9};
b2: @+{V(s0)>0.5} |-> ##[0.1:1.0] {V(s1)>-2};
b3: {V(s2)>0} |-> {V(s0)>-2}[*0.2:0.6]{V(s2)>=0.5};
b4: {V(s1)>0 && V(s0)>0} |-> ##[0.2:0.7] {V(s2)>-1};
"""

# Consecutive stretches of stream_rows samples at the start of the CSV that
# are streamed, each into a fresh Session.
WINDOWS = 3

STREAM_PROPS = "noisy: @+{V(x)>0.5} |-> ##[0.0002:0.001] {V(x)<-0.5}[*0.0001];\n"


def smooth_signals(seed: int, n: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The acceptance #7 trace: two smooth waves and a clipped random walk over 10 s."""
    t = np.linspace(0.0, 10.0, n)
    rng = np.random.default_rng(seed)
    base = np.sin(2 * np.pi * 0.25 * t)
    return t, {
        "s0": base + 0.05 * np.sin(2 * np.pi * 3.1 * t),
        "s1": np.clip(np.cumsum(rng.normal(0, 2e-3, n)), -1.5, 1.5),
        "s2": 1.0 - np.abs(((t / 2.5) % 2) - 1.0) * 2.0,
    }


def dense_signals(seed: int, n: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """I.i.d. standard normal samples over 10 s: every threshold is crossed
    about every other sample."""
    t = np.linspace(0.0, 10.0, n)
    rng = np.random.default_rng(seed)
    return t, {name: rng.normal(0.0, 1.0, n) for name in ("s0", "s1", "s2")}


def noisy_sine(seed: int, n: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A 500 Hz unit sine with 0.1 sigma white noise, sampled every 10 us."""
    t = np.arange(n) * 1e-5
    rng = np.random.default_rng(seed)
    return t, {"x": np.sin(2 * np.pi * 500.0 * t) + rng.normal(0.0, 0.1, n)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    props: str
    signals: object  # (seed, n) -> (times, {name: values})
    check_rows: dict[str, int]  # samples in the checked CSV, per size
    stream_rows: dict[str, int]  # samples per streamed window, per size
    check_share: float  # share of the measured time spent on check runs
    primary: str  # "check" or "stream": the operation the workload was chosen for

    def inputs(self, seed: int, size: str):
        return self.signals(seed, self.check_rows[size])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="smooth-cli",
            why="smooth 3-signal trace with few crossings: CSV ingest dominates, atoms and engine do little",
            props=OFFLINE_PROPS,
            signals=smooth_signals,
            check_rows={"full": 200_000, "tiny": 20_000},
            stream_rows={"full": 2_000, "tiny": 200},
            check_share=0.7,
            primary="check",
        ),
        Workload(
            name="dense-cli",
            why="i.i.d. normal signals cross every threshold densely: atoms, interval sets, engine and report building dominate",
            props=OFFLINE_PROPS,
            signals=dense_signals,
            check_rows={"full": 25_000, "tiny": 2_000},
            stream_rows={"full": 500, "tiny": 200},
            check_share=0.7,
            primary="check",
        ),
        Workload(
            name="stream-noisy",
            why="per-sample Session.feed on a noisy sine: many small atom and engine re-evaluations, cost grows with stream length",
            props=STREAM_PROPS,
            signals=noisy_sine,
            check_rows={"full": 6_000, "tiny": 1_200},
            stream_rows={"full": 2_000, "tiny": 400},
            check_share=0.3,
            primary="stream",
        ),
    )
}


def write_csv(path: Path, t: np.ndarray, signals: dict[str, np.ndarray], chunk: int = 50_000) -> None:
    """Write the trace CSV with repr() floats, so load_csv reads back the exact samples."""
    names = list(signals)
    with open(path, "w") as fh:
        fh.write(",".join(["time", *names]) + "\n")
        for lo in range(0, len(t), chunk):
            block = np.column_stack([t[lo : lo + chunk], *(signals[n][lo : lo + chunk] for n in names)])
            cells = list(map(repr, block.ravel().tolist()))
            width = block.shape[1]
            fh.write("\n".join(",".join(cells[i : i + width]) for i in range(0, len(cells), width)))
            fh.write("\n")
