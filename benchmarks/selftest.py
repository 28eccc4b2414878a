#!/usr/bin/env python3
"""Self-test of the benchmark harness, in well under a minute.

    python3 benchmarks/selftest.py

Runs every workload at the tiny size, untraced and traced, through the
same command the benchmark uses; checks that every run passes its
correctness gate, prints every declared metric, repeats its counts
exactly in a second process with the same seed, and that the gate
rejects a broken report.  Finally runs the benchmark in a directory that
holds only the benchmark files and expects it to fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3  # has a committed tiny-size reference
DETERMINISTIC = (
    "trace.rows",
    "atoms.atoms",
    "atoms.truth_components",
    "engine.verdict_components",
    "cli.report_bytes",
    "online.verdicts",
    "online.pending_obligations",
    "verdict_lag_s_p50",
    "verdict_lag_s_max",
)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    return res


def check_gate_rejects() -> None:
    from gate import partition_error, summary_error

    doc = {
        "domain": [0.0, 2.0],
        "assertions": [
            {"name": "a", "nonvacuous": [[0.0, 1.0, True, False]], "vacuous": [[1.0, 2.0, True, True]], "fail": [], "undetermined": []}
        ],
    }
    assert partition_error(doc, 1e-9) is None
    doc["assertions"][0]["vacuous"] = [[1.0, 2.0, False, True]]  # puncture at t=1
    assert partition_error(doc, 1e-9) is not None
    doc["assertions"][0]["vacuous"] = [[1.5, 2.0, True, True]]  # gap
    assert partition_error(doc, 1e-9) is not None
    want = {"a": {"nonvacuous": [1, 1.0], "vacuous": [1, 1.0], "fail": [0, 0], "undetermined": [0, 0]}}
    assert summary_error(want, want, 1e-9) is None
    assert summary_error({"a": dict(want["a"], fail=[1, 0.0])}, want, 1e-9) is not None
    assert summary_error({"a": dict(want["a"], vacuous=[1, 1.01])}, want, 1e-9) is not None


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == (END_TO_END, PER_LAYER), "BENCHMARK.json metrics differ from run.py"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads differ"
    check_gate_rejects()
    print("gate rejects broken reports: ok")

    for name in WORKLOADS:
        e2e = result(bench(name, 0))["metrics"]
        assert set(e2e) == set(END_TO_END), sorted(e2e)
        assert all(m["value"] > 0 for m in e2e.values()), e2e
        first, second = (result(bench(name, 1))["metrics"] for _ in range(2))
        assert set(first) == set(PER_LAYER), sorted(first)
        for key in DETERMINISTIC:
            assert first[key]["value"] == second[key]["value"], (name, key, first[key], second[key])
        print(f"{name}: untraced and traced runs pass, counts repeat across processes: ok")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(next(iter(WORKLOADS)), 0, cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    print("without the checker source: exits nonzero, prints no result: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
