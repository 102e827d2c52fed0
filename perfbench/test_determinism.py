"""Checks of the benchmark itself, on the tiny --smoke cells.

Run with `python3 -m pytest perfbench/test_determinism.py` or
`python3 perfbench/test_determinism.py`.  Each run takes a few seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# counts that do not depend on the machine, so they must repeat exactly
EXACT_COUNTS = (
    "solver.nodes", "mops.triangulations", "matchings.kmatchings",
    "solver.calls", "runner.cache.hits",
)
SERIAL_WORKLOADS = ("sweep", "resweep", "hunt-15-5")


def run(workload: str, trace: int, seed: int = 1) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def declared(kind: str) -> set[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in bench[kind]}


def test_exact_counts_repeat():
    for workload in SERIAL_WORKLOADS:
        first = run(workload, 1)[1]
        second = run(workload, 1, seed=2)[1]
        assert first["correct"] and second["correct"], workload
        for name in EXACT_COUNTS:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)
        assert first["metrics"]["solver.nodes"]["value"] > 0, workload


def test_every_declared_metric_is_reported():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            detail, result = run(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace)
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == declared(kind), (workload, trace)
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values())
            assert detail["failed_ratio"] == 0.0


def test_hunt_members_repeat():
    first = run("hunt-15-5", 0)[0]["hunt_members"]
    assert first == run("hunt-15-5", 0, seed=2)[0]["hunt_members"]
    assert len(first) == len(set(first)) == 2


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
