"""Benchmark for mopar: class sweeps and an order-15 floor hunt.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Workloads (`BENCHMARK.json` says why each one is there; `layers.json` maps
each per-layer metric to the end-to-end metric it should move):

* sweep        cold ar_class(10,4) and ar_class(11,5), jobs=1, into a fresh
               ResultCache, then verify_class_result on both
* sweep-jobs2  the same cells with jobs=2
* resweep      set-up fills a cache by running sweep-jobs2; the timed part
               opens a new ResultCache on a copy and re-runs both cells
* hunt-15-5    ar_exact(g, 5, floor=19) and verify_certificate on random
               canonically relabeled 15-gon triangulations

Every pass runs in a fresh interpreter (`worker.py`), with its cache files
in a temporary directory under `.perfbench-tmp/` in the checkout that is
removed at exit.  Passes repeat until `--seconds` have gone by (at least
one).  Every output is checked; a member that fails a check counts as
failed.  With `--trace 0` the last line reports the end-to-end metrics,
medians over the passes; with `--trace 1` it reports per-layer metrics from
one traced jobs=1 pass, beside one untraced pass for the overhead ratio.
The line before it holds details: per-pass times, member_ms.p95 where at
least ten samples lie beyond it, failed_ratio and the hunt's members.
`--smoke` swaps in tiny cells, for the determinism test.

Times are reported in seconds at a reference processor speed: the worker
samples the speed of its core while it runs (`worker.SpeedSampler`) and
scales what it measured by it, because shared cores change speed by up to
half for seconds at a time.  The detail line also has the raw times.

None of the inputs depend on `--seed`: the sweeps cover whole classes, and
the hunt's members come from a fixed sample seed (see `layers.json` for
why).  The seed is recorded on the detail line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DEADLINE_S = 170.0
MIN_SETUPS = 3

# (n, k, class value, class members)
CELLS = ((10, 4, 12, 82), (11, 5, 16, 228))
SMOKE_CELLS = ((8, 3, 8, 12), (9, 4, 11, 27))
# the README's claimed class value ar(O_15, M_5) = 19 is the floor
HUNT = {"n": 15, "k": 5, "floor": 19, "count": 2, "sample_seed": 1}
SMOKE_HUNT = {"n": 10, "k": 4, "floor": 12, "count": 2, "sample_seed": 1}

WORKLOADS = {
    "sweep": {"kind": "sweep", "jobs": 1},
    "sweep-jobs2": {"kind": "sweep", "jobs": 2},
    "resweep": {"kind": "resweep", "jobs": 1},
    "hunt-15-5": {"kind": "hunt", "jobs": 1},
}


class Run:
    """Spawns passes, checks their outputs and keeps the tallies.

    A member's record is worker.result_record's list:
    [graph6, k, value, mode, witness colors, elapsed_ms, nodes].
    """

    def __init__(self, mopar, workload: dict, smoke: bool, tmp: str):
        self.mopar = mopar
        self.kind = workload["kind"]
        self.jobs = workload["jobs"]
        self.cells = SMOKE_CELLS if smoke else CELLS
        self.hunt = SMOKE_HUNT if smoke else HUNT
        self.tmp = tmp
        self.start = time.perf_counter()
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: list | None = None  # resweep: the fill's results
        self.cache_src: str | None = None
        self.hunt_members: list[str] | None = None

    # -- passes ----------------------------------------------------------

    def spec(self, *, jobs: int | None = None, trace: bool = False,
             setup_only: bool = False, cold: bool = False) -> dict:
        self.spawned += 1
        spec = {"jobs": self.jobs if jobs is None else jobs,
                "setup_only": setup_only,
                "samples_prefix": os.path.join(self.tmp, f"samples-{self.spawned}-")}
        if self.kind == "hunt":
            spec["hunt"] = self.hunt
        else:
            spec["cells"] = [cell[:2] for cell in self.cells]
            spec["cache_path"] = os.path.join(self.tmp, f"cache-{self.spawned}.jsonl")
            spec["cache_src"] = None if cold else self.cache_src
        if trace:
            spec["trace_path"] = os.path.join(self.tmp, f"spans-{self.spawned}.jsonl")
        return spec

    def spawn(self, spec: dict, kind: str | None = None) -> dict:
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        if remaining <= 0:
            raise RuntimeError("benchmark ran out of time before a pass")
        t_spawn = time.perf_counter()
        # own session, so that a timeout also ends the pool workers
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except BaseException:  # a timeout or an interrupt: end the pass first
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"a benchmark pass failed:\n{stderr[-2000:]}")
        out = json.loads(stdout.splitlines()[-1])
        out["spec"] = spec
        # every time below is in seconds at the reference speed (worker.py)
        out["setup_s"] = (out["t_setup"] - t_spawn) * out["setup_speed"]
        if "cells" in out:
            out["members"] = sum(len(c["results"]) for c in out["cells"])
            self.check(out, kind or self.kind)
        return out

    def fill(self) -> dict:
        """resweep set-up: a cold jobs=2 sweep whose cache file passes copy."""
        out = self.spawn(self.spec(cold=True, jobs=2), "sweep")
        if self.reference is None:
            self.reference = out["cells"]
            self.cache_src = out["spec"]["cache_path"]
        return out

    # -- correctness gate --------------------------------------------------

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(message)

    def witness_ok(self, record: list) -> bool:
        g6, k, value, _, colors, _, _ = record
        if colors is None:
            return False
        mopar = self.mopar
        coloring = mopar.EdgeColoring(tuple(colors), len(set(colors)))
        return mopar.verify_certificate(
            mopar.graph6_decode(g6), coloring, k, value
        ).ok

    def check(self, out: dict, kind: str) -> None:
        if kind == "hunt":
            # one cell per member
            solved = [cell["results"][0][0] for cell in out["cells"]]
            if self.hunt_members is None:
                self.hunt_members = solved
            elif solved != self.hunt_members:
                self.fail(len(solved), "passes solved different hunt members")
            self.attempted += len(solved)
            for cell in out["cells"]:
                record, verified = cell["results"][0], cell["verified"]
                if record[2] > self.hunt["floor"]:
                    self.fail(1, f"{record[0]}: value {record[2]} above the floor")
                elif not (verified and self.witness_ok(record)):
                    self.fail(1, f"{record[0]}: witness does not verify")
            return
        for index, (cell, (n, k, value, size)) in enumerate(
            zip(out["cells"], self.cells)
        ):
            results = cell["results"]
            self.attempted += len(results)
            if (cell["value"], cell["complete"], cell["verified"], len(results)) != (
                value, True, True, size
            ):
                self.fail(len(results) or size,
                          f"({n},{k}): value {cell['value']}, complete "
                          f"{cell['complete']}, verified {cell['verified']}, "
                          f"{len(results)} members")
                continue
            if kind == "resweep":
                # the reference was verified member by member when it was made
                wanted = self.reference[index]["results"]
                for got, cold in zip(results, wanted):
                    if got[:5] != cold[:5]:
                        self.fail(1, f"({n},{k}) {got[0]}: differs from the cold sweep")
                continue
            for record in results:
                if record[3] != "EXACT" or not self.witness_ok(record):
                    self.fail(1, f"({n},{k}) {record[0]}: not a verified EXACT result")


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    setups: list[float] = []
    if run.kind == "resweep":
        for _ in range(MIN_SETUPS):
            out = run.fill()
            setups.append(out["setup_s"] + out["wall_s"])
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        out = run.spawn(run.spec())
        passes.append(out)
        if run.kind != "resweep":
            setups.append(out["setup_s"])
    while len(setups) < MIN_SETUPS:
        setups.append(run.spawn(run.spec(setup_only=True))["setup_s"])

    wall = statistics.median([p["wall_s"] for p in passes])
    fresh_ms = sorted(
        record[5] * cell["scale"]
        for p in passes if run.kind != "resweep"
        for cell in p["cells"] for record in cell["results"]
    )
    if fresh_ms:
        member_ms = statistics.median(fresh_ms)
    else:
        # a resweep solves no member afresh: report its time per member
        member_ms = 1000.0 * statistics.median([p["wall_s"] / p["members"] for p in passes])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median([p["cpu_s"] for p in passes]), "s"),
        "member_ms.p50": (member_ms, "ms"),
        "peak_rss_mb": (statistics.median([p["peak_rss_mb"] for p in passes]), "MB"),
    }
    detail = {
        "passes": len(passes),
        "setups": len(setups),
        "wall_s_per_pass": [p["wall_s"] for p in passes],
        "raw_wall_s_per_pass": [p["raw_wall_s"] for p in passes],
        "speed_per_pass": [p["speed"] for p in passes],
    }
    # the highest percentile with at least ten samples beyond it
    if len(fresh_ms) >= 200:
        detail["member_ms.p95"] = {
            "value": statistics.quantiles(fresh_ms, n=20)[-1], "unit": "ms"}
    detail["member_ms.samples"] = len(fresh_ms)
    return metrics, detail


def trace(run: Run) -> tuple[dict, dict]:
    sys.path.insert(0, str(HERE))
    from tracer import layer_metrics, load_spans

    if run.kind == "resweep":
        run.fill()
    untraced = run.spawn(run.spec())
    base = untraced if run.jobs == 1 else run.spawn(run.spec(jobs=1))
    traced = run.spawn(run.spec(jobs=1, trace=True))
    metrics = layer_metrics(
        load_spans(traced["spec"]["trace_path"]), traced["members"],
        traced["wall_s"] / traced["raw_wall_s"])
    # the worker processes' CPU over what `jobs` of them could have used;
    # with jobs=1 the benchmark's own worker process is the only worker
    busy = untraced["cpu_children"] if run.jobs > 1 else untraced["cpu_self"]
    metrics["runner.pool.busy_ratio"] = (
        busy / (run.jobs * untraced["raw_wall_s"]), "ratio")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / base["wall_s"], "ratio")
    detail = {"untraced_wall_s": base["wall_s"], "traced_wall_s": traced["wall_s"],
              "traced_members": traced["members"]}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cells, for the determinism test")
    args = parser.parse_args(argv)

    # a terminated run still ends its pass and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(HERE))
    from worker import import_mopar

    mopar = import_mopar()
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        run = Run(mopar, WORKLOADS[args.workload], args.smoke, tmp)
        if args.trace:
            metrics, detail = trace(run)
        else:
            metrics, detail = measure(run, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    detail.update(
        workload=args.workload, seed=args.seed, smoke=args.smoke,
        failed_ratio=run.failed / run.attempted if run.attempted else 1.0,
        errors=run.errors,
    )
    if run.kind == "hunt":
        detail["hunt_members"] = run.hunt_members
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
