"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec says what to set up and what to time (see `run.py`, which builds
it).  Set-up ends at `t_setup`, a `time.perf_counter()` reading; on Linux
that is the system-wide monotonic clock, so the parent can subtract its
own spawn time from it.  The timed part runs under a `SpeedSampler`.  The
last line of standard output is one JSON object with the timings, the
processor speed, resource usage and every member result.
"""

from __future__ import annotations

import glob
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# One calibration loop is fixed pure-Python work that allocates, hashes and
# frees small tuples and sets, as the solver does; a loop of arithmetic
# alone slows less than the solver when the host is busy.  Its reference
# CPU time is what it takes on an otherwise idle core of the 2-vCPU Xeon
# (2.1 GHz) virtual machine the benchmark was defined on.
CALIBRATION_ITERATIONS = 1200
CALIBRATION_REFERENCE_S = 0.001
SAMPLE_INTERVAL_S = 0.1


def calibration_loop() -> float:
    """CPU seconds this thread takes for the fixed calibration work."""
    start = time.thread_time()
    table = {}
    for i in range(CALIBRATION_ITERATIONS):
        key = tuple(range(i % 13, i % 13 + 8))
        table[key] = {i, i + 1, i * 3}
        probe = list(key)
        probe[i % 8] = i
        table.pop(tuple(probe), None)
    return time.thread_time() - start


class SpeedSampler:
    """Samples the processor's speed while the timed part runs.

    Shared cores change speed for seconds at a time, by up to half.  Every
    SAMPLE_INTERVAL_S of wall time a signal handler runs one calibration
    loop between two bytecodes of the timed code, on the same core.  Pool
    workers forked during the run sample their own cores the same way and
    append each sample to a file named `child_prefix` plus their pid.  Over
    a stretch of the run, the mean of reference/measured loop time is the
    speed relative to the reference; the stretch's wall time less the time
    one process spent sampling, times that speed, is its time at the
    reference speed.
    """

    def __init__(self, child_prefix: str):
        self.child_prefix = child_prefix
        self.child_fd: int | None = None
        # (pid, wall start, wall end, CPU seconds of the loop)
        self.samples: list[tuple[int, float, float, float]] = []
        os.register_at_fork(after_in_child=self._start_in_child)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        cpu = calibration_loop()
        sample = (os.getpid(), start, time.perf_counter(), cpu)
        self.samples.append(sample)
        if self.child_fd is not None:
            os.write(self.child_fd, (json.dumps(sample) + "\n").encode())

    def _start_in_child(self) -> None:
        self.samples = []
        self.child_fd = os.open(
            f"{self.child_prefix}{os.getpid()}",
            os.O_WRONLY | os.O_CREAT | os.O_APPEND,
        )
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def __enter__(self) -> SpeedSampler:
        # one sample at each end, so that a short stretch has a near one
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)
        for path in glob.glob(glob.escape(self.child_prefix) + "*"):
            with open(path) as handle:
                self.samples += [tuple(json.loads(line)) for line in handle]

    def reference_time(self, start: float, end: float) -> tuple[float, float]:
        """(time at the reference speed, sampling time) of [start, end)."""
        inside = [s for s in self.samples if start <= s[1] < end]
        processes = len({s[0] for s in inside}) or 1
        spent = sum(s[2] - s[1] for s in inside) / processes
        if not inside:
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[1] - middle))]
        speed = statistics.fmean(CALIBRATION_REFERENCE_S / s[3] for s in inside)
        return (end - start - spent) * speed, spent


def import_mopar():
    """Import mopar from the checkout's src/, never from anywhere else."""
    if not (SRC / "mopar" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mopar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mopar
    import mopar.graphs
    import mopar.rainbow
    import mopar.runner
    import mopar.solver

    if Path(mopar.__file__).resolve().parent != SRC / "mopar":
        raise SystemExit(f"perfbench: imported mopar from {mopar.__file__}")
    return mopar


def result_record(r) -> list:
    """[graph6, k, value, mode, witness colors, elapsed_ms, nodes]"""
    colors = None if r.witness is None else list(r.witness.colors)
    return [r.graph6, r.k, r.value, r.mode, colors, r.elapsed_ms, r.nodes]


def usage() -> tuple[float, float, float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        me.ru_utime + me.ru_stime,
        kids.ru_utime + kids.ru_stime,
        me.ru_maxrss / 1024.0,
        kids.ru_maxrss / 1024.0,
    )


def main(spec: dict) -> dict:
    mopar = import_mopar()
    sys.path.insert(0, str(HERE))
    tracer = None
    if spec.get("trace_path"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(mopar)

    # set-up
    hunt = spec.get("hunt")
    members = []
    if hunt is not None:
        from inputs import draw_members

        members = draw_members(
            mopar.graphs, hunt["n"], hunt["count"], hunt["sample_seed"]
        )
    if spec.get("cache_src"):
        shutil.copyfile(spec["cache_src"], spec["cache_path"])
    t_setup = time.perf_counter()
    # the processor's speed just after set-up, to scale the set-up time
    setup_speed = statistics.fmean(
        CALIBRATION_REFERENCE_S / calibration_loop() for _ in range(10)
    )
    out = {"t_setup": t_setup, "setup_speed": setup_speed}
    if spec.get("setup_only"):
        return out

    # timed part; the sampler scales each cell (hunt: each member) by itself
    t_ready = time.perf_counter()
    before = usage()
    with SpeedSampler(spec["samples_prefix"]) as sampler:
        cells = timed_part(mopar, spec, members)
    t_done = time.perf_counter()
    after = usage()

    if tracer is not None:
        tracer.dump(spec["trace_path"])
    raw_wall = t_done - t_ready
    bounds = [t_ready]
    for cell in cells:
        start, end = cell.pop("span")
        seconds, _ = sampler.reference_time(start, end)
        cell["scale"] = seconds / (end - start)
        bounds += [start, end]
    bounds.append(t_done)
    # the cells plus the gaps around them: opening the cache, the end samples
    stretches = [sampler.reference_time(a, b) for a, b in zip(bounds, bounds[1:])]
    wall = sum(seconds for seconds, _ in stretches)
    spent = sum(sampling for _, sampling in stretches)
    cpu = (after[0] - before[0]) + (after[1] - before[1])
    sampling_cpu = sum(sample[3] for sample in sampler.samples)
    speed = wall / (raw_wall - spent)  # mean over the pass
    out.update(
        raw_wall_s=raw_wall,
        wall_s=wall,
        cpu_s=(cpu - sampling_cpu) * speed,
        speed=speed,
        cpu_self=after[0] - before[0],
        cpu_children=after[1] - before[1],
        peak_rss_mb=max(after[2], after[3]),
        cells=cells,
    )
    return out


def timed_part(mopar, spec: dict, members: list) -> list[dict]:
    hunt = spec.get("hunt")
    cells = []
    if hunt is not None:
        k, floor = hunt["k"], hunt["floor"]
        for _, g in members:
            start = time.perf_counter()
            r = mopar.solver.ar_exact(g, k, floor=floor)
            verified = (
                r.witness is not None
                and mopar.rainbow.verify_certificate(g, r.witness, k, r.value).ok
            )
            cells.append({"results": [result_record(r)], "verified": verified,
                          "span": (start, time.perf_counter())})
    else:
        cache = mopar.runner.ResultCache(spec["cache_path"])
        for n, k in spec["cells"]:
            start = time.perf_counter()
            res = mopar.runner.ar_class(n, k, jobs=spec["jobs"], cache=cache)
            cells.append({
                "n": n, "k": k, "value": res.value, "complete": res.complete,
                "results": [result_record(r) for r in res.results],
                "verified": mopar.runner.verify_class_result(res),
                "span": (start, time.perf_counter()),
            })
    return cells


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
