#!/usr/bin/env python3
"""Resumable order-15 sweep for 5-matchings: the heavy, opt-in computation.

Strategy: first certify the lower direction (some member admitting 19
colors with no rainbow 5-matching), then grind the full class with a
per-graph budget, caching every EXACT result so interrupted runs resume
where they stopped.  Exit code 0 means the class value was computed
exactly; 2 means the run is still incomplete (re-run to continue).

Example:
    python scripts/run_extended.py --cache extended-15-5.jsonl \
        --budget-ms 120000 --report report-15-5.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mopar.graphs import graph6_decode
from mopar.rainbow import verify_certificate
from mopar.runner import Limits, ResultCache, ar_class
from mopar.solver import EXACT

N, K, TARGET = 15, 5, 19


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache", type=Path, required=True)
    parser.add_argument("--budget-ms", type=float, default=20_000.0,
                        help="per-graph wall budget; most order-15 members "
                        "need more than the default to solve exactly, so a "
                        "pass takes about 25k times the budget and leaves "
                        "those members unsolved")
    parser.add_argument("--budget-nodes", type=int, default=None)
    parser.add_argument("--report", type=Path, default=None)
    parser.add_argument("--skip-hunt", action="store_true",
                        help="go straight to the full sweep")
    args = parser.parse_args()

    cache = ResultCache(args.cache)
    print(f"cache: {len(cache.entries)} entries at {args.cache}", flush=True)

    witness_line = None
    if not args.skip_hunt:
        t0 = time.time()
        hunt = ar_class(N, K, limits=Limits(target_value=TARGET), cache=cache)
        top = max(hunt.results, key=lambda r: r.value)
        ok = verify_certificate(
            graph6_decode(top.graph6), top.witness, K, top.value
        ).ok
        witness_line = {
            "graph": top.graph6, "value": top.value, "verified": ok,
        }
        print(
            f"lower direction: {top.value} colors on {top.graph6} "
            f"(verified={ok}) in {time.time() - t0:.1f}s",
            flush=True,
        )
        if top.value < TARGET or not ok:
            print("FAILED to certify the lower direction", flush=True)
            return 1

    t0 = time.time()
    limits = Limits(max_nodes=args.budget_nodes, max_millis=args.budget_ms)
    sweep = ar_class(N, K, limits=limits, cache=cache, audit_fraction=0.0)
    elapsed = time.time() - t0
    solved = sum(1 for r in sweep.results if r.mode == EXACT)
    print(
        f"sweep: value={sweep.value} complete={sweep.complete} "
        f"solved={solved}/{solved + len(sweep.unsolved)} in {elapsed:.0f}s",
        flush=True,
    )
    if sweep.unsolved:
        print("unsolved members (first 20):", flush=True)
        for g6 in sweep.unsolved[:20]:
            print(f"  {g6}", flush=True)

    if args.report:
        payload = {
            "n": N, "k": K, "target": TARGET,
            "value": sweep.value, "complete": sweep.complete,
            "witness": witness_line,
            "unsolved": sweep.unsolved,
            "argmax": sweep.argmax,
        }
        args.report.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"report written to {args.report}", flush=True)

    if sweep.complete:
        assert sweep.value == TARGET, f"class value {sweep.value} != {TARGET}"
        print(f"EXACT: ar over the order-15 class is {sweep.value}", flush=True)
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
