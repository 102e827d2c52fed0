#!/usr/bin/env python3
"""Resumable order-15 sweep for 5-matchings: the heavy, opt-in computation.

One pass solves every member as a complete search above 18 colors, so
each comes back EXACT (a verified witness with 19 or more colors) or
proved to admit at most 18.  The class value is 19 once every member is
settled and some member reaches 19; one sampled member has ar = 19 while
its greedy seed reaches only 18, so a floor of 19 would not witness it.
Every settled result is cached, so interrupted runs resume where they
stopped.  At floor 18, 8 sampled members took 57-203 k nodes and
0.7-2.7 s each (mean 2.0 s) on a shared 2-vCPU 2.1 GHz Xeon, so a full
pass over the 24,834 members is 10-14 core-hours.  `mop ar-class --n 15
--k 5 --floor 18 --extended --cache <file> --jobs <N>` runs the same pass
in a process pool.  Exit code 0 means the class value was computed
exactly; 2 means the run is still incomplete (re-run to continue).

Example:
    python scripts/run_extended.py --cache extended-15-5.jsonl \
        --report report-15-5.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mopar.runner import Limits, ResultCache, ar_class, verify_class_result

N, K, FLOOR, EXPECTED = 15, 5, 18, 19


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache", type=Path, required=True)
    parser.add_argument("--budget-ms", type=float, default=20_000.0,
                        help="per-graph wall budget; a member it stops stays "
                        "unsolved (sampled members took at most 2.7 s)")
    parser.add_argument("--budget-nodes", type=int, default=None)
    parser.add_argument("--report", type=Path, default=None)
    args = parser.parse_args()

    cache = ResultCache(args.cache)
    print(f"cache: {len(cache.entries)} entries at {args.cache}", flush=True)

    t0 = time.time()
    limits = Limits(max_nodes=args.budget_nodes, max_millis=args.budget_ms)
    sweep = ar_class(
        N, K, limits=limits, cache=cache, audit_fraction=0.0, floor=FLOOR
    )
    verified = verify_class_result(sweep)
    print(
        f"sweep: value={sweep.value} complete={sweep.complete} "
        f"verified={verified} unsolved={len(sweep.unsolved)}/"
        f"{len(sweep.results)} in {time.time() - t0:.0f}s",
        flush=True,
    )
    if sweep.unsolved:
        print("unsolved members (first 20):", flush=True)
        for g6 in sweep.unsolved[:20]:
            print(f"  {g6}", flush=True)

    if args.report:
        payload = {
            "n": N, "k": K, "floor": FLOOR,
            "value": sweep.value, "complete": sweep.complete,
            "verified": verified,
            "unsolved": sweep.unsolved,
            "argmax": sweep.argmax,
        }
        args.report.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"report written to {args.report}", flush=True)

    if not verified or (sweep.complete and sweep.value != EXPECTED):
        print(f"FAILED: expected a verified class value {EXPECTED}", flush=True)
        return 1
    if sweep.complete:
        print(f"EXACT: ar over the order-15 class is {sweep.value}", flush=True)
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
