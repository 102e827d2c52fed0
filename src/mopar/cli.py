"""Command line front end.

Exit codes: 0 all checks pass, 1 a violation, a verification failure or
a usage error, 2 a node budget left the computation incomplete.  `ar` and
`ar-class` share one rule, `_exit_code`: a failure outranks an
incomplete result, over every cell of an `ar-class` range sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from itertools import chain

from .graphs import Graph6Error, graph6_decode
from .mops import enumerate_mops, enumerate_triangulations
from .rainbow import certificate_from_json, verify_certificate
from .runner import (
    VIOLATED,
    CacheMismatch,
    ResultCache,
    UnverifiedColoring,
    ar_class,
    check_sweep,
    evaluate_bounds,
    table_cells,
    verify_class_result,
    verify_result,
)
from .solver import EXACT, ar_exact

PASS, FAIL, INCOMPLETE = 0, 1, 2

TRIANGULATION_FORMAT_HEADER = "# polygon-triangulation-format 1"


def triangulation_text(n: int, diagonals: tuple[tuple[int, int], ...]) -> str:
    """One line "n: a-b,c-d,...", or "n:" for the triangle."""
    body = ",".join(f"{a}-{b}" for a, b in diagonals)
    return f"{n}: {body}" if body else f"{n}:"


def _exit_code(ok: bool, complete: bool) -> int:
    if not ok:
        return FAIL
    return PASS if complete else INCOMPLETE


def _violated(bounds: dict) -> bool:
    """A bound check with a VIOLATED verdict."""
    return VIOLATED in (bounds["lower_verdict"], bounds["upper_verdict"])


def _parse_range(text: str) -> tuple[int, int]:
    """`A..B`, or `A` for `A..A`; a reversed range holds no cell, which
    `check_sweep` rejects."""
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    return int(lo), int(hi)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.labeled:
        tris = enumerate_triangulations(args.n)
        first = next(tris)  # a refused order raises here, before any output
        if args.count_only:
            print(1 + sum(1 for _ in tris))
            return PASS
        print(TRIANGULATION_FORMAT_HEADER)
        for diagonals in chain((first,), tris):
            print(triangulation_text(args.n, diagonals))
        return PASS
    names = enumerate_mops(args.n)
    if args.count_only:
        print(len(names))
        return PASS
    print(*names, sep="\n")
    return PASS


def _cmd_ar(args: argparse.Namespace) -> int:
    g = graph6_decode(args.graph)
    result = ar_exact(g, args.k, max_nodes=args.budget_nodes)
    print(result.dumps())
    return _exit_code(verify_result(result, g), result.mode == EXACT)


def _cmd_ar_class(args: argparse.Namespace) -> int:
    cells = table_cells(args.n, args.k)
    # a bad option, then an unwritable --out, fails before a large cache
    # is read and verified; open's OSError names the path.  --out is
    # opened once, for appending, and emptied only once the cache has
    # opened, so a bad --cache leaves an existing file as it was; a pipe
    # or a device is written as it is
    check_sweep(
        cells, max_nodes=args.budget_nodes, jobs=args.jobs, floor=args.floor
    )
    # a pool forks one process per job
    if args.jobs > (cpus := os.cpu_count() or 1):
        raise ValueError(f"--jobs {args.jobs} exceeds the CPU count, {cpus}")
    for option, path in (("--out", args.out), ("--cache", args.cache)):
        if path == "":
            raise ValueError(f"{option} names no file: its path is empty")
    ok = complete = True
    with open(args.out, "a") if args.out else nullcontext() as out:
        cache = ResultCache(args.cache) if args.cache else None
        # both files now exist, so any spelling or link of one is caught
        if out and cache and os.path.samefile(args.out, args.cache):
            raise ValueError(f"--out and --cache name the same file, {args.cache}")
        if out and os.path.isfile(args.out):
            out.truncate(0)
        for n, k in cells:
            result = ar_class(
                n, k, max_nodes=args.budget_nodes, jobs=args.jobs,
                cache=cache, floor=args.floor,
            )
            summary = {
                "n": result.n,
                "k": result.k,
                "value": result.value,
                "complete": result.complete,
                "verified": verify_class_result(result),
                "argmax_count": len(result.argmax),
                "unsolved_count": len(result.unsolved),
                "bounds": evaluate_bounds(
                    result.n, result.k, result.value, result.complete
                ).to_json(),
                # solve times, not wall time: a warm cache reprints them
                "elapsed_ms": round(
                    sum(r.elapsed_ms for r in result.results), 3
                ),
            }
            if out:
                out.write(json.dumps(result.to_json(), sort_keys=True) + "\n")
                summary["out"] = args.out
            print(json.dumps(summary, sort_keys=True))
            ok = ok and summary["verified"] and not _violated(summary["bounds"])
            complete = complete and result.complete
    return _exit_code(ok, complete)


def _cmd_verify(args: argparse.Namespace) -> int:
    with open(args.cert) as handle:
        data = json.load(handle)
    graph6, k, coloring = certificate_from_json(data)
    outcome = verify_certificate(
        graph6_decode(graph6), coloring, k, coloring.num_colors
    )
    print(json.dumps({"ok": outcome.ok, "reason": outcome.reason}))
    return PASS if outcome.ok else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mop",
        description="Anti-Ramsey numbers of matchings in maximal outerplanar graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list maximal outerplanar graphs of order n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument(
        "--labeled", action="store_true",
        help="emit every labeled polygon triangulation in the text format",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("ar", help="exact ar(G, M_k) for one graph6 graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget-nodes", type=int, default=None)
    p.set_defaults(func=_cmd_ar)

    p = sub.add_parser(
        "ar-class", help="ar over all MOPs of order n, for one (n, k) or ranges"
    )
    p.add_argument("--n", type=_parse_range, required=True,
                   help="an order, or a range A..B")
    p.add_argument("--k", type=_parse_range, required=True,
                   help="a matching size, or a range C..D")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cache", default=None)
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--floor", type=int, default=0,
                   help="search each member only above this many colors; "
                   "complete only if the class value reaches it")
    p.add_argument("--out", default=None,
                   help="write each cell's full per-graph JSON here, one line per cell")
    p.set_defaults(func=_cmd_ar_class)

    p = sub.add_parser("verify", help="check a coloring certificate file")
    p.add_argument("--cert", required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error; its own exit code, 2,
        # would read as INCOMPLETE.  --help exits 0 as usual.
        if exc.code == 0:
            raise
        return FAIL
    try:
        return args.func(args)
    except Graph6Error as exc:
        print(f"graph6 error: {exc}", file=sys.stderr)
        return FAIL
    except CacheMismatch as exc:
        print(f"cache mismatch: {exc}", file=sys.stderr)
        return FAIL
    except UnverifiedColoring as exc:
        print(f"witness failure: {exc}", file=sys.stderr)
        return FAIL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
