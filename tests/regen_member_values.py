"""Regenerate the floor-0 node and witness pins of member_values.json.

A change that moves floor-0 search trees on purpose, such as a new edge
order, changes every node count and many witnesses, but must leave every
value and upper as it was.  Run from the repository root:

    PYTHONPATH=src python tests/regen_member_values.py

The script re-solves every member of each pinned cell at floor 0 and at
floor n + k - 2.  It writes nothing, and exits 1, unless every floor-0
result is EXACT at its pinned value, every upper at floor n + k - 2 equals
its pin, and every witness verifies on the member's graph.  Otherwise it
rewrites only "nodes_at_floor_0" and "witness_sha256_at_floor_0", in the
file's own layout, and prints each cell's node total before and after.
It is not a test (pytest does not collect it).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from mopar.graphs import graph6_decode
from mopar.rainbow import verify_certificate
from mopar.runner import _class_members
from mopar.solver import EXACT, ar_exact

MEMBER_VALUES = Path(__file__).resolve().parent / "member_values.json"


def layout(pinned: dict) -> str:
    """member_values.json's text: one line per cell."""
    sections = []
    for name, cells in pinned.items():
        rows = ",\n".join(
            f"    {json.dumps(cell)}: {json.dumps(pin)}"
            for cell, pin in cells.items()
        )
        sections.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def problems_of_cell(cell: str, pinned: dict) -> tuple[list[str], list, str]:
    """Re-solve one cell: its mismatches, floor-0 node counts and digest."""
    n, k = map(int, cell.split(","))
    floor = n + k - 2
    values = pinned["values_at_floor_0"][cell]
    uppers = pinned["uppers_at_floor_n_plus_k_minus_2"][cell]
    problems = []
    solved = []
    for i, g6 in enumerate(_class_members(n)):
        g = graph6_decode(g6)
        full = ar_exact(g, k)
        near = ar_exact(g, k, floor=floor)
        if (full.value, full.mode) != (values[i], EXACT):
            problems.append(f"{cell} {g6}: {full.value} {full.mode}")
        if near.upper != uppers[i]:
            problems.append(f"{cell} {g6}: upper {near.upper} at {floor}")
        for r in (full, near):
            if not verify_certificate(g, r.witness, k, r.value).ok:
                problems.append(f"{cell} {g6}: witness fails at {r.upper}")
        solved.append(full)
    if len(solved) != len(values):
        problems.append(f"{cell}: {len(solved)} members, {len(values)} pinned")
    witnesses = json.dumps(
        [[r.value, r.upper, list(r.witness.colors)] for r in solved]
    )
    digest = hashlib.sha256(witnesses.encode()).hexdigest()
    return problems, [r.nodes for r in solved], digest


def main() -> int:
    pinned = json.loads(MEMBER_VALUES.read_text())
    nodes = pinned["nodes_at_floor_0"]
    digests = pinned["witness_sha256_at_floor_0"]
    problems = []
    for cell in pinned["values_at_floor_0"]:
        found, counts, digest = problems_of_cell(cell, pinned)
        problems += found
        print(f"{cell}: nodes {sum(nodes[cell]):,} -> {sum(counts):,}, "
              f"witnesses {'same' if digest == digests[cell] else 'changed'}")
        nodes[cell], digests[cell] = counts, digest
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(f"{len(problems)} problems; nothing written", file=sys.stderr)
        return 1
    MEMBER_VALUES.write_text(layout(pinned))
    return 0


if __name__ == "__main__":
    sys.exit(main())
