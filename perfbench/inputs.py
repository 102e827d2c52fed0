"""Seeded inputs for the benchmark workloads.

The hunt workload solves random members of the order-15 class.  A member is
drawn the way `mopar.mops.enumerate_triangulations` builds every
triangulation: root at polygon edge {0, 1}, pick the apex of the triangle
on the current chain's base, and recurse into the two sub-chains.  Here
each apex is drawn at random instead of looped over.  Each draw is then
relabeled canonically, as `ar_class` does with its members, and repeated
classes are skipped.
"""

from __future__ import annotations

import random


def random_triangulation_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edge list (outer cycle, then diagonals) of a random n-gon triangulation."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    chains = [tuple(range(1, n)) + (0,)]
    while chains:
        chain = chains.pop()
        m = len(chain)
        if m == 2:
            continue
        t = rng.randrange(1, m - 1)
        if t > 1:
            edges.append((chain[0], chain[t]))
        if t < m - 2:
            edges.append((chain[t], chain[-1]))
        chains.append(chain[: t + 1])
        chains.append(chain[t:])
    return edges


def draw_members(mopar_graphs, n: int, count: int, seed: int) -> list:
    """`count` distinct canonically relabeled MOPs of order n, drawn from seed.

    `mopar_graphs` is the `mopar.graphs` module; `canonical_form` is looked
    up on it at call time so a traced run sees the calls.
    """
    rng = random.Random(seed)
    seen: set[str] = set()
    members = []
    while len(members) < count:
        g = mopar_graphs.Graph.from_edges(n, random_triangulation_edges(n, rng))
        form = mopar_graphs.canonical_form(g)
        if form.graph6 in seen:
            continue
        seen.add(form.graph6)
        members.append((form.graph6, g.relabel(form.permutation)))
    return members
