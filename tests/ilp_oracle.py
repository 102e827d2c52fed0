"""ar(G, M_k) by integer programming, independent of the solver's search.

The model is clique partitioning (Grötschel and Wakabayashi, 1989) over
the edges of G: a binary z_ef for each edge pair e < f, 1 when e and f
share a class, with the three triangle inequalities of each edge triple
making "share a class" an equivalence.  A coloring has no rainbow
k-matching when each k-matching has a pair with z = 1.  A binary r_e may
be 1 only when no f < e shares e's class, so r_e marks the least edge of
each class and sum r_e is the number of colors, which the program
maximizes.  The k-matchings are the filtered k-subsets of
`oracles.k_matchings_by_filter`, and HiGHS (through `scipy.optimize.milp`)
does the search, an LP-based branch and cut that shares nothing with
`mopar.solver`.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from mopar.graphs import Graph
from oracles import k_matchings_by_filter

# a checkout without scipy skips every test that imports this module
np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")


def _solve(g: Graph, k: int, least: int | None):
    """HiGHS's result for the model, maximizing sum r_e, with
    sum r_e >= least + 1 added when `least` is given."""
    m = g.edge_count
    pair = {p: i for i, p in enumerate(combinations(range(m), 2))}
    r = len(pair)  # r_e is variable r + e
    rows, cols, vals, lower, upper = [], [], [], [], []

    def constrain(terms, lo, hi):
        row = len(lower)
        for col, val in terms:
            rows.append(row)
            cols.append(col)
            vals.append(val)
        lower.append(lo)
        upper.append(hi)

    for e, f, h in combinations(range(m), 3):
        ef, eh, fh = pair[e, f], pair[e, h], pair[f, h]
        for x, y, z in ((ef, fh, eh), (ef, eh, fh), (eh, fh, ef)):
            constrain([(x, 1), (y, 1), (z, -1)], -np.inf, 1)
    for matching in k_matchings_by_filter(g, k):
        constrain([(pair[p], 1) for p in combinations(matching, 2)], 1, np.inf)
    for (f, e), i in pair.items():
        constrain([(r + e, 1), (i, 1)], -np.inf, 1)
    if least is not None:
        constrain([(r + e, 1) for e in range(m)], least + 1, np.inf)

    size = r + m
    cost = np.zeros(size)
    cost[r:] = -1
    matrix = sparse.coo_array((vals, (rows, cols)), shape=(len(lower), size))
    return optimize.milp(
        cost,
        constraints=optimize.LinearConstraint(matrix.tocsr(), lower, upper),
        integrality=np.ones(size),
        bounds=optimize.Bounds(0, 1),
    )


def ar_ilp(g: Graph, k: int) -> int:
    """ar(G, M_k), the most colors of a coloring with no rainbow
    k-matching."""
    result = _solve(g, k, None)
    assert result.status == 0, result.message
    return round(-result.fun)


def exceeds(g: Graph, k: int, floor: int) -> bool:
    """Whether some coloring with more than `floor` colors has no rainbow
    k-matching: the model with sum r_e >= floor + 1 is feasible."""
    result = _solve(g, k, floor)
    assert result.status in (0, 2), result.message  # 2: infeasible
    return result.status == 0
