"""Graph constructions that only tests use.

`side_checks` builds its corpus with `spanning_subgraph`, so these live
apart from `oracles`, which imports `side_checks`.
"""

from __future__ import annotations

from typing import Iterable

from mopar.graphs import Graph
from mopar.mops import Triangulation


def spanning_subgraph(g: Graph, edge_indices: Iterable[int]) -> Graph:
    """Subgraph on the same vertex set keeping only the given edges."""
    return Graph.from_edges(g.n, [g.edges[i] for i in edge_indices])


def triangulation_graph(tri: Triangulation) -> Graph:
    """The polygon's outer cycle plus the triangulation's diagonals."""
    cycle = [(i, (i + 1) % tri.n) for i in range(tri.n)]
    return Graph.from_edges(tri.n, cycle + list(tri.diagonals))
