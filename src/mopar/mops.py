"""Maximal outerplanar graphs as polygon triangulations.

A maximal outerplanar graph (MOP) of order n >= 3 is a triangulation of
the convex n-gon, so labeled enumeration is the Catalan recursion and
isomorphism collapses to the dihedral action on the polygon (the outer
Hamiltonian cycle is unique for n >= 4), keyed by quiddity sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import Graph, canonical_form, bipartition_of

MAX_ENUM_N = 16
MAX_CORPUS_N = 9

TRIANGULATION_FORMAT_HEADER = "# polygon-triangulation-format 1"


@dataclass(frozen=True)
class Triangulation:
    """Triangulation of the convex polygon 0..n-1, stored as its diagonal set."""

    n: int
    diagonals: tuple[tuple[int, int], ...]

    def graph(self) -> Graph:
        cycle = [(i, (i + 1) % self.n) for i in range(self.n)]
        return Graph.from_edges(self.n, cycle + list(self.diagonals))

    def text(self) -> str:
        """One-line text form "n: i-j,i-j,..." (no diagonals for n=3)."""
        body = ",".join(f"{a}-{b}" for a, b in self.diagonals)
        return f"{self.n}: {body}" if body else f"{self.n}:"


def enumerate_triangulations(n: int) -> Iterator[Triangulation]:
    """Every triangulation of the convex n-gon exactly once (Catalan(n-2) total).

    Recursion roots at polygon edge {0,1}: choose the apex of the triangle
    on that edge, then triangulate the two sub-chains.  No deduplication is
    needed; distinct apex choices give distinct diagonal sets.
    """
    if not 3 <= n <= MAX_ENUM_N:
        raise ValueError(f"polygon size {n} outside 3..{MAX_ENUM_N}")

    def chords(chain: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        # chain is a run of polygon vertices; its first-last pair is the base
        # edge, already present.  Adjacent chain entries are polygon edges.
        m = len(chain)
        if m == 2:
            yield ()
            return
        for t in range(1, m - 1):
            new = []
            if t > 1:
                a, b = chain[0], chain[t]
                new.append((a, b) if a < b else (b, a))
            if t < m - 2:
                a, b = chain[t], chain[-1]
                new.append((a, b) if a < b else (b, a))
            for left in chords(chain[: t + 1]):
                for right in chords(chain[t:]):
                    yield tuple(new) + left + right

    base_chain = tuple(range(1, n)) + (0,)
    for diag in chords(base_chain):
        yield Triangulation(n, tuple(sorted(diag)))


def _dihedral_key(n: int, diagonals: Iterable[tuple[int, int]]) -> tuple:
    """Least rotation or reversal of the quiddity sequence.

    The quiddity sequence counts the triangles at each polygon vertex (1
    plus the diagonals ending there) and determines the triangulation
    (Conway and Coxeter, 1973), so two triangulations share a key exactly
    when a rotation or reflection of the polygon maps one onto the other.
    """
    quiddity = [1] * n
    for a, b in diagonals:
        quiddity[a] += 1
        quiddity[b] += 1
    forward = quiddity + quiddity
    backward = forward[::-1]
    return tuple(min(w[r:r + n] for w in (forward, backward) for r in range(n)))


def enumerate_mops(n: int) -> list[Graph]:
    """One representative per isomorphism class of maximal outerplanar graphs.

    Representatives keep the polygon labeling (vertices 0..n-1 in outer-cycle
    order), taken from the first triangulation found in each dihedral class.
    """
    seen = set()
    out = []
    for tri in enumerate_triangulations(n):
        key = _dihedral_key(n, tri.diagonals)
        if key not in seen:
            seen.add(key)
            out.append(tri.graph())
    return out


# ---------------------------------------------------------------------------
# bipartite outerplanar corpus
# ---------------------------------------------------------------------------

def bipartite_outerplanar_corpus(n_max: int) -> Iterator[Graph]:
    """Every bipartite outerplanar graph of order 2..n_max, once per iso class.

    Every outerplanar graph of order n is a spanning subgraph of some MOP of
    order n, so the corpus is the bipartite edge subsets of all MOPs,
    deduplicated by canonical form.  A labeled subgraph that an earlier
    host or subset already gave is skipped before any of that work.
    Disconnected graphs and isolated vertices are included.
    """
    if not 2 <= n_max <= MAX_CORPUS_N:
        raise ValueError(f"corpus bound {n_max} outside 2..{MAX_CORPUS_N}")
    for n in range(2, n_max + 1):
        if n == 2:
            hosts = [Graph.from_edges(2, [(0, 1)])]
        else:
            hosts = enumerate_mops(n)
        seen: set[str] = set()
        labeled: set[tuple[int, ...]] = set()
        for host in hosts:
            m = host.edge_count
            for subset in range(1 << m):
                sub = host.spanning_subgraph(
                    [i for i in range(m) if subset >> i & 1]
                )
                if sub.adj in labeled:
                    continue
                labeled.add(sub.adj)
                if bipartition_of(sub) is None:
                    continue
                key = canonical_form(sub).graph6
                if key not in seen:
                    seen.add(key)
                    yield sub
