"""The paper's supporting facts, checked beside the claim path.

None of this produces or checks an ar value that a sweep claims:

* Tutte-Berge certificates for the matching number.  A certificate is a
  vertex set T attaining the min of (n - odd_components(G - T) + |T|) / 2,
  further required to leave only factor-critical odd components and
  perfectly matchable even components, so an independent checker needs
  nothing but component counting and perfect-matching tests.
* Bipartitions with the smaller side minimized, the bipartite outerplanar
  corpus and the edge bound e(G) <= n + |X| - 2 over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from graph_helpers import spanning_subgraph
from mopar.graphs import Graph, canonical_form, graph6_decode, iter_bits
from mopar.matchings import matching_number
from mopar.mops import enumerate_mops

CERTIFICATE_MAX_N = 14
MAX_CORPUS_N = 9


# ---------------------------------------------------------------------------
# Tutte-Berge certificates
# ---------------------------------------------------------------------------

def has_perfect_matching(g: Graph, within: int | None = None) -> bool:
    avail = g.vertex_mask if within is None else within
    size = avail.bit_count()
    if size % 2:
        return False
    # the vertices outside `avail` lose their edges, so a matching of the
    # rest is one inside `avail`
    inside = [row & avail if avail >> v & 1 else 0 for v, row in enumerate(g.adj)]
    return matching_number(Graph(g.n, inside)) == size // 2


def is_factor_critical(g: Graph, within: int | None = None) -> bool:
    """True iff deleting any single vertex leaves a perfect matching."""
    avail = g.vertex_mask if within is None else within
    if avail.bit_count() % 2 == 0:
        return False
    return all(
        has_perfect_matching(g, avail & ~(1 << v)) for v in iter_bits(avail)
    )


def components(g: Graph, avail: int) -> list[int]:
    """Vertex masks of the connected components inside `avail`, ascending by
    lowest vertex."""
    out = []
    todo = avail
    while todo:
        root = todo & -todo
        comp = root
        frontier = root
        while frontier:
            grown = comp
            for v in iter_bits(frontier):
                grown |= g.adj[v] & avail
            frontier = grown & ~comp
            comp = grown
        out.append(comp)
        todo &= ~comp
    return out


@dataclass(frozen=True)
class TutteBergeCertificate:
    """Vertex set T with o(G-T) odd components certifying the matching number."""

    t_mask: int
    odd_components: int
    value: int

    def to_json(self) -> dict:
        return {
            "T": list(iter_bits(self.t_mask)),
            "odd_components": self.odd_components,
            "value": self.value,
        }

    @staticmethod
    def from_json(data: dict) -> TutteBergeCertificate:
        t_mask = 0
        for v in data["T"]:
            t_mask |= 1 << v
        return TutteBergeCertificate(t_mask, data["odd_components"], data["value"])


def formula_value(g: Graph, t_mask: int) -> tuple[int, int]:
    """(odd component count of G-T, (n - o + |T|) / 2)."""
    comps = components(g, g.vertex_mask & ~t_mask)
    odd = sum(1 for c in comps if c.bit_count() % 2 == 1)
    return odd, (g.n - odd + t_mask.bit_count()) // 2


def certificate_is_valid(g: Graph, cert: TutteBergeCertificate) -> bool:
    """Recompute everything the certificate claims, plus the component tests."""
    if cert.t_mask & ~g.vertex_mask:
        return False
    odd, value = formula_value(g, cert.t_mask)
    if odd != cert.odd_components or value != cert.value:
        return False
    if value != matching_number(g):
        return False
    for comp in components(g, g.vertex_mask & ~cert.t_mask):
        if comp.bit_count() % 2 == 1:
            if not is_factor_critical(g, comp):
                return False
        elif not has_perfect_matching(g, comp):
            return False
    return True


def tutte_berge_certificate(g: Graph) -> TutteBergeCertificate:
    """Smallest T (by size, then lexicographic) attaining the matching number
    whose odd components are factor-critical and even components perfectly
    matchable.  Exhaustive over subsets, so g.n must stay small."""
    if g.n > CERTIFICATE_MAX_N:
        raise ValueError(f"certificate search limited to n <= {CERTIFICATE_MAX_N}")
    beta = matching_number(g)
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            t_mask = 0
            for v in subset:
                t_mask |= 1 << v
            odd, value = formula_value(g, t_mask)
            if value != beta:
                continue
            cert = TutteBergeCertificate(t_mask, odd, value)
            if certificate_is_valid(g, cert):
                return cert
    raise AssertionError("no valid certificate found; matching theory is broken")


# ---------------------------------------------------------------------------
# bipartite edge bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bipartition:
    """Proper 2-coloring with the smaller side first (|X| <= |Y|)."""

    x_mask: int
    y_mask: int

    @property
    def sizes(self) -> tuple[int, int]:
        return self.x_mask.bit_count(), self.y_mask.bit_count()


def bipartition_of(g: Graph) -> Bipartition | None:
    """Two-color g if bipartite, else None.

    Sides are chosen per component so that |X| is as small as possible;
    the per-component choices are independent, so putting each
    component's smaller color class into X is exactly optimal.  Isolated
    vertices therefore land in Y.
    """
    color = [-1] * g.n
    x_mask = 0
    y_mask = 0
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        side = [1 << root, 0]
        while queue:
            v = queue.pop()
            for u in iter_bits(g.adj[v]):
                if color[u] == -1:
                    color[u] = color[v] ^ 1
                    side[color[u]] |= 1 << u
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
        if side[1].bit_count() < side[0].bit_count():
            x_mask |= side[1]
            y_mask |= side[0]
        else:
            x_mask |= side[0]
            y_mask |= side[1]
    if x_mask.bit_count() > y_mask.bit_count():
        x_mask, y_mask = y_mask, x_mask
    return Bipartition(x_mask, y_mask)


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
            hosts = map(graph6_decode, enumerate_mops(n))
        seen: set[str] = set()
        labeled: set[tuple[int, ...]] = set()
        for host in hosts:
            m = host.edge_count
            for subset in range(1 << m):
                sub = spanning_subgraph(
                    host, [i for i in range(m) if subset >> i & 1]
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


@dataclass
class LemmaReport:
    """Exhaustive check of e(G) <= n + |X| - 2 over bipartite outerplanar
    graphs with the side X minimized; tight graphs listed per order."""

    checked: int
    violations: list[dict] = field(default_factory=list)
    tight: dict[int, list[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def lemma_bipartite_check(n_max: int) -> LemmaReport:
    report = LemmaReport(checked=0)
    for g in bipartite_outerplanar_corpus(n_max):
        x_size = bipartition_of(g).sizes[0]
        bound = g.n + x_size - 2
        report.checked += 1
        g6 = canonical_form(g).graph6
        if g.edge_count > bound:
            report.violations.append(
                {"graph": g6, "n": g.n, "edges": g.edge_count,
                 "x_size": x_size, "bound": bound}
            )
        elif g.edge_count == bound:
            report.tight.setdefault(g.n, []).append(g6)
    return report
