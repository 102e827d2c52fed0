"""Maximum matchings, k-matching iteration, and matching-number certificates.

The certificate for a matching number is a vertex set T attaining the
min of (n - odd_components(G - T) + |T|) / 2, further required to leave
only factor-critical odd components and perfectly matchable even
components, so an independent checker needs nothing but component
counting and perfect-matching tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graphs import Graph, iter_bits

CERTIFICATE_MAX_N = 14


def _matching_number_masked(g: Graph, avail: int, memo: dict[int, int]) -> int:
    """Maximum matching size within the masked vertex set."""
    # drop vertices with no available neighbor; they cannot be matched
    while avail:
        stripped = avail
        for v in iter_bits(avail):
            if not g.adj[v] & avail:
                stripped &= ~(1 << v)
        if stripped == avail:
            break
        avail = stripped
    if avail == 0:
        return 0
    cached = memo.get(avail)
    if cached is not None:
        return cached
    v = (avail & -avail).bit_length() - 1
    rest = avail & ~(1 << v)
    best = _matching_number_masked(g, rest, memo)  # v stays unmatched
    for u in iter_bits(g.adj[v] & avail):
        best = max(best, 1 + _matching_number_masked(g, rest & ~(1 << u), memo))
    memo[avail] = best
    return best


def matching_number(g: Graph, within: int | None = None) -> int:
    """Size of a maximum matching (restricted to the masked vertices if given)."""
    avail = g.vertex_mask if within is None else within
    return _matching_number_masked(g, avail, {})


def _extend_matchings(
    out: list[tuple[int, ...]], vmask: list[int], free: list[int],
    later: list[int], cand: int, used: int, picked: tuple[int, ...],
    left: int,
) -> None:
    # append every extension of `picked` by `left` edges from the mask cand
    if left == 1:
        while cand:
            low = cand & -cand
            out.append(picked + (low.bit_length() - 1,))
            cand ^= low
        return
    need = left - 1
    while cand.bit_count() > need:
        low = cand & -cand
        cand ^= low
        i = low.bit_length() - 1
        if (free[i] & ~used).bit_count() < 2 * left:
            return
        rest = cand & later[i]
        if rest.bit_count() >= need:
            _extend_matchings(
                out, vmask, free, later, rest, used | vmask[i],
                picked + (i,), need,
            )


def iterate_k_matchings(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """All matchings of size exactly k as ascending edge-index tuples, in
    lexicographic order.

    A partial matching keeps the mask of its candidate edges: those after
    its last edge that share no vertex with any of its edges.  Taking edge
    i narrows the mask by `later[i]`, the edges after i disjoint from it,
    and the last edge is read straight off the mask's bits.  A partial
    matching that still needs `left` edges stops once fewer than `left`
    candidates remain, or once the edges from the next candidate on cover
    fewer than 2 * left unused vertices; neither subtree holds a matching
    of size k, so nothing yielded changes.  The list is built by plain
    recursion and then yielded, so no chain of nested generators passes
    each tuple up.
    """
    if k < 1:
        raise ValueError("matching size must be >= 1")
    edges = g.edges
    m = len(edges)
    vmask = [1 << u | 1 << v for u, v in edges]
    # free[i]: the vertices covered by edges i..m-1
    free = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        free[i] = free[i + 1] | vmask[i]
    # incident[v]: the edges at vertex v
    incident = [0] * g.n
    for i, (u, v) in enumerate(edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    full = (1 << m) - 1
    later = [
        (full >> i + 1 << i + 1) & ~(incident[u] | incident[v])
        for i, (u, v) in enumerate(edges)
    ]
    out: list[tuple[int, ...]] = []
    _extend_matchings(out, vmask, free, later, full, 0, (), k)
    yield from out


def has_perfect_matching(g: Graph, within: int | None = None) -> bool:
    avail = g.vertex_mask if within is None else within
    size = avail.bit_count()
    return size % 2 == 0 and matching_number(g, avail) == size // 2


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

    def vertices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.t_mask))

    def to_json(self) -> dict:
        return {
            "T": list(self.vertices()),
            "odd_components": self.odd_components,
            "value": self.value,
        }

    @staticmethod
    def from_json(data: dict) -> TutteBergeCertificate:
        t_mask = 0
        for v in data["T"]:
            t_mask |= 1 << v
        return TutteBergeCertificate(t_mask, data["odd_components"], data["value"])

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


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
