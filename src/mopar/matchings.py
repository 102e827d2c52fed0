"""Maximum matchings and k-matching iteration."""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph, iter_bits


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


def matching_number(g: Graph) -> int:
    """Size of a maximum matching."""
    return _matching_number_masked(g, g.vertex_mask, {})


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
