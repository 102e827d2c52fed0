"""Maximum matchings and k-matching iteration.

The k-matching list is the solver's largest input: an order-15 member has
a few thousand 5-matchings, and building them and their masks takes about
three quarters of the median order-15 solve at k = 5 and floor 19, and
about 37% of the summed solve time of 40 sampled members, which members
near the floor dominate.  The list is built by recursion over candidate
masks, with the last two edges of each matching picked in a flat loop;
the same walk records each matching's edge mask for the solver.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph, iter_bits

# a longer list is refused rather than built: the largest MOP lists seen
# hold about 20,000 matchings (order 18, k = 5 and 6), while a dense graph
# inside the solver's 255-edge limit, K_23 at k = 5, has about 10^9
MAX_MATCHINGS = 1_000_000


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
    out: list[tuple[int, ...]], masks: list[int], vmask: list[int],
    free: list[int], later: list[int], cand: int, used: int,
    picked: tuple[int, ...], bits: int, left: int,
) -> None:
    # append every extension of `picked` (edge mask `bits`) by `left` >= 2
    # edges from the mask cand to `out`, and its edge mask to `masks`; the
    # last two edges are picked in one flat loop, not a call each
    if left == 2:
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            rest = cand & later[i]
            pair = bits | low
            while rest:
                low = rest & -rest
                out.append(picked + (i, low.bit_length() - 1))
                masks.append(pair | low)
                rest ^= low
        if len(out) > MAX_MATCHINGS:
            raise ValueError(
                f"more than MAX_MATCHINGS = {MAX_MATCHINGS} k-matchings"
            )
        return
    unused = ~used
    cover = 2 * left
    while cand:
        low = cand & -cand
        cand ^= low
        i = low.bit_length() - 1
        if (free[i] & unused).bit_count() < cover:
            return
        rest = cand & later[i]
        if rest:
            _extend_matchings(
                out, masks, vmask, free, later, rest, used | vmask[i],
                picked + (i,), bits | low, left - 1,
            )


def iterate_k_matchings(
    g: Graph, k: int, *, _edge_masks: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """All matchings of size exactly k as ascending edge-index tuples, in
    lexicographic order.

    A partial matching keeps the mask of its candidate edges: those after
    its last edge that share no vertex with any of its edges.  Taking edge
    i narrows the mask by `later[i]`, the edges after i disjoint from it.
    The walk keeps one stop rule: a partial matching that still needs
    `left` >= 3 edges stops once the edges from the next candidate on cover
    fewer than 2 * left unused vertices; that subtree holds no matching of
    size k, so nothing yielded changes.  The recursion stops two edges
    short: one loop takes each candidate i as the next-to-last edge and
    appends a matching for every bit of `cand & later[i]`, so no call is
    made per last-edge block.  k = 1 is the edge list itself.  The list is
    built by plain recursion and then yielded, so no chain of nested
    generators passes each tuple up.  A graph with more than
    MAX_MATCHINGS k-matchings is a ValueError, raised once the list passes
    that length, before the first matching is yielded.

    The walk also carries each partial matching's edge mask, the OR of
    `1 << e` over its edges.  When `_edge_masks` is a list, the edge mask
    of every matching is appended to it, in the same order, before the
    first matching is yielded: the solver reads them there instead of
    walking the tuples again (`solver._matching_masks`).
    """
    if k < 1:
        raise ValueError("matching size must be >= 1")
    masks = [] if _edge_masks is None else _edge_masks
    if k == 1:
        masks += [1 << i for i in range(g.edge_count)]
        yield from [(i,) for i in range(g.edge_count)]
        return
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
    _extend_matchings(out, masks, vmask, free, later, full, 0, (), 0, k)
    yield from out
