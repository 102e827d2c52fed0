"""Bitmask graphs on up to 32 vertices.

A graph is stored as one adjacency bitmask per vertex, so every
neighborhood query is a couple of machine-word operations.  The edge list
is frozen at construction in (min endpoint, max endpoint) lexicographic
order; every certificate in this package refers to edges by index into
that list.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 32


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the first bad byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _raise_asymmetry(adj: tuple[int, ...]) -> None:
    # the first row bit, in row order, whose mirror bit is missing
    for v, row in enumerate(adj):
        for u in iter_bits(row):
            if not adj[u] >> v & 1:
                raise ValueError(f"asymmetric adjacency between {u} and {v}")


class Graph:
    """Immutable simple graph; vertices are 0..n-1."""

    __slots__ = ("n", "adj", "edges", "_graph6")

    def __init__(self, n: int, adj: Iterable[int]):
        adj = tuple(adj)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows for {n} vertices")
        full = (1 << n) - 1
        edges = []
        # mirror[v]: the vertices below v whose rows name v
        mirror = [0] * n
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"row {v} references vertices >= {n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            upper = row >> v + 1
            while upper:
                low = upper & -upper
                u = v + low.bit_length()
                edges.append((v, u))
                mirror[u] |= 1 << v
                upper ^= low
        for v, row in enumerate(adj):
            if row & ((1 << v) - 1) != mirror[v]:
                _raise_asymmetry(adj)
        self.n = n
        self.adj = adj
        self.edges = tuple(edges)
        # graph6_encode's memo; graph6_decode stores the string it read
        self._graph6: str | None = None

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def relabel(self, perm: Iterable[int]) -> Graph:
        """New graph where old vertex v becomes perm[v]."""
        perm = tuple(perm)
        adj = [0] * self.n
        for v in range(self.n):
            for u in iter_bits(self.adj[v]):
                adj[perm[v]] |= 1 << perm[u]
        return Graph(self.n, adj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


# ---------------------------------------------------------------------------
# canonical labeling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling permutation (old -> new) and the canonical graph6 string."""

    permutation: tuple[int, ...]
    graph6: str


def _refine(
    n: int, nbrs: list[tuple[int, ...]], colors: tuple[int, ...]
) -> tuple[int, ...]:
    # iterated degree refinement: split color classes by the multiset of
    # neighbor colors until the partition is equitable
    while True:
        sigs = [
            (colors[v], tuple(sorted([colors[u] for u in nbrs[v]])))
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(rank[sigs[v]] for v in range(n))
        if new == colors:
            return colors
        colors = new


def _labeling_key(n: int, adj: tuple[int, ...], order: list[int]) -> int:
    # upper-triangle adjacency bits of the relabeled graph, packed into an
    # int in graph6 column order; smaller key = smaller canonical string
    key = 0
    for j in range(1, n):
        vj = order[j]
        row = adj[vj]
        for i in range(j):
            key = key << 1 | (row >> order[i] & 1)
    return key


# base64's digits, in value order, mapped to graph6's: value + 63
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)),
)


def _graph6_of_key(n: int, key: int) -> str:
    # a labeling key holds graph6's bits in order, six to a byte, as
    # base64 reads them; base64 takes whole 3-byte blocks, so pad to one
    # and keep the digits the key fills
    nbits = n * (n - 1) // 2
    digits = -(-nbits // 6)
    nbytes = -(-digits // 4) * 3
    data = (key << 8 * nbytes - nbits).to_bytes(nbytes, "big")
    body = binascii.b2a_base64(data, newline=False)[:digits]
    return chr(n + 63) + body.translate(_BASE64_TO_GRAPH6).decode()


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _same_orbit(
    n: int, automorphisms: list[tuple[int, ...]], base: list[int], v: int,
    tried: list[int],
) -> bool:
    # is v equivalent to an already-tried candidate under some product of
    # discovered automorphisms that fix the current base pointwise?
    fixing = [a for a in automorphisms if all(a[b] == b for b in base)]
    if not fixing:
        return False
    parent = list(range(n))
    for a in fixing:
        for w in range(n):
            rw, ra = _find(parent, w), _find(parent, a[w])
            if rw != ra:
                parent[ra] = rw
    rv = _find(parent, v)
    return any(_find(parent, u) == rv for u in tried)


class _Labeling:
    """State of one canonical_form search: the least labeling key so far,
    its vertex order, the automorphisms found and the individualized base."""

    __slots__ = ("n", "adj", "nbrs", "best_key", "best_order",
                 "automorphisms", "base")

    def __init__(self, g: Graph):
        self.n = g.n
        self.adj = g.adj
        self.nbrs = [tuple(iter_bits(row)) for row in g.adj]
        self.best_key: int | None = None
        self.best_order: list[int] = []
        self.automorphisms: list[tuple[int, ...]] = []
        self.base: list[int] = []

    def search(self, colors: tuple[int, ...]) -> None:
        n = self.n
        cell: list[int] = []
        for c in sorted(set(colors)):
            members = [v for v in range(n) if colors[v] == c]
            if len(members) > 1:
                cell = members
                break
        if not cell:
            order = sorted(range(n), key=colors.__getitem__)
            key = _labeling_key(n, self.adj, order)
            if self.best_key is None or key < self.best_key:
                self.best_key = key
                self.best_order = order
            elif key == self.best_key:
                # equal keys expose an automorphism: the map sending the best
                # labeling's vertex at each position to this labeling's vertex
                phi = [0] * n
                for i, v in enumerate(self.best_order):
                    phi[v] = order[i]
                self.automorphisms.append(tuple(phi))
            return

        tried: list[int] = []
        for v in cell:
            # orbits must be recomputed per candidate: the previous child's
            # subtree may have discovered new automorphisms
            if _same_orbit(n, self.automorphisms, self.base, v, tried):
                continue
            tried.append(v)
            self.base.append(v)
            individualized = tuple(
                (colors[u], 0 if u == v else 1) for u in range(n)
            )
            rank = {s: i for i, s in enumerate(sorted(set(individualized)))}
            self.search(
                _refine(n, self.nbrs, tuple(rank[s] for s in individualized))
            )
            self.base.pop()


def canonical_form(g: Graph) -> CanonicalForm:
    """Isomorphism-invariant relabeling via individualization-refinement.

    Exhaustive over refinement-compatible labelings, with discovered
    automorphisms used to prune symmetric branches.  Exact at any size.
    The graph6 string is read off the least labeling key, whose bits are
    graph6's.
    """
    n = g.n
    labeling = _Labeling(g)
    labeling.search(
        _refine(n, labeling.nbrs, tuple(g.degree(v) for v in range(n)))
    )
    perm = [0] * n
    for new_label, v in enumerate(labeling.best_order):
        perm[v] = new_label
    return CanonicalForm(tuple(perm), _graph6_of_key(n, labeling.best_key))


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def graph6_encode(g: Graph) -> str:
    """Standard graph6 encoding (single-byte order; n <= 62 always holds here)."""
    if g._graph6 is None:
        g._graph6 = _graph6_of_key(g.n, _labeling_key(g.n, g.adj, range(g.n)))
    return g._graph6


def graph6_decode(text: str) -> Graph:
    """Decode one graph6 line; raises Graph6Error with the offending byte offset."""
    if not text:
        raise Graph6Error("empty graph6 string", 0)
    if text[0] == "~":
        raise Graph6Error("multi-byte vertex counts not supported (n <= 32)", 0)
    n = ord(text[0]) - 63
    if not 1 <= n <= 62:
        raise Graph6Error(f"bad vertex count byte {text[0]!r}", 0)
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds the {MAX_VERTICES} limit", 0)
    nbits = n * (n - 1) // 2
    body_len = (nbits + 5) // 6
    if len(text) != 1 + body_len:
        raise Graph6Error(
            f"expected {1 + body_len} bytes for n={n}, got {len(text)}",
            min(len(text), 1 + body_len),
        )
    key = 0
    for pos, ch in enumerate(text[1:], start=1):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise Graph6Error(f"byte {ch!r} outside graph6 alphabet", pos)
        key = key << 6 | val
    # the padding is the low bits of the last byte
    pad = 6 * body_len - nbits
    if key & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", body_len)
    key >>= pad
    # a labeling key: column j holds the pairs (0, j) .. (j - 1, j), first
    # highest, so the set bits of each column are read off directly
    bit = nbits
    adj = [0] * n
    for j in range(1, n):
        bit -= j
        column = key >> bit & ((1 << j) - 1)
        while column:
            low = column & -column
            i = j - low.bit_length()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            column ^= low
    g = Graph(n, adj)
    # the one string that encodes g, so graph6_encode need not rebuild it
    g._graph6 = text
    return g
