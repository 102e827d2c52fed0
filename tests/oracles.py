"""Independent oracles and the graph helpers that only tests use.

The brute-force oracles favor obviousness over speed: full permutation
isomorphism, branch-set enumeration for minors by assigning every vertex
to every part, the Catalan recurrence, the raw minimum of the matching
formula over all vertex subsets, every k-subset of edges filtered to the
(rainbow) matchings, the least dihedral image of a triangulation's
diagonal set, and the fewest partition classes meeting a
set of matchings by trying every set of unbanned classes.  The greedy seed
has a counting twin that recounts every class pair with a Counter after
each merge.  Beside them are degree and cut helpers and an exact
outerplanarity test through the forbidden minors K_4 and K_{2,3}, which
checks that every enumerated MOP is outerplanar.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, permutations
from typing import Iterable, Iterator, Sequence

from mopar.graphs import Graph, iter_bits
from mopar.matchings import components, formula_value, iterate_k_matchings
from mopar.rainbow import EdgeColoring


def catalan_recurrence(m: int) -> int:
    """C(0)=1, C(m)=sum C(i)C(m-1-i)."""
    table = [1]
    for size in range(1, m + 1):
        table.append(sum(table[i] * table[size - 1 - i] for i in range(size)))
    return table[m]


def _is_connected_mask(g: Graph, mask: int) -> bool:
    start = mask & -mask
    reach = start
    frontier = start
    while frontier:
        grown = reach
        for v in iter_bits(frontier):
            grown |= g.adj[v] & mask
        frontier = grown & ~reach
        reach = grown
    return reach == mask


def _masks_adjacent(g: Graph, a: int, b: int) -> bool:
    return any(g.adj[v] & b for v in iter_bits(a))


def branch_set_minor(g: Graph, parts: int, pattern_edges: list[tuple[int, int]]) -> bool:
    """Assign every vertex to a part or to none; check connectivity and the
    pattern adjacencies.  Exponential, for tiny graphs only."""
    n = g.n
    assignment = [0] * n  # 0 = unused, 1..parts

    def ok() -> bool:
        masks = [0] * (parts + 1)
        for v, part in enumerate(assignment):
            masks[part] |= 1 << v
        for part in range(1, parts + 1):
            if masks[part] == 0 or not _is_connected_mask(g, masks[part]):
                return False
        return all(
            _masks_adjacent(g, masks[a + 1], masks[b + 1])
            for a, b in pattern_edges
        )

    def assign(v: int) -> bool:
        if v == n:
            return ok()
        for part in range(parts + 1):
            assignment[v] = part
            if assign(v + 1):
                return True
        assignment[v] = 0
        return False

    return assign(0)


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K23_EDGES = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]


def diagonal_dihedral_key(n: int, diagonals: Iterable[tuple[int, int]]) -> tuple:
    """Least image of a triangulation's diagonal set under the 2n rotations
    and reflections of the polygon: the reference for the quiddity key."""
    diag = list(diagonals)
    best = None
    for r in range(n):
        for flip in (False, True):
            img = []
            for a, b in diag:
                x = (n - a + r) % n if flip else (a + r) % n
                y = (n - b + r) % n if flip else (b + r) % n
                img.append((x, y) if x < y else (y, x))
            img = tuple(sorted(img))
            if best is None or img < best:
                best = img
    return best


def tutte_berge_minimum(g: Graph) -> int:
    """min over every T of (n - o(G-T) + |T|) / 2, by full subset scan."""
    return min(formula_value(g, t)[1] for t in range(1 << g.n))


def min_class_transversal(
    cls: list[int], matchings: Iterable[Iterable[int]], banned: int = 0
) -> int | None:
    """Fewest classes outside the mask `banned` that meet every matching,
    where cls[e] is the class of edge e: every set of those classes,
    smallest first.  None when no set does, as when a matching has every
    class banned."""
    hit_sets = [mask_of(cls[e] for e in matching) for matching in matchings]
    classes = [c for c in sorted(set(cls)) if not banned >> c & 1]
    for size in range(len(classes) + 1):
        for chosen in combinations(classes, size):
            mask = mask_of(chosen)
            if all(h & mask for h in hit_sets):
                return size
    return None


def counting_seed(g: Graph, k: int) -> EdgeColoring:
    """The greedy seed by explicit pair counting: after every merge, count
    each class pair over the violated k-matchings with a Counter, and merge
    the most frequent pair, ties to the least."""
    m = g.edge_count
    matchings = list(iterate_k_matchings(g, k))
    if not matchings:
        return EdgeColoring(tuple(range(m)), m)
    msets = [0] * m
    for mid, matching in enumerate(matchings):
        for e in matching:
            msets[e] |= 1 << mid
    cls = list(range(m))
    violated = (1 << len(matchings)) - 1

    while violated:
        freq: Counter[tuple[int, int]] = Counter()
        for mid in iter_bits(violated):
            roots = sorted({cls[e] for e in matchings[mid]})
            for pair in combinations(roots, 2):
                freq[pair] += 1
        (a, b), _ = min(freq.items(), key=lambda item: (-item[1], item[0]))
        violated &= ~(msets[a] & msets[b])
        msets[a] |= msets[b]
        for e in range(m):
            if cls[e] == b:
                cls[e] = a
    return EdgeColoring.from_sequence(cls)


def greedy_maximal_matching_lower_bound(g: Graph) -> int:
    used = 0
    size = 0
    for u, v in g.edges:
        if used >> u & 1 or used >> v & 1:
            continue
        used |= (1 << u) | (1 << v)
        size += 1
    return size


def component_count(g: Graph) -> int:
    return len(components(g, g.vertex_mask))


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random tree plus extra edges; for certificate stress tests."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.25:
            edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def scattered_graph(rng: random.Random) -> Graph:
    """Random graph of two or three components plus isolated vertices, with
    the vertices shuffled so the isolated ones fall anywhere."""
    edges = []
    n = 0
    for _ in range(rng.randint(2, 3)):
        size = rng.randint(2, 4)
        block = range(n, n + size)
        edges += [(u, v) for u, v in combinations(block, 2) if rng.random() < 0.7]
        n += size
    n += rng.randint(1, 3)
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, edges).relabel(perm)


def iter_k_matchings_by_filter(
    g: Graph, k: int, colors: Sequence[int] | None = None
) -> Iterator[tuple[int, ...]]:
    """Every k-subset of edge indices, in lexicographic order, whose edges
    are pairwise disjoint (and, given colors, pairwise distinctly colored):
    `itertools.combinations` over the edges, filtered."""
    for subset in combinations(range(g.edge_count), k):
        if len({v for e in subset for v in g.edges[e]}) != 2 * k:
            continue
        if colors is not None and len({colors[e] for e in subset}) != k:
            continue
        yield subset


def k_matchings_by_filter(
    g: Graph, k: int, colors: Sequence[int] | None = None
) -> list[tuple[int, ...]]:
    """The list of `iter_k_matchings_by_filter`."""
    return list(iter_k_matchings_by_filter(g, k, colors))


# ---------------------------------------------------------------------------
# graph helpers
# ---------------------------------------------------------------------------

def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def degree_stats(g: Graph) -> tuple[int, int, tuple[int, ...]]:
    """(min degree, max degree, sorted degree sequence)."""
    degs = tuple(sorted(g.degree(v) for v in range(g.n)))
    return degs[0], degs[-1], degs


def _as_mask(g: Graph, vertices: int | Iterable[int]) -> int:
    m = vertices if isinstance(vertices, int) else mask_of(vertices)
    if m & ~g.vertex_mask:
        raise ValueError("vertex set references vertices outside the graph")
    return m


def cut_edges(g: Graph, side_a: int | Iterable[int], side_b: int | Iterable[int]) -> int:
    """Number of edges with one endpoint in each side; the sides must be disjoint."""
    a = _as_mask(g, side_a)
    b = _as_mask(g, side_b)
    if a & b:
        raise ValueError("cut sides overlap")
    return sum((g.adj[v] & b).bit_count() for v in iter_bits(a))


def brute_force_isomorphic(a: Graph, b: Graph) -> bool:
    """Isomorphism by trying every permutation; for tiny graphs."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    target = b.adj
    for perm in permutations(range(a.n)):
        ok = True
        for v in range(a.n):
            img = 0
            for u in iter_bits(a.adj[v]):
                img |= 1 << perm[u]
            if img != target[perm[v]]:
                ok = False
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------
#
# Both forbidden patterns have maximum degree 3, so a minor is present  iff a
# subdivision is: K_{2,3} reduces to two vertices joined by three internally
# disjoint paths of length >= 2, and K_4 to four branch vertices joined by six
# internally disjoint paths.  Witnesses are reassembled into disjoint
# connected branch sets (vertex bitmasks).

K4 = "K4"
K23 = "K2,3"


def _three_disjoint_paths(g: Graph, s: int, t: int) -> list[list[int]] | None:
    # unit vertex capacities via standard vertex splitting; the direct edge
    # s-t is ignored so every returned path has length >= 2
    n = g.n
    cap: dict[tuple[int, int], int] = {}

    def nodes_out(v: int) -> int:
        return 2 * v + 1

    def nodes_in(v: int) -> int:
        return 2 * v

    for v in range(n):
        cap[(nodes_in(v), nodes_out(v))] = 1 if v not in (s, t) else 3
    for u, v in g.edges:
        if {u, v} == {s, t}:
            continue
        cap[(nodes_out(u), nodes_in(v))] = 1
        cap[(nodes_out(v), nodes_in(u))] = 1

    flow: dict[tuple[int, int], int] = {}
    source, sink = nodes_out(s), nodes_in(t)

    def residual(a: int, b: int) -> int:
        return cap.get((a, b), 0) - flow.get((a, b), 0) + flow.get((b, a), 0)

    def augment() -> bool:
        prev = {source: source}
        queue = [source]
        while queue:
            a = queue.pop(0)
            if a == sink:
                break
            for b in range(2 * n):
                if b not in prev and residual(a, b) > 0:
                    prev[b] = a
                    queue.append(b)
        if sink not in prev:
            return False
        b = sink
        while b != source:
            a = prev[b]
            if flow.get((b, a), 0) > 0:
                flow[(b, a)] -= 1
            else:
                flow[(a, b)] = flow.get((a, b), 0) + 1
            b = a
        return True

    found = 0
    while found < 3 and augment():
        found += 1
    if found < 3:
        return None

    # decompose the flow into three vertex-disjoint paths
    paths = []
    succ: dict[int, list[int]] = {}
    for (a, b), f in flow.items():
        if f > 0:
            succ.setdefault(a, []).append(b)
    for _ in range(3):
        path = [s]
        node = source
        while node != sink:
            node = succ[node].pop()
            if node % 2 == 0 and node != sink:
                path.append(node // 2)
        path.append(t)
        paths.append(path)
    return paths


def _find_k23(g: Graph) -> list[int] | None:
    for s, t in combinations(range(g.n), 2):
        paths = _three_disjoint_paths(g, s, t)
        if paths is not None:
            interiors = [sum(1 << v for v in p[1:-1]) for p in paths]
            return [1 << s, 1 << t] + interiors
    return None


def _enumerate_paths(g: Graph, s: int, t: int, banned: int) -> Iterator[int]:
    """Masks of simple s-t paths whose interior avoids `banned`."""
    t_bit = 1 << t

    def walk(v: int, used: int) -> Iterator[int]:
        if g.adj[v] >> t & 1:
            yield used | t_bit
        for u in iter_bits(g.adj[v] & ~banned & ~used & ~t_bit):
            yield from walk(u, used | 1 << u)

    yield from walk(s, 1 << s)


def _find_k4(g: Graph) -> list[int] | None:
    n = g.n
    pair_order = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    for quad in combinations(range(n), 4):
        qmask = sum(1 << v for v in quad)

        def connect(idx: int, used: int, interiors: dict[tuple[int, int], int]):
            if idx == 6:
                return dict(interiors)
            a, b = pair_order[idx]
            s, t = quad[a], quad[b]
            banned = (qmask & ~(1 << s) & ~(1 << t)) | (used & ~(1 << s) & ~(1 << t))
            for pmask in _enumerate_paths(g, s, t, banned):
                interior = pmask & ~(1 << s) & ~(1 << t)
                interiors[pair_order[idx]] = interior
                res = connect(idx + 1, used | pmask, interiors)
                if res is not None:
                    return res
                del interiors[pair_order[idx]]
            return None

        model = connect(0, qmask, {})
        if model is not None:
            # fold path interiors into branch sets: each path's interior is
            # absorbed by its lexicographically first endpoint's branch set
            sets = [1 << v for v in quad]
            for (a, _b), interior in model.items():
                sets[a] |= interior
            return sets
    return None


def find_minor(g: Graph, pattern: str) -> list[int] | None:
    """Branch-set witness (disjoint connected vertex masks) or None.

    For K_{2,3} the first two masks are the degree-3 side; for K_4 all four
    masks are pairwise adjacent.
    """
    if pattern == K4:
        return _find_k4(g)
    if pattern == K23:
        return _find_k23(g)
    raise ValueError(f"unsupported minor pattern {pattern!r}")


def has_minor(g: Graph, pattern: str) -> bool:
    return find_minor(g, pattern) is not None


def is_outerplanar(g: Graph) -> bool:
    """True iff g has neither a K_4 minor nor a K_{2,3} minor."""
    return not has_minor(g, K4) and not has_minor(g, K23)
