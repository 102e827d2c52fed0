"""Exact anti-Ramsey values ar(G, M_k) for matchings, with witness colorings.

A surjective c-coloring of E(G) without a rainbow k-matching is the same
thing as a partition of the edge set into c classes in which every
k-matching has two edges in one class.  The solver starts from the
all-singleton partition and branches on a violated k-matching (one whose
edges lie in k distinct classes), merging one of its class pairs per
child; the class count only decreases, giving the bound.  A transposition
table on the partition normal form removes merge-order symmetry.

Search state is Python ints over matching ids (the lexicographic order of
`iterate_k_matchings`): each class keeps the mask of matchings that touch
it, and the violated matchings form one mask.  Merging classes a and b
satisfies exactly `msets[a] & msets[b]`, so the child's violated mask is
`violated & ~(msets[a] & msets[b])`.  Every node branches on its lowest
violated id, and the packing bound and the greedy seed read the same masks.

An independent oracle enumerates every set partition of the edge list
(restricted-growth strings with rainbow pruning) for graphs with few
edges.
"""

from __future__ import annotations

import json
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass
from itertools import combinations, islice

from .graphs import Graph, graph6_encode, iter_bits
from .matchings import iterate_k_matchings, matching_number
from .rainbow import EdgeColoring

EXACT = "EXACT"
LOWER_BOUND = "LOWER_BOUND"

MAX_K = 8
BRUTE_FORCE_MAX_EDGES = 10

# deterministic cap on how many violated matchings the greedy seed samples
# when counting class-pair frequencies
SEED_SAMPLE = 512


@dataclass
class ArResult:
    """Solver output: the witness always verifies at exactly `value` colors.

    mode EXACT means the value is proved optimal; LOWER_BOUND means a budget
    (or an explicit stop threshold) ended the search early and `value` is the
    best witnessed coloring so far.  For k = 1 no rainbow-free coloring
    exists at all, so value is 0 and the witness is None.
    """

    graph6: str
    k: int
    value: int
    mode: str
    witness: EdgeColoring | None
    nodes: int
    elapsed_ms: float

    def to_json(self) -> dict:
        data = {
            "graph": self.graph6,
            "k": self.k,
            "value": self.value,
            "mode": self.mode,
            "witness": None,
            "nodes": self.nodes,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.witness is not None:
            data["witness"] = {
                "graph": self.graph6,
                "k": self.k,
                "colors": list(self.witness.colors),
                "num_colors": self.witness.num_colors,
            }
        return data

    @staticmethod
    def from_json(data: dict) -> ArResult:
        witness = None
        if data["witness"] is not None:
            witness = EdgeColoring(
                tuple(data["witness"]["colors"]), data["witness"]["num_colors"]
            )
        return ArResult(
            data["graph"], data["k"], data["value"], data["mode"],
            witness, data["nodes"], data["elapsed_ms"],
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _ms(start: float) -> float:
    # rounded at creation so serialized and in-memory results agree exactly
    return round((time.perf_counter() - start) * 1000.0, 3)


class _Budget(Exception):
    pass


class _Stop(Exception):
    pass


def _validate(g: Graph, k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise ValueError(f"matching size {k} outside 1..{MAX_K}")
    if g.edge_count < 1:
        raise ValueError("graph has no edges")


def _all_distinct(m: int) -> EdgeColoring:
    return EdgeColoring(tuple(range(m)), m)


def ar_brute_force(g: Graph, k: int) -> int:
    """Maximum class count over all edge-set partitions in which every
    k-matching repeats a class; full enumeration, so e(G) must be small."""
    _validate(g, k)
    m = g.edge_count
    if m > BRUTE_FORCE_MAX_EDGES:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_EDGES} edges")
    matchings = list(iterate_k_matchings(g, k))
    if not matchings:
        return m
    if k == 1:
        return 0

    ending_at: list[list[tuple[int, ...]]] = [[] for _ in range(m)]
    for matching in matchings:
        ending_at[matching[-1]].append(matching)

    colors = [0] * m
    best = 1

    def assign(i: int, used: int) -> None:
        nonlocal best
        if used + (m - i) <= best:
            return
        if i == m:
            best = used
            return
        for c in range(used + 1):
            colors[i] = c
            if any(
                len({colors[e] for e in matching}) == k
                for matching in ending_at[i]
            ):
                continue
            assign(i + 1, used + (1 if c == used else 0))

    assign(0, 0)
    return best


def _matching_masks(g: Graph, k: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The k-matchings of g in lexicographic order, and for each edge the
    mask of the matching ids that contain it."""
    matchings = list(iterate_k_matchings(g, k))
    touch = [0] * g.edge_count
    for mid, matching in enumerate(matchings):
        bit = 1 << mid
        for e in matching:
            touch[e] |= bit
    return matchings, touch


def seed_incumbent(
    g: Graph,
    k: int,
    *,
    _masks: tuple[list[tuple[int, ...]], list[int]] | None = None,
) -> EdgeColoring:
    """Greedy rainbow-free coloring: repeatedly merge the class pair occurring
    in the most violated k-matchings (sampled deterministically).

    `_masks` is `_matching_masks(g, k)` when ar_exact has built it already,
    so a solve enumerates the k-matchings once.
    """
    _validate(g, k)
    if k == 1:
        raise ValueError("every coloring has a rainbow 1-matching")
    m = g.edge_count
    matchings, msets = _masks or _matching_masks(g, k)
    if not matchings:
        return _all_distinct(m)
    cls = list(range(m))
    msets = list(msets)
    violated = (1 << len(matchings)) - 1

    while violated:
        freq: Counter[tuple[int, int]] = Counter()
        for mid in islice(iter_bits(violated), SEED_SAMPLE):
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


class _Search:
    def __init__(
        self,
        matchings: list[tuple[int, ...]],
        max_nodes: int | None,
        max_millis: float | None,
        floor: int,
        stop_at: int | None,
        tt_capacity: int,
    ):
        self.matchings = matchings
        self.max_nodes = max_nodes
        self.max_millis = max_millis
        self.floor = floor
        self.stop_at = stop_at
        self.tt: OrderedDict[tuple[int, ...], None] = OrderedDict()
        self.tt_capacity = tt_capacity
        self.nodes = 0
        self.start = time.perf_counter()
        self.best_value = 0
        self.best_coloring: tuple[int, ...] | None = None

    def elapsed_ms(self) -> float:
        return (time.perf_counter() - self.start) * 1000.0

    def _tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _Budget
        if (
            self.max_millis is not None
            and self.nodes % 128 == 0
            and self.elapsed_ms() > self.max_millis
        ):
            raise _Budget

    def _record(self, cls: list[int], count: int) -> None:
        if count > self.best_value:
            self.best_value = count
            self.best_coloring = tuple(cls)
            if self.stop_at is not None and count >= self.stop_at:
                raise _Stop

    def _prunable(
        self, cls: list[int], msets: list[int], violated: int, need: int
    ) -> bool:
        """True when at least `need` more merges are provably required.

        Greedy packing of violated matchings with pairwise disjoint class
        sets, in ascending id order: a partition block resolving t of them
        holds >= 2t classes and so spends >= t merges, hence any feasible
        coarsening loses at least one class per packed matching.  A matching
        meets class c iff its id is in msets[c], so dropping the masks of a
        packed matching's classes leaves exactly the candidates disjoint
        from it.
        """
        matchings = self.matchings
        packed = 0
        cand = violated
        while cand:
            packed += 1
            if packed >= need:
                return True
            for e in matchings[(cand & -cand).bit_length() - 1]:
                cand &= ~msets[cls[e]]
        return False

    def run(
        self,
        cls: list[int],
        members: list[int],
        msets: list[int],
        violated: int,
        count: int,
    ) -> None:
        # class labels are canonical (each class is named by its least edge),
        # so cls itself is the transposition-table key
        self._tick()
        key = tuple(cls)
        tt = self.tt
        if key in tt:
            tt.move_to_end(key)
            return
        tt[key] = None
        if len(tt) > self.tt_capacity:
            tt.popitem(last=False)

        if not violated:
            self._record(cls, count)
            return
        bound = max(self.best_value, self.floor)
        if count - 1 <= bound:
            return
        if self._prunable(cls, msets, violated, count - bound):
            return

        mid = (violated & -violated).bit_length() - 1
        roots = sorted(cls[e] for e in self.matchings[mid])
        for a, b in combinations(roots, 2):
            child_violated = violated & ~(msets[a] & msets[b])
            if child_violated and count - 2 <= max(self.best_value, self.floor):
                # the child could neither branch nor be a leaf
                continue
            child_cls = list(cls)
            for e in iter_bits(members[b]):
                child_cls[e] = a
            if not child_violated:
                # feasible one merge away: record without building the child
                self._record(child_cls, count - 1)
                continue
            child_members = list(members)
            child_members[a] = members[a] | members[b]
            child_members[b] = 0
            child_msets = list(msets)
            child_msets[a] = msets[a] | msets[b]
            child_msets[b] = 0
            self.run(child_cls, child_members, child_msets, child_violated, count - 1)


def ar_exact(
    g: Graph,
    k: int,
    *,
    max_nodes: int | None = None,
    max_millis: float | None = None,
    floor: int = 0,
    stop_at: int | None = None,
    tt_capacity: int = 1 << 17,
) -> ArResult:
    """Exact ar(G, M_k) with a verifying witness coloring.

    `floor` prunes the search below a known lower bound: the result is only
    EXACT if a witness at or above the floor was found (otherwise the best
    witnessed coloring is returned as LOWER_BOUND).  `stop_at` ends the
    search as soon as a coloring with that many classes is witnessed.
    Budgets degrade the mode to LOWER_BOUND, never to a wrong answer.
    """
    _validate(g, k)
    start = time.perf_counter()
    g6 = graph6_encode(g)
    m = g.edge_count

    if k == 1:
        return ArResult(g6, k, 0, EXACT, None, 0, _ms(start))
    if matching_number(g) < k:
        return ArResult(g6, k, m, EXACT, _all_distinct(m), 0, _ms(start))

    matchings, touch = masks = _matching_masks(g, k)
    seed = seed_incumbent(g, k, _masks=masks)
    if stop_at is not None and seed.num_colors >= stop_at:
        return ArResult(g6, k, seed.num_colors, LOWER_BOUND, seed, 0, _ms(start))
    search = _Search(matchings, max_nodes, max_millis, floor, stop_at, tt_capacity)
    search.best_value = seed.num_colors
    search.best_coloring = seed.colors
    search.start = start

    completed = False
    try:
        search.run(
            list(range(m)),
            [1 << e for e in range(m)],
            touch,
            (1 << len(matchings)) - 1,
            m,
        )
        completed = True
    except (_Budget, _Stop):
        pass

    assert search.best_coloring is not None
    witness = EdgeColoring.from_sequence(search.best_coloring)
    exact = completed and search.best_value >= floor
    return ArResult(
        g6, k, search.best_value, EXACT if exact else LOWER_BOUND,
        witness, search.nodes, _ms(start),
    )
