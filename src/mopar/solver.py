"""Exact anti-Ramsey values ar(G, M_k) for matchings, with witness colorings.

A surjective c-coloring of E(G) without a rainbow k-matching is the same
thing as a partition of the edge set into c classes in which every
k-matching has two edges in one class.  The solver starts from the
all-singleton partition and branches on a violated k-matching (one whose
edges lie in k distinct classes); the class count only decreases, giving
the bound.  Branching is merge-or-apart: child i merges the i-th class pair
of the matching that is not yet kept apart, and keeps every earlier pair
apart, in that child and in all later siblings.  Any coarsening that fixes
the matching merges some first pair, so the children cover it; they are
disjoint, so no partition is visited twice.

The bound is exact over class transversals.  Let a coarsening of a node's
partition have c classes and no rainbow k-matching, and pick one
representative class inside each of its blocks.  Every violated matching
has two of its classes merged, at most one of them a representative, so
the count - c other classes meet every violated matching: c <= count - tau
for the fewest classes tau that do.  A node is cut once tau shows it
cannot beat the incumbent, decided by a small hitting-set search that
branches like the partition search (disjoint subtrees, each earlier class
banned in later siblings) and prunes by a greedy packing of matchings
whose unbanned classes are disjoint; only those classes may be chosen, so
a packed matching with every class banned ends its hitting-set node at
once.  A packing of exactly as many matchings as the hitting set may
hold is tight: such a set takes exactly one unbanned class from each
packed matching and no other class.  So the class chosen from the first
packed matching, the one the node branches on, must meet every unmet
matching that no unbanned class of the other packed matchings meets; a
class that does not is skipped and banned like a failed sibling.  At the
root nothing is banned and tau is the k-matching transversal number, so
the first cut is ar(G, M_k) <= ex(G, M_k) = m - tau.  Nodes of both
searches count against the budget.

A child one merge above the bound can beat the incumbent only by a single
merge to a feasible partition, so its parent settles it without building
it (leaf fusion).  The child's cut at need 2 keeps the classes of its
first violated matching that meet every violated matching, and merging
two classes is feasible exactly when both are kept; the first kept pair
not apart in the child is the one the child itself would record.  The
settled child counts as one node.

Search state is Python ints over matching ids: each class keeps the mask
of matchings that touch it, and the violated matchings form one mask.  Ids
run in reverse lexicographic order (the i-th of N k-matchings from
`iterate_k_matchings` has id N - 1 - i), so the first violated matching,
which every node branches on, is the top bit, `mask.bit_length() - 1`,
read without building a new int.  Merging classes a and b satisfies
exactly `msets[a] & msets[b]`, so the child's violated mask is
`violated ^ (violated & msets[a] & msets[b])`: a difference written this
way, and a subset test written `x & y == x`, cost the width of the
narrower operand, where `x & ~y` costs the width of y.  Masks lose their
first matchings first, so they narrow as the search deepens.  The
transversal bound and the greedy seed read the same masks: the seed
counts the sampled violated matchings that hold both classes a and b as
`(sample & msets[a] & msets[b]).bit_count()`.  The apart pairs are one
mask per class over class labels, merged like `msets`; a pair marked
apart is never a child.

An independent oracle enumerates every set partition of the edge list
(restricted-growth strings with rainbow pruning) for graphs with few
edges.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .graphs import Graph, graph6_encode, iter_bits
# not called here; the benchmark tracer patches solver.matching_number by name
from .matchings import iterate_k_matchings, matching_number  # noqa: F401
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
    """Solver output: proved bounds value <= ar(G, M_k) <= upper.

    The witness always verifies at exactly `value` colors.  `upper` is the
    bound the search proved: the value itself, or the floor a completed
    search found nothing above, or None when a budget ended the search.
    `mode` is EXACT when upper == value and LOWER_BOUND otherwise; JSON
    carries both.  For k = 1 no rainbow-free coloring exists at all, so
    value is 0 and the witness is None.
    """

    graph6: str
    k: int
    value: int
    upper: int | None
    witness: EdgeColoring | None
    nodes: int
    elapsed_ms: float

    @property
    def mode(self) -> str:
        return EXACT if self.upper == self.value else LOWER_BOUND

    def to_json(self) -> dict:
        data = {
            "graph": self.graph6,
            "k": self.k,
            "value": self.value,
            "upper": self.upper,
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
        """Read `to_json` output.  A line without "upper" predates the
        field; only EXACT results were written then, at upper = value."""
        witness = None
        if data["witness"] is not None:
            witness = EdgeColoring(
                tuple(data["witness"]["colors"]), data["witness"]["num_colors"]
            )
        upper = data.get(
            "upper", data["value"] if data["mode"] == EXACT else None
        )
        return ArResult(
            data["graph"], data["k"], data["value"], upper,
            witness, data["nodes"], data["elapsed_ms"],
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _ms(start: float) -> float:
    # rounded at creation so serialized and in-memory results agree exactly
    return round((time.perf_counter() - start) * 1000.0, 3)


class _Budget(Exception):
    pass


def _validate(g: Graph, k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise ValueError(f"matching size {k} outside 1..{MAX_K}")
    if g.edge_count < 1:
        raise ValueError("graph has no edges")


def check_budgets(**budgets: float | None) -> None:
    """Raise ValueError for a negative budget; None means unlimited."""
    for name, budget in budgets.items():
        if budget is not None and budget < 0:
            raise ValueError(f"{name} must not be negative; got {budget}")


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
    """The k-matchings of g by id, and for each edge the mask of the
    matching ids that contain it.  Ids run in reverse lexicographic order,
    so the lexicographically first matching in a mask is its top bit."""
    matchings = list(iterate_k_matchings(g, k))
    matchings.reverse()
    touch = [0] * g.edge_count
    for mid, matching in enumerate(matchings):
        bit = 1 << mid
        for e in matching:
            touch[e] |= bit
    return matchings, touch


def _top_bits(mask: int, count: int) -> int:
    """The top `count` set bits of mask (all of them if it has fewer): the
    bits from the highest cut that still keeps that many, found by
    bisection on the cut."""
    if mask.bit_count() <= count:
        return mask
    lo, hi = 0, mask.bit_length() - count
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if (mask >> mid).bit_count() < count:
            hi = mid - 1
        else:
            lo = mid
    return mask >> lo << lo


def seed_incumbent(
    g: Graph,
    k: int,
    *,
    _masks: tuple[list[tuple[int, ...]], list[int]] | None = None,
) -> EdgeColoring:
    """Greedy rainbow-free coloring: repeatedly merge the class pair occurring
    in the most violated k-matchings, ties to the least pair.

    The sample is the top SEED_SAMPLE violated ids, the lexicographically
    first violated matchings.  A matching id is in msets[c] exactly when
    the matching has an edge in class c, so pair (a, b) occurs in
    `(sample & msets[a] & msets[b]).bit_count()` sampled matchings; a
    class whose own count cannot beat the best pair so far is skipped.

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
    live = list(range(m))
    violated = (1 << len(matchings)) - 1

    while violated:
        sample = _top_bits(violated, SEED_SAMPLE)
        best = 0
        for i, a in enumerate(live):
            sa = sample & msets[a]
            if sa.bit_count() <= best:
                continue
            for b in live[i + 1:]:
                count = (sa & msets[b]).bit_count()
                if count > best:
                    best, pair = count, (a, b)
        a, b = pair
        live.remove(b)
        violated ^= violated & msets[a] & msets[b]
        msets[a] |= msets[b]
        for e in range(m):
            if cls[e] == b:
                cls[e] = a
    return EdgeColoring.from_sequence(cls)


def _renamed(cls: list[int], edges: int, a: int) -> list[int]:
    """A copy of the class labels with every edge in the mask `edges` put
    in class a."""
    child = list(cls)
    for e in iter_bits(edges):
        child[e] = a
    return child


class _Search:
    def __init__(
        self,
        matchings: list[tuple[int, ...]],
        max_nodes: int | None,
        max_millis: float | None,
        floor: int,
        start: float,
        seed: EdgeColoring,
    ):
        self.matchings = matchings
        self.max_nodes = max_nodes
        self.max_millis = max_millis
        self.floor = floor
        self.start = start
        self.nodes = 0
        self.best_value = seed.num_colors
        self.best_coloring: Sequence[int] = seed.colors

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

    def _prunable(
        self, cls: list[int], msets: list[int], violated: int, need: int
    ) -> bool:
        """True when no `need - 1` classes meet every violated matching,
        which proves that every feasible coarsening has at most
        count - need classes.

        Pick one representative class inside each of a coarsening's c
        blocks: a violated matching has two of its classes in one block,
        at most one of them a representative, so the count - c others meet
        every violated matching, and c <= count - tau for the fewest such
        classes tau.  At the root tau is the k-matching transversal number,
        so the cut there is ar(G, M_k) <= ex(G, M_k) = m - tau.
        """
        return not self._meets(cls, msets, violated, need - 1, 0)

    def _meets(
        self, cls: list[int], msets: list[int], unmet: int, budget: int,
        banned: int,
    ) -> bool:
        """True when at most `budget` classes outside the mask `banned`
        meet every matching in `unmet`.

        Branches on the classes of the first unmet matching (the top id),
        banning each in the later siblings, so subtrees are disjoint.  The
        bound is a greedy packing of unmet matchings, in lexicographic
        order (descending id, each the top id of what is left), whose
        unbanned class sets are pairwise disjoint: only unbanned classes
        may be chosen, so each needs a class of its own.  A matching meets
        class c iff its id is in msets[c], so dropping the masks of a
        packed matching's unbanned classes leaves exactly the candidates
        that share none of them.  A packed matching with every class
        banned can never be met, which ends the node.

        A packing of exactly `budget` matchings is tight: a hitting set
        within budget takes exactly one unbanned class from each packed
        matching and no other class.  The first packed matching is the one
        the node branches on, so the class c chosen from it must meet
        every unmet matching that no unbanned class of packed matchings
        2..p meets (`only`); a class with `only & msets[c] != only` is
        skipped and banned like a failed sibling.  At budget 1 `only` is
        all of `unmet`, so no child is left to fail at budget 0.
        """
        self._tick()
        if not unmet:
            return True
        matchings = self.matchings
        packed = 0
        cand = unmet
        other = 0
        while cand:
            packed += 1
            if packed > budget:
                return False
            hit = 0
            for e in matchings[cand.bit_length() - 1]:
                c = cls[e]
                if not banned >> c & 1:
                    hit |= msets[c]
            if not hit:
                # every class of the matching is banned
                return False
            cand ^= cand & hit
            if packed > 1:
                other |= hit
        only = unmet ^ (unmet & other) if packed == budget else 0
        for e in matchings[unmet.bit_length() - 1]:
            c = cls[e]
            if banned >> c & 1:
                continue
            mc = msets[c]
            if only & mc == only and self._meets(
                cls, msets, unmet ^ (unmet & mc), budget - 1, banned
            ):
                return True
            banned |= 1 << c
        return False

    def _last_merge(
        self, cls: list[int], msets: list[int], apart: list[int],
        violated: int, a: int, b: int,
    ) -> tuple[int, int] | None:
        """The first merge that the child merging classes a < b would find
        feasible, as its pair of class labels, or None; `violated` is the
        child's violated mask.

        In the child class b reads as a, with mask msets[a] | msets[b] and
        the apart rows of a and b OR-ed.  Its transversal cut at need 2
        keeps the classes of its first violated matching (the top id of
        `violated`) whose mask covers `violated`, and merging two classes
        satisfies exactly the intersection of their masks, so a pair is
        feasible iff both of its classes are kept.  The child tries pairs
        in ascending order and skips the ones kept apart, so its first is
        the first such pair.
        """
        mab = msets[a] | msets[b]
        keep = []
        for e in self.matchings[violated.bit_length() - 1]:
            x = cls[e]
            if x == b:
                x = a
            if violated & (mab if x == a else msets[x]) == violated:
                keep.append(x)
        if len(keep) < 2:
            return None
        keep.sort()
        ab = 1 << a | 1 << b
        for i, x in enumerate(keep):
            row = apart[a] | apart[b] if x == a else apart[x]
            for y in keep[i + 1:]:
                if not row & (ab if y == a else 1 << y):
                    return x, y
        return None

    def run(
        self,
        cls: list[int],
        members: list[int],
        msets: list[int],
        apart: list[int],
        violated: int,
        count: int,
    ) -> None:
        # class labels are canonical (each class is named by its least edge);
        # this node owns `apart` and marks each finished sibling pair in it.
        # A child one merge above the bound is settled here by _last_merge
        # (leaf fusion) instead of being run.
        self._tick()
        bound = max(self.best_value, self.floor)
        if count - 1 <= bound:
            return
        if self._prunable(cls, msets, violated, count - bound):
            return

        mid = violated.bit_length() - 1
        roots = sorted(cls[e] for e in self.matchings[mid])
        for a, b in combinations(roots, 2):
            if apart[a] >> b & 1:
                continue
            child_violated = violated ^ (violated & msets[a] & msets[b])
            if not child_violated:
                # feasible one merge away: record without building the child
                if count - 1 > self.best_value:
                    self.best_value = count - 1
                    self.best_coloring = _renamed(cls, members[b], a)
            elif count - 3 == max(self.best_value, self.floor):
                # the child is one merge above the bound: only its first
                # feasible merge can count, so find it without the child
                self._tick()
                pair = self._last_merge(cls, msets, apart, child_violated, a, b)
                if pair is not None:
                    x, y = pair
                    self.best_value = count - 2
                    self.best_coloring = [
                        x if c == y else c for c in _renamed(cls, members[b], a)
                    ]
            elif count - 2 > max(self.best_value, self.floor):
                child_members = list(members)
                child_members[a] = members[a] | members[b]
                child_members[b] = 0
                child_msets = list(msets)
                child_msets[a] = msets[a] | msets[b]
                child_msets[b] = 0
                # b's apart partners become a's, and a takes b's row
                row = apart[b]
                child_apart = list(apart)
                child_apart[a] |= row
                child_apart[b] = 0
                for x in iter_bits(row):
                    child_apart[x] = child_apart[x] & ~(1 << b) | 1 << a
                self.run(
                    _renamed(cls, members[b], a), child_members, child_msets,
                    child_apart, child_violated, count - 1,
                )
            # later siblings keep this pair apart, whether its child was
            # searched, recorded as a leaf or cut by the bound
            apart[a] |= 1 << b
            apart[b] |= 1 << a


def ar_exact(
    g: Graph,
    k: int,
    *,
    max_nodes: int | None = None,
    max_millis: float | None = None,
    floor: int = 0,
) -> ArResult:
    """Exact ar(G, M_k) with a verifying witness coloring.

    Every call is a complete search above `floor`: it finds a coloring with
    more than `floor` colors whenever one exists, and the best of them is
    the value.  When none exists the seed's coloring is returned with
    upper = floor, which is EXACT only if the seed reaches the floor; so a
    completed search gives upper = max(value, floor).  Only a budget
    (`max_nodes`, `max_millis`) ends the search early; it leaves
    upper = None, never a wrong answer.  A negative budget is a ValueError.
    """
    _validate(g, k)
    check_budgets(max_nodes=max_nodes, max_millis=max_millis)
    start = time.perf_counter()
    g6 = graph6_encode(g)
    m = g.edge_count

    if k == 1:
        return ArResult(g6, k, 0, 0, None, 0, _ms(start))
    matchings, touch = masks = _matching_masks(g, k)
    if not matchings:
        return ArResult(g6, k, m, m, _all_distinct(m), 0, _ms(start))

    search = _Search(
        matchings, max_nodes, max_millis, floor, start,
        seed_incumbent(g, k, _masks=masks),
    )
    upper = None
    try:
        search.run(
            list(range(m)),
            [1 << e for e in range(m)],
            touch,
            [0] * m,
            (1 << len(matchings)) - 1,
            m,
        )
        upper = max(search.best_value, floor)
    except _Budget:
        pass

    witness = EdgeColoring.from_sequence(search.best_coloring)
    return ArResult(
        g6, k, search.best_value, upper, witness, search.nodes, _ms(start),
    )
