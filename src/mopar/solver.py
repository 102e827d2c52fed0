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
once.  A hitting set within the budget takes one unbanned class from
each packed matching and at most `slack` others, the budget less the
packing's size.  No unbanned class of packed matchings 2..p meets a
matching of `only`, the unmet matchings that share none of their
classes, so once the node's branch class, a class of the first packed
matching, is chosen, the rest of `only` is met by at most `slack`
classes: at slack 0 it must be empty, and at slack 1 one unbanned class
of its top matching must meet all of it.  A branch class that fails is
skipped and banned like a failed sibling.  At the root nothing is banned
and tau is the k-matching transversal number, so the first cut is
ar(G, M_k) <= ex(G, M_k) = m - tau.  Nodes of both searches count
against the budget.

The partition search applies the same rule to its children.  Each node
builds the packing of its violated matchings with nothing banned, once,
and hands it to its hitting-set search.  A child merging classes a and
b of the top matching, the first packed one, keeps packed matchings
2..p violated and class-disjoint, and its budget is at most need - 1 (a
bound raised by an earlier sibling only lowers it).  So the rest of
`only`, `only ^ (only & msets[a] & msets[b])`, is met by at most `slack`
classes of the child, the merged class reading msets[a] | msets[b]; a
child that fails is marked apart without being built, settled or
searched.  Both rules drop only subtrees that would be searched and
found empty, and keep the order of the rest, so every answer and
witness is as it was without them; only node counts fall.

The hitting-set search returns the set it found, and every child the
node builds inherits that set with class b renamed to a.  A child's
violated matchings are among its parent's, and the merged class holds
every edge of a and b, so the renamed set still meets each of them.  A
child whose inherited set fits its own budget therefore skips its
search, which would succeed; only transversal nodes disappear, so the
partition tree, the incumbents and the witnesses are unchanged.

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
read without building a new int.  Each edge's mask is parsed from one row
of "0"/"1" bytes over the matchings instead of being OR-ed together one
bit at a time.  Merging classes a and b satisfies exactly
`msets[a] & msets[b]`, so the child's violated mask is
`violated ^ (violated & msets[a] & msets[b])`: a difference written this
way, and a subset test written `x & y == x`, cost the width of the
narrower operand, where `x & ~y` costs the width of y.  Masks lose their
first matchings first, so they narrow as the search deepens.  The
transversal bound and the greedy seed read the same masks: the seed
counts the violated matchings that hold both classes a and b as
`(violated & msets[a] & msets[b]).bit_count()`, and between merges keeps
each class's best count as a bound, so it recounts only the classes
whose bound could still win.  The apart pairs are one mask per class over
class labels, merged like `msets`; a pair marked apart is never a child.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .graphs import Graph, graph6_encode, iter_bits
# not called here; the benchmark tracer patches solver.matching_number by name
from .matchings import iterate_k_matchings, matching_number  # noqa: F401
from .rainbow import (
    EdgeColoring, certificate_from_json, certificate_to_json, is_int, json_field,
)

EXACT = "EXACT"
LOWER_BOUND = "LOWER_BOUND"

MAX_K = 8


@dataclass
class ArResult:
    """Solver output: proved bounds value <= ar(G, M_k) <= upper.

    `value` is the witness's color count, so it always has a witness that
    verifies at exactly that many colors.  `upper` is the bound the search
    proved: the value itself, or the floor a completed search found
    nothing above, or None when a budget ended the search.  `mode` is
    EXACT when upper == value and LOWER_BOUND otherwise; JSON carries
    both.  For k = 1 no rainbow-free coloring exists at all, so the
    witness is None and value is 0.
    """

    graph6: str
    k: int
    upper: int | None
    witness: EdgeColoring | None
    nodes: int
    elapsed_ms: float
    # runner.verify_result's memo of a passed check; `dataclasses.replace`
    # and `from_json` start unchecked
    _verified: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def value(self) -> int:
        return 0 if self.witness is None else self.witness.num_colors

    @property
    def mode(self) -> str:
        return EXACT if self.upper == self.value else LOWER_BOUND

    def to_json(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = certificate_to_json(self.graph6, self.k, self.witness)
        return {
            "graph": self.graph6,
            "k": self.k,
            "value": self.value,
            "upper": self.upper,
            "mode": self.mode,
            "witness": witness,
            "nodes": self.nodes,
            "elapsed_ms": self.elapsed_ms,
        }

    @staticmethod
    def from_json(data: dict) -> ArResult:
        """Read `to_json` output.  A missing or wrongly typed field, a
        witness for another graph or k, and a value or mode that the
        witness and upper do not give are ValueErrors."""
        if not isinstance(data, dict):
            raise ValueError("result must be a JSON object")

        def read(key, valid, what):
            return json_field(data, key, valid, what, owner="result")

        graph6 = read("graph", lambda v: isinstance(v, str), "a graph6 string")
        k = read("k", is_int, "an integer")
        value = read("value", is_int, "an integer")
        mode = read("mode", lambda v: v in (EXACT, LOWER_BOUND), "a mode")
        nodes = read("nodes", is_int, "an integer")
        elapsed_ms = read(
            "elapsed_ms", lambda v: is_int(v) or isinstance(v, float),
            "a number",
        )
        upper = read("upper", lambda v: v is None or is_int(v),
                     "an integer or null")
        witness = None
        cert = read("witness", lambda v: v is None or isinstance(v, dict),
                    "a certificate or null")
        if cert is not None:
            named, named_k, witness = certificate_from_json(cert)
            if (named, named_k) != (graph6, k):
                raise ValueError(
                    f"witness is for {named!r}, k={named_k}, not the result's"
                )
        result = ArResult(graph6, k, upper, witness, nodes, elapsed_ms)
        if (value, mode) != (result.value, result.mode):
            raise ValueError(
                f"value {value} and mode {mode} disagree with the witness's "
                f"{result.value} colors"
            )
        return result

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


def check_budget(max_nodes: int | None) -> None:
    """Raise ValueError for a negative node budget; None means unlimited."""
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must not be negative; got {max_nodes}")


def _all_distinct(m: int) -> EdgeColoring:
    return EdgeColoring(tuple(range(m)), m)


def _matching_masks(g: Graph, k: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The k-matchings of g by id, and for each edge the mask of the
    matching ids that contain it.  Ids run in reverse lexicographic order,
    so the lexicographically first matching in a mask is its top bit.

    The matchings come from `iterate_k_matchings` (called by name, so a
    tracer that wraps it sees the build).  Each edge's mask is read from a
    row of ASCII digits, one per matching in lexicographic order, with a
    "1" where the matching holds the edge: the j-th of N matchings has id
    N - 1 - j, so the row read as a binary numeral is the mask, and no int
    is built per (matching, edge)."""
    matchings = list(iterate_k_matchings(g, k))
    touch = [0] * g.edge_count
    if matchings:
        rows = [bytearray(b"0") * len(matchings) for _ in touch]
        j = 0
        for matching in matchings:
            for e in matching:
                rows[e][j] = 49  # ord("1")
            j += 1
        touch = [int(row, 2) for row in rows]
        matchings.reverse()
    return matchings, touch


def seed_incumbent(
    g: Graph,
    k: int,
    *,
    _masks: tuple[list[tuple[int, ...]], list[int]] | None = None,
) -> EdgeColoring:
    """Greedy rainbow-free coloring: repeatedly merge the class pair occurring
    in the most violated k-matchings, ties to the least pair.

    A matching id is in msets[c] exactly when the matching has an edge in
    class c, so pair (a, b) occurs in
    `(violated & msets[a] & msets[b]).bit_count()` violated matchings.

    Each class a keeps a bound on the counts of its pairs (a, b) with
    b > a, and a scan counts a's pairs only when that bound beats the
    best pair found so far; a counted class's bound is its exact best
    count.  A merge of b into a can raise only the counts of a's pairs;
    every other count can only fall, since `violated` shrinks and the
    masks stay.  So after a merge a's bound is the count of its own
    violated matchings, and each earlier class takes its count with a
    when that is higher.

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
    # top[a] bounds the count of every pair (a, b) with b > a
    top = [mask.bit_count() for mask in msets]

    while violated:
        best = 0
        for i, a in enumerate(live):
            if top[a] <= best:
                continue
            sa = violated & msets[a]
            most = 0
            for b in live[i + 1:]:
                count = (sa & msets[b]).bit_count()
                if count > most:
                    most = count
                    if count > best:
                        best, pair = count, (a, b)
            top[a] = most
        a, b = pair
        live.remove(b)
        violated ^= violated & msets[a] & msets[b]
        msets[a] |= msets[b]
        for e in range(m):
            if cls[e] == b:
                cls[e] = a
        # only a's pairs can count more than before
        sa = violated & msets[a]
        top[a] = sa.bit_count()
        for x in live[:live.index(a)]:
            top[x] = max(top[x], (sa & msets[x]).bit_count())
    return EdgeColoring.from_sequence(cls)


def _renamed(cls: list[int], b: int, a: int) -> list[int]:
    """A copy of the class labels with class b put in class a."""
    return [a if c == b else c for c in cls]


class _Search:
    def __init__(
        self,
        matchings: list[tuple[int, ...]],
        max_nodes: int | None,
        floor: int,
        seed: EdgeColoring,
    ):
        self.matchings = matchings
        self.max_nodes = max_nodes
        self.nodes = 0
        # the color count a coloring must beat: the floor, or the best
        # coloring recorded so far when that has more colors
        self.bound = max(seed.num_colors, floor)
        self.best_coloring: Sequence[int] = seed.colors

    def _tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _Budget

    def _pack(
        self, cls: list[int], msets: list[int], unmet: int, budget: int,
        banned: int,
    ) -> tuple[int, int] | None:
        """The slack of the greedy packing that bounds a hitting set of
        `unmet` within `budget` classes outside `banned`, and its `only`
        mask; None when the packing alone shows that no such set exists.

        The packing takes unmet matchings in lexicographic order
        (descending id, each the top id of what is left) whose unbanned
        class sets are pairwise disjoint: only unbanned classes may be
        chosen, so each needs a class of its own.  A matching meets class
        c iff its id is in msets[c], so dropping the masks of a packed
        matching's unbanned classes leaves exactly the candidates that
        share none of them.  More than `budget` packed matchings, or one
        with every class banned, ends the node.  The slack is `budget`
        less the packing's size; at slack 0 or 1, `only` is the unmet
        matchings that share no unbanned class with packed matchings
        2..p, and at a larger slack it is 0, which prunes nothing.
        """
        matchings = self.matchings
        packed = 0
        cand = unmet
        other = 0
        while cand:
            packed += 1
            if packed > budget:
                return None
            hit = 0
            for e in matchings[cand.bit_length() - 1]:
                c = cls[e]
                if not banned >> c & 1:
                    hit |= msets[c]
            if not hit:
                # every class of the matching is banned
                return None
            cand ^= cand & hit
            if packed > 1:
                other |= hit
        slack = budget - packed
        return slack, unmet ^ (unmet & other) if slack < 2 else 0

    def _one_meets(
        self, cls: list[int], msets: list[int], rest: int, banned: int,
        a: int, b: int,
    ) -> bool:
        """Whether one class outside `banned` meets every matching in
        `rest`, with class b read as a and a's mask as msets[a] | msets[b]
        (the child of that merge; a == b for no merge).  Such a class
        meets the top matching of `rest`, so only its classes are tried."""
        for e in self.matchings[rest.bit_length() - 1]:
            x = cls[e]
            if x == a or x == b:
                if rest & (msets[a] | msets[b]) == rest:
                    return True
            elif not banned >> x & 1 and rest & msets[x] == rest:
                return True
        return False

    def _meets(
        self, cls: list[int], msets: list[int], unmet: int, budget: int,
        banned: int, packing: tuple[int, int] | None = None,
    ) -> int | None:
        """The mask of at most `budget` class labels outside the mask
        `banned` that meet every matching in `unmet`, or None when no such
        set exists.  The empty set, 0, is a valid answer (an empty
        `unmet`), so callers test `is None`.  `packing` is `_pack`'s
        answer for these arguments when the caller has it already.

        Branches on the classes of the first unmet matching (the top id),
        banning each in the later siblings, so subtrees are disjoint.  That
        matching is the first packed one, and a hitting set within budget
        takes one unbanned class from each packed matching and at most
        `slack` others; those it takes from packed matchings 2..p meet no
        matching of `only`.  So the rest of `only` once class c is chosen,
        `only ^ (only & msets[c])`, must be met by at most `slack` other
        classes: none at slack 0, one at slack 1.  A class that fails is
        skipped and banned like a failed sibling.  At budget 1 `only` is
        all of `unmet`, so no child is left to fail at budget 0.
        """
        self._tick()
        if not unmet:
            return 0
        if packing is None:
            packing = self._pack(cls, msets, unmet, budget, banned)
            if packing is None:
                return None
        slack, only = packing
        for e in self.matchings[unmet.bit_length() - 1]:
            c = cls[e]
            if banned >> c & 1:
                continue
            mc = msets[c]
            rest = only ^ (only & mc)
            if not rest or slack and self._one_meets(
                cls, msets, rest, banned, c, c
            ):
                found = self._meets(
                    cls, msets, unmet ^ (unmet & mc), budget - 1, banned
                )
                if found is not None:
                    return found | 1 << c
            banned |= 1 << c
        return None

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
        msets: list[int],
        apart: list[int],
        violated: int,
        count: int,
        hitting: int | None = None,
    ) -> None:
        # class labels are canonical (each class is named by its least edge);
        # this node owns `apart` and marks each finished sibling pair in it.
        # A child one merge above the bound is settled here by _last_merge
        # (leaf fusion) instead of being run.  `hitting` is the parent's
        # hitting set with the merged class renamed: it meets every
        # violated matching here, so when it fits the budget the cut's
        # search would succeed and is skipped.
        self._tick()
        if count - 1 <= self.bound:
            return
        need = count - self.bound - 1
        packing = self._pack(cls, msets, violated, need, 0)
        if packing is None:
            return
        if hitting is None or hitting.bit_count() > need:
            hitting = self._meets(cls, msets, violated, need, 0, packing)
            if hitting is None:
                return

        # a child merging a and b keeps packed matchings 2..p violated at a
        # budget of need - 1 or less, so it must meet the rest of `only`
        # with at most `slack` classes (the module docstring has the rule)
        slack, only = packing
        mid = violated.bit_length() - 1
        roots = sorted(cls[e] for e in self.matchings[mid])
        for a, b in combinations(roots, 2):
            if apart[a] >> b & 1:
                continue
            both = msets[a] & msets[b]
            child_violated = violated ^ (violated & both)
            rest = only ^ (only & both)
            if not child_violated:
                # feasible one merge away: record without building the child
                if count - 1 > self.bound:
                    self.bound = count - 1
                    self.best_coloring = _renamed(cls, b, a)
            elif count - 2 <= self.bound or rest and not (
                slack and self._one_meets(cls, msets, rest, 0, a, b)
            ):
                # the bound, or the child's transversal cut, would end it
                pass
            elif count - 3 == self.bound:
                # the child is one merge above the bound: only its first
                # feasible merge can count, so find it without the child
                self._tick()
                pair = self._last_merge(cls, msets, apart, child_violated, a, b)
                if pair is not None:
                    x, y = pair
                    self.bound = count - 2
                    self.best_coloring = [
                        x if c == y else c for c in _renamed(cls, b, a)
                    ]
            else:
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
                child_hitting = hitting
                if hitting >> b & 1:
                    child_hitting = hitting ^ 1 << b | 1 << a
                self.run(
                    _renamed(cls, b, a), child_msets, child_apart,
                    child_violated, count - 1, child_hitting,
                )
            # later siblings keep this pair apart, whether its child was
            # searched, recorded as a leaf or cut
            apart[a] |= 1 << b
            apart[b] |= 1 << a


def ar_exact(
    g: Graph,
    k: int,
    *,
    max_nodes: int | None = None,
    floor: int = 0,
) -> ArResult:
    """Exact ar(G, M_k) with a verifying witness coloring.

    Every call is a complete search above `floor`: it finds a coloring with
    more than `floor` colors whenever one exists, and the best of them is
    the value.  When none exists the seed's coloring is returned with
    upper = floor, which is EXACT only if the seed reaches the floor; so a
    completed search gives upper = max(value, floor).  Only the node
    budget `max_nodes` ends the search early; it leaves upper = None,
    never a wrong answer.  A negative budget is a ValueError.
    """
    _validate(g, k)
    check_budget(max_nodes)
    start = time.perf_counter()
    g6 = graph6_encode(g)
    m = g.edge_count

    if k == 1:
        return ArResult(g6, k, 0, None, 0, _ms(start))
    matchings, touch = masks = _matching_masks(g, k)
    if not matchings:
        return ArResult(g6, k, m, _all_distinct(m), 0, _ms(start))

    search = _Search(
        matchings, max_nodes, floor, seed_incumbent(g, k, _masks=masks)
    )
    upper = None
    try:
        search.run(
            list(range(m)), touch, [0] * m, (1 << len(matchings)) - 1, m
        )
        upper = search.bound
    except _Budget:
        pass

    witness = EdgeColoring.from_sequence(search.best_coloring)
    return ArResult(g6, k, upper, witness, search.nodes, _ms(start))
