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
disjoint, so no partition is visited twice.  A node with nothing
violated is a coloring, recorded at its entry when its class count beats
the bound: the one place an incumbent is recorded.

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
ar(G, M_k) <= ex(G, M_k) = m - tau.  Every node of both searches is
one call and counts against the budget, so a budget B stops on node
B + 1; a budget-1 node builds no packing and branches at slack 0.

The partition search applies the same rule to its children.  Each node
builds the packing of its violated matchings in `run`, with nothing
banned and so with no ban test, once, and hands its slack and `only` to
its hitting-set search; every deeper hitting-set node builds its own
packing in `_meets`, under its bans.  A child merging classes a and
b of the top matching, the first packed one, keeps packed matchings
2..p violated and class-disjoint, and its budget is at most need - 1 (a
bound raised by an earlier sibling only lowers it).  So the rest of
`only`, `only ^ (only & msets[a] & msets[b])`, is met by at most `slack`
classes of the child.  At slack 1 the merged class, msets[a] | msets[b],
is tried first, then the child's other classes with a and b banned; a
child that fails is marked apart without being built or searched.
Both rules drop only subtrees that would be searched and found empty,
and keep the order of the rest, so every answer and witness is as it
was without them; only node counts fall.

The hitting-set search returns the set it found, and every child the
node builds inherits that set with class b renamed to a.  A child's
violated matchings are among its parent's, and the merged class holds
every edge of a and b, so the renamed set still meets each of them.  A
child whose inherited set fits its own budget therefore skips its
search, which would succeed; only transversal nodes disappear, so the
partition tree, the incumbents and the witnesses are unchanged.

Every solve names edges, class labels and matchings by their positions
in an edge order, and maps the coloring it found back through that order
to the caller's edge indices before it leaves `ar_exact`.  A search
above a positive floor takes the labeling's order, the identity.  A full
search (floor 0) takes its own: edges sorted by the larger degree of
their two endpoints, ascending, ties in edge-index order, so the first
violated matching, the one every node branches on, is made of edges at
low-degree vertices first.  Values and uppers are the same member by
member in either order, and floor-0 node totals fall.  The rule stops at
floor 0 because a positive floor is a seeded one (a class sweep's floor
near the class value, or the audit's cached upper), and there it costs
1.4-4x the nodes: it pays only while the search is still finding the
value.  A floor between 1
and the seed's color count prunes nothing that floor 0 does not, since
the search must beat the seed anyway, but it keeps the labeling's
order, so its tree and witness can differ from the floor-0 solve's.

Search state is Python ints over matching ids: each class keeps the mask
of matchings that touch it, and the violated matchings form one mask.  Ids
run in reverse lexicographic order over the solve's edge order (the i-th
of N k-matchings that `iterate_k_matchings` lists in that order has id
N - 1 - i), so the first violated matching, which every node branches on,
is the top bit, `mask.bit_length() - 1`, read without building a new int.
The walk that lists the matchings also records each one's edge mask, and
the edge masks are transposed in C: packed into 64-bit words, each byte
column of the words is sliced out and mapped to a row of "0"/"1" bytes,
one row per edge, which parses as that edge's mask.  No mask is OR-ed
together one bit at a time, and no Python statement runs per (matching,
edge).  Merging classes a and b
satisfies exactly `msets[a] & msets[b]`, so the child's violated mask is
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
A class map is `bytes` with one label per edge, so `cls[e]` reads an int
as a list would, and a child renames class b to a in one C call,
`cls.replace(_BYTE[b], _BYTE[a])`, as the seed does after each merge.
Labels are one byte, so the solver refuses a graph of more than
MAX_EDGES = 255 edges; a MOP of order 18 has 33.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .graphs import Graph, graph6_encode
# not called here; the benchmark tracer patches solver.matching_number by name
from .matchings import iterate_k_matchings, matching_number  # noqa: F401
from .rainbow import (
    EdgeColoring, certificate_from_json, certificate_to_json, is_int, json_field,
)

EXACT = "EXACT"
LOWER_BOUND = "LOWER_BOUND"

MAX_K = 8
# a longer solve time is corrupt: it is about 31,700 years, and the sum
# over the largest class, 983,244 members at order 18, stays finite
MAX_ELAPSED_MS = 1e15
# class labels are edge ids, one byte each; _BYTE[x] is label x's byte
MAX_EDGES = 255
_BYTE = tuple(bytes((x,)) for x in range(256))
# _DIGITS[b] maps each byte to b"1" when its bit b is set, else to b"0"
_DIGITS = tuple(bytes(48 + (x >> b & 1) for x in range(256)) for b in range(8))


@dataclass
class ArResult:
    """Solver output: proved bounds value <= ar(G, M_k) <= upper.

    `value` is the witness's color count, so it always has a witness that
    verifies at exactly that many colors.  `upper` is the bound the search
    proved: the value itself, or the floor a completed search found
    nothing above, or None when a budget ended the search.  `mode` is
    EXACT when upper == value and LOWER_BOUND otherwise; JSON carries
    both.  An upper below the value is a ValueError, raised for a solved
    result, a parsed cache line and a `dataclasses.replace` copy alike.
    """

    graph6: str
    k: int
    upper: int | None
    witness: EdgeColoring
    nodes: int
    elapsed_ms: float
    # runner.verify_result's memo of a passed check, kept when the result
    # is pickled (a pool worker's check reaches the parent); a
    # `dataclasses.replace` copy and `from_json` start unchecked
    _verified: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.upper is not None and self.upper < self.value:
            raise ValueError(
                f"upper {self.upper} is below the witness's {self.value} colors"
            )

    @property
    def value(self) -> int:
        return self.witness.num_colors

    @property
    def mode(self) -> str:
        return EXACT if self.upper == self.value else LOWER_BOUND

    def to_json(self) -> dict:
        return {
            "graph": self.graph6,
            "k": self.k,
            "value": self.value,
            "upper": self.upper,
            "mode": self.mode,
            "witness": certificate_to_json(self.graph6, self.k, self.witness),
            "nodes": self.nodes,
            "elapsed_ms": self.elapsed_ms,
        }

    @staticmethod
    def from_json(data: dict) -> ArResult:
        """Read `to_json` output.  A missing or wrongly typed field (a
        null witness included), a k outside 2..MAX_K, a negative node
        count, a time below 0 or above MAX_ELAPSED_MS, a witness for
        another graph or k, an upper below the witness's colors, and a
        value or mode that the witness and upper do not give are
        ValueErrors: no solve produces them."""
        if not isinstance(data, dict):
            raise ValueError("result must be a JSON object")

        def read(key, valid, what):
            return json_field(data, key, valid, what, owner="result")

        graph6 = read("graph", lambda v: isinstance(v, str), "a graph6 string")
        k = read("k", is_int, "an integer")
        check_k(k)
        value = read("value", is_int, "an integer")
        mode = read("mode", lambda v: v in (EXACT, LOWER_BOUND), "a mode")
        nodes = read("nodes", lambda v: is_int(v) and v >= 0,
                     "a non-negative integer")
        elapsed_ms = read(
            "elapsed_ms",
            lambda v: (is_int(v) or isinstance(v, float))
            and 0 <= v <= MAX_ELAPSED_MS,
            f"a non-negative number of at most {MAX_ELAPSED_MS:g}",
        )
        upper = read("upper", lambda v: v is None or is_int(v),
                     "an integer or null")
        cert = read("witness", lambda v: isinstance(v, dict), "a certificate")
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


def check_k(k: int) -> None:
    """Raise ValueError unless 2 <= k <= MAX_K.  Every coloring has a
    rainbow 1-matching, so ar(G, M_1) does not exist."""
    if not 2 <= k <= MAX_K:
        raise ValueError(f"matching size k={k} outside 2..{MAX_K}")


def _validate(g: Graph, k: int) -> None:
    check_k(k)
    if not 1 <= g.edge_count <= MAX_EDGES:
        raise ValueError(f"graph has {g.edge_count} edges, outside 1..{MAX_EDGES}")


def check_budget(max_nodes: int | None) -> None:
    """Raise ValueError for a negative node budget; None means unlimited."""
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must not be negative; got {max_nodes}")


def check_floor(floor: int) -> None:
    """Raise ValueError for a negative floor; 0 asks for a full search."""
    if floor < 0:
        raise ValueError(f"floor must not be negative; got {floor}")


def _matching_masks(
    g: Graph, k: int, order: Sequence[int] | None = None,
) -> tuple[list[tuple[int, ...]], list[int]]:
    """The k-matchings of g by id, and for each edge the mask of the
    matching ids that contain it.  Ids run in reverse lexicographic order,
    so the lexicographically first matching in a mask is its top bit.
    Edges are named by their positions in `order`, a permutation of the
    edge indices that is passed on as `iterate_k_matchings`' `_order`,
    and the order is lexicographic over those positions; every solve
    passes its own, and None is the graph's order.

    The matchings and their edge masks come from one walk of
    `iterate_k_matchings` (called by name, so a tracer that wraps it sees
    the walk).  The edge masks are then transposed in C.  Packed as
    little-endian 64-bit words, byte b of every word is the byte column
    `data[b::8]`, one byte per matching in lexicographic order, and
    `column.translate(_DIGITS[e % 8])` turns the column of edge e into a
    row of ASCII digits with a "1" where the matching holds e.  The j-th
    of N matchings has id N - 1 - j, so the row read as a binary numeral
    is e's mask, and no Python statement runs per (matching, edge).  A
    graph of more than 64 edges is packed and transposed one lane of 64
    edges at a time."""
    edge_masks: list[int] = []
    matchings = list(
        iterate_k_matchings(g, k, _edge_masks=edge_masks, _order=order)
    )
    m = g.edge_count
    if not matchings:
        return matchings, [0] * m
    touch: list[int] = []
    for lane in range(0, m, 64):
        words = array("Q", edge_masks if m <= 64 else [
            x >> lane & 0xFFFF_FFFF_FFFF_FFFF for x in edge_masks
        ])
        if sys.byteorder == "big":
            words.byteswap()
        data = words.tobytes()
        # edges e..e+7 share one byte column of their lane
        for e in range(lane, min(lane + 64, m), 8):
            column = data[e - lane >> 3::8]
            touch += [
                int(column.translate(digits), 2) for digits in _DIGITS[:m - e]
            ]
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

    `_masks` is `_matching_masks(g, k, order)` when ar_exact has built it
    already, so a solve enumerates the k-matchings once; the coloring is
    then over the positions of `order`.
    """
    _validate(g, k)
    m = g.edge_count
    matchings, msets = _masks or _matching_masks(g, k)
    cls = bytes(range(m))
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
        cls = cls.replace(_BYTE[b], _BYTE[a])
        # only a's pairs can count more than before
        sa = violated & msets[a]
        top[a] = sa.bit_count()
        for x in live[:live.index(a)]:
            top[x] = max(top[x], (sa & msets[x]).bit_count())
    return EdgeColoring.from_sequence(cls)


class _Search:
    def __init__(
        self,
        matchings: list[tuple[int, ...]],
        max_nodes: int | None,
        floor: int,
        seed: EdgeColoring,
    ):
        self.matchings = matchings
        self.nodes = 0
        # each node adds 1 to `nodes`, and the search stops on the node
        # that passes `limit`; no search runs to 2**63 nodes
        self.limit = (1 << 63) if max_nodes is None else max_nodes
        # the color count a coloring must beat: the floor, or the best
        # coloring recorded so far when that has more colors
        self.bound = max(seed.num_colors, floor)
        self.best_coloring: Sequence[int] = seed.colors

    def _one_meets(
        self, cls: bytes, msets: list[int], rest: int, banned: int,
    ) -> int:
        """The mask of the first class outside `banned` that meets every
        matching in `rest`, or 0 when none does.  Such a class meets the
        top matching of `rest`, so only its classes are tried, in the order
        of its edges.  For the child merging a and b the caller tests the
        merged class itself and bans a and b here."""
        for e in self.matchings[rest.bit_length() - 1]:
            x = cls[e]
            if not banned >> x & 1 and rest & msets[x] == rest:
                return 1 << x
        return 0

    def _meets(
        self, cls: bytes, msets: list[int], unmet: int, budget: int,
        banned: int, slack: int | None = None, only: int = 0,
    ) -> int | None:
        """The mask of at most `budget` class labels outside the mask
        `banned` that meet every matching in `unmet`, or None when no such
        set exists.  The empty set, 0, is a valid answer (an empty
        `unmet`), so callers test `is None`.  `slack` and `only` are the
        packing's for these arguments when the caller has built it
        already.

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

        Branches on the classes of the first unmet matching (the top id),
        banning each in the later siblings, so subtrees are disjoint.  That
        matching is the first packed one, and a hitting set within budget
        takes one unbanned class from each packed matching and at most
        `slack` others; those it takes from packed matchings 2..p meet no
        matching of `only`.  So the rest of `only` once class c is chosen,
        `only ^ (only & msets[c])`, must be met by at most `slack` other
        classes: none at slack 0, one at slack 1.  A class that fails is
        skipped and banned like a failed sibling.

        A node at budget 1 builds no packing: it would end the node unless
        it held only the top matching, so the node branches at slack 0
        with `only` = `unmet`, and a class must meet every unmet matching.
        """
        self.nodes += 1
        if self.nodes > self.limit:
            raise _Budget
        if not unmet:
            return 0
        matchings = self.matchings
        if budget == 1:
            slack, only = 0, unmet
        elif slack is None:
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
            if slack < 2:
                only = unmet ^ (unmet & other)
        for e in matchings[unmet.bit_length() - 1]:
            c = cls[e]
            if banned >> c & 1:
                continue
            mc = msets[c]
            rest = only ^ (only & mc)
            if not rest or slack and self._one_meets(cls, msets, rest, banned):
                found = self._meets(
                    cls, msets, unmet ^ (unmet & mc), budget - 1, banned
                )
                if found is not None:
                    return found | 1 << c
            banned |= 1 << c
        return None

    def run(
        self,
        cls: bytes,
        msets: list[int],
        apart: list[int],
        violated: int,
        count: int,
        hitting: int | None = None,
    ) -> None:
        # class labels are canonical (each class is named by its least edge);
        # this node owns `apart` and marks each finished sibling pair in it.
        # `hitting` is the parent's hitting set with the merged class
        # renamed: it meets every violated matching here, so when it fits
        # the budget the cut's search would succeed and is skipped.
        self.nodes += 1
        if self.nodes > self.limit:
            raise _Budget
        if not violated:
            if count > self.bound:
                self.bound = count
                self.best_coloring = cls
            return
        if count - 1 <= self.bound:
            return
        need = count - self.bound - 1
        # the greedy packing of `_meets`, built here with nothing banned
        matchings = self.matchings
        packed = 0
        cand = violated
        other = 0
        while cand:
            packed += 1
            if packed > need:
                return
            hit = 0
            for e in matchings[cand.bit_length() - 1]:
                hit |= msets[cls[e]]
            cand ^= cand & hit
            if packed > 1:
                other |= hit
        slack = need - packed
        only = violated ^ (violated & other) if slack < 2 else 0
        if hitting is None or hitting.bit_count() > need:
            hitting = self._meets(cls, msets, violated, need, 0, slack, only)
            if hitting is None:
                return

        # a child merging a and b keeps packed matchings 2..p violated at a
        # budget of need - 1 or less, so it must meet the rest of `only`
        # with at most `slack` classes (the module docstring has the rule)
        roots = sorted([cls[e] for e in matchings[violated.bit_length() - 1]])
        for a, b in combinations(roots, 2):
            if apart[a] >> b & 1:
                continue
            both = msets[a] & msets[b]
            rest = only ^ (only & both)
            if not rest or slack and (
                rest & (msets[a] | msets[b]) == rest
                or self._one_meets(cls, msets, rest, 1 << a | 1 << b)
            ):
                child_msets = msets.copy()
                child_msets[a] = msets[a] | msets[b]
                child_msets[b] = 0
                # b's apart partners become a's, and a takes b's row
                row = apart[b]
                child_apart = apart.copy()
                child_apart[a] |= row
                child_apart[b] = 0
                while row:
                    low = row & -row
                    x = low.bit_length() - 1
                    child_apart[x] = child_apart[x] & ~(1 << b) | 1 << a
                    row ^= low
                child_hitting = hitting
                if hitting >> b & 1:
                    child_hitting = hitting ^ 1 << b | 1 << a
                self.run(
                    cls.replace(_BYTE[b], _BYTE[a]), child_msets, child_apart,
                    violated ^ (violated & both), count - 1, child_hitting,
                )
            # later siblings keep this pair apart, whether its child was
            # searched or cut
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

    Every solve runs in an edge order, the labeling's above a positive
    floor and its own for a full search (floor 0), as the module
    docstring says, and maps the coloring it found, or the seed's when a
    budget stopped it or the graph has no k-matching, back through that
    order, so the witness is always in the caller's edge order.

    Every call is a complete search above `floor`: it finds a coloring with
    more than `floor` colors whenever one exists, and the best of them is
    the value.  When none exists the seed's coloring is returned with
    upper = floor, which is EXACT only if the seed reaches the floor; so a
    completed search gives upper = max(value, floor).  No coloring has
    more colors than the graph has edges, so a floor above the edge count
    is read as the edge count.  Only the node budget `max_nodes` ends the
    search early; it leaves upper = None, never a wrong answer.  A
    negative budget or floor, more than MAX_EDGES edges or more than
    `matchings.MAX_MATCHINGS` k-matchings is a ValueError; the last is
    raised while the list is built, before any node is searched.
    """
    _validate(g, k)
    check_budget(max_nodes)
    check_floor(floor)
    start = time.perf_counter()
    g6 = graph6_encode(g)
    m = g.edge_count

    # the labeling's edge order, or a full search's own (module docstring)
    order = range(m)
    if floor == 0:
        degree = [row.bit_count() for row in g.adj]
        top = [max(degree[u], degree[v]) for u, v in g.edges]
        order = sorted(range(m), key=top.__getitem__)
    matchings, touch = masks = _matching_masks(g, k, order)
    search = _Search(
        matchings, max_nodes, min(floor, m), seed_incumbent(g, k, _masks=masks)
    )
    upper = None
    try:
        search.run(
            bytes(range(m)), touch, [0] * m, (1 << len(matchings)) - 1, m
        )
        upper = search.bound
    except _Budget:
        pass

    # position p of the solve is the caller's edge order[p]
    colors = [c for _, c in sorted(zip(order, search.best_coloring))]
    witness = EdgeColoring.from_sequence(colors)
    return ArResult(g6, k, upper, witness, search.nodes, _ms(start))
