import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from graph_helpers import spanning_subgraph
from mopar import solver
from mopar.graphs import Graph, graph6_decode, graph6_encode, iter_bits
from mopar.matchings import iterate_k_matchings, matching_number
from mopar.rainbow import verify_certificate
from mopar.runner import _class_members
from mopar.solver import (
    EXACT,
    LOWER_BOUND,
    ArResult,
    ar_exact,
    seed_incumbent,
)
from oracles import (
    ar_brute_force,
    counting_seed,
    k_matchings_by_filter,
    min_class_transversal,
    mop_graphs,
)

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
HUNT_MEMBER = "N?AA??o`P@?PQ`BSaLw"
# polygon fans: every diagonal ends at vertex 0
FAN6, FAN7, FAN9 = "E|eG", "F|eKG", "H|eKKE@"
MEMBER_VALUES = Path(__file__).resolve().parent / "member_values.json"


def test_unique_mop4_value_three():
    (g,) = mop_graphs(4)
    result = ar_exact(g, 2)
    assert result.value == 3 and result.mode == EXACT
    assert ar_brute_force(g, 2) == 3
    assert verify_certificate(g, result.witness, 2, 3).ok


def test_unique_mop5_value_one():
    (g,) = mop_graphs(5)
    assert ar_exact(g, 2).value == 1


def test_vacuous_when_no_k_matching_exists():
    for g in mop_graphs(6):
        result = ar_exact(g, 4)  # beta = 3 < 4
        assert result.value == g.edge_count == 9
        assert result.mode == EXACT
        assert result.witness.num_colors == 9


def test_brute_force_examples():
    assert ar_brute_force(P4, 2) == 2
    assert ar_brute_force(K3, 2) == 3  # beta = 1, vacuous


def test_brute_force_guard():
    big = graph6_decode(FAN7)  # 11 edges
    with pytest.raises(ValueError):
        ar_brute_force(big, 2)


def test_k_guards():
    with pytest.raises(ValueError):
        ar_exact(K3, 0)
    with pytest.raises(ValueError):
        ar_exact(K3, 9)


def test_k1_has_no_rainbow_free_coloring():
    result = ar_exact(K3, 1)
    assert result.value == 0 and result.witness is None and result.mode == EXACT
    assert ar_brute_force(K3, 1) == 0


def _oracle_corpus():
    graphs = []
    for n in range(3, 7):
        for g in mop_graphs(n):
            if g.edge_count <= 9:
                graphs.append(g)
    rng = random.Random(5)
    for host in mop_graphs(6):
        m = host.edge_count
        for _ in range(10):
            idxs = [i for i in range(m) if rng.random() < 0.7]
            if idxs:
                graphs.append(spanning_subgraph(host, idxs))
    for _ in range(15):
        n = rng.randint(3, 6)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        if edges:
            graphs.append(Graph.from_edges(n, edges))
    return graphs


def test_oracle_equivalence_small_corpus():
    for g in _oracle_corpus():
        for k in (2, 3, 4):
            value = ar_brute_force(g, k)
            assert ar_exact(g, k).value == value
            # a floor prunes some siblings before they are marked apart
            below = ar_exact(g, k, floor=value - 1)
            assert below.value == value and below.mode == EXACT


def test_search_never_revisits_a_partition(monkeypatch):
    run = solver._Search.run
    keys: list[tuple[int, ...]] = []

    def recording_run(self, cls, *args):
        keys.append(tuple(cls))
        return run(self, cls, *args)

    monkeypatch.setattr(solver._Search, "run", recording_run)
    # a lost apart row seldom shows as a revisit; the next test checks the
    # rows themselves
    for n, k in ((8, 3), (8, 4), (9, 4), (10, 4)):
        for g in mop_graphs(n):
            keys.clear()
            result = ar_exact(g, k)
            assert len(set(keys)) == len(keys)
            assert result.mode == EXACT
            assert verify_certificate(g, result.witness, k, result.value).ok


def test_apart_rows_are_symmetric_over_live_classes(monkeypatch):
    run = solver._Search.run
    calls = 0

    def checking_run(self, cls, msets, apart, *args):
        nonlocal calls
        calls += 1
        live = set(cls)
        for c, row in enumerate(apart):
            named = set(iter_bits(row))
            assert not row or c in live, (cls, apart)
            assert named <= live - {c}, (cls, apart)
            assert all(apart[x] >> c & 1 for x in named), (cls, apart)
        return run(self, cls, msets, apart, *args)

    monkeypatch.setattr(solver._Search, "run", checking_run)
    for n, k in ((8, 3), (8, 4), (9, 4), (10, 4)):
        for g in mop_graphs(n):
            ar_exact(g, k)
    assert calls > 1000


def _random_partition(rng, m, merges):
    # canonical labels: each class is named by its least edge
    cls = list(range(m))
    for _ in range(merges):
        a, b = sorted(rng.sample(sorted(set(cls)), 2))
        cls = [a if c == b else c for c in cls]
    return cls


def _packing(cls, matchings, unmet, banned):
    """The greedy packing `_meets` bounds by: unmet matching ids in
    descending order (lexicographic order of the matchings) whose unbanned
    class sets are pairwise disjoint, or None when one of them has every
    class banned."""
    packed, taken = [], set()
    for mid in sorted(unmet, reverse=True):
        classes = {cls[e] for e in matchings[mid]} - banned
        if not classes:
            return None
        if not classes & taken:
            packed.append(mid)
            taken |= classes
    return packed


def _is_hitting_set(found, cls, matchings, unmet, budget, banned):
    """`found` is a mask of at most `budget` class labels, none of them
    banned, that meets every matching id in `unmet`."""
    chosen = set(iter_bits(found))
    return (
        chosen <= set(cls) and not chosen & banned and len(chosen) <= budget
        and all(chosen & {cls[e] for e in matchings[mid]} for mid in unmet)
    )


def test_prunable_is_the_exact_class_transversal_bound(monkeypatch):
    rng = random.Random(9)
    unmeetable = 0
    # every _meets node reached, recursion included, whose greedy packing
    # holds exactly `budget` matchings: where classes may be skipped
    tight = forced = 0
    meets = solver._Search._meets

    def recording_meets(self, cls, msets, unmet, budget, banned):
        nonlocal tight, forced
        ids = set(iter_bits(unmet))
        bans = set(iter_bits(banned))
        packed = _packing(cls, self.matchings, ids, bans)
        if ids and packed is not None and len(packed) == budget:
            tight += 1
            # the unmet matchings that no unbanned class of packed
            # matchings 2..p meets must meet the first one's chosen class
            free = {
                mid: {cls[e] for e in self.matchings[mid]} - bans
                for mid in ids
            }
            rest = set().union(*(free[mid] for mid in packed[1:]))
            only = [mid for mid in ids if not free[mid] & rest]
            forced += any(
                not all(c in free[mid] for mid in only)
                for c in free[packed[0]]
            )
        return meets(self, cls, msets, unmet, budget, banned)

    monkeypatch.setattr(solver._Search, "_meets", recording_meets)
    for n, k in ((8, 3), (9, 4)):
        for g in mop_graphs(n):
            m = g.edge_count
            matchings, touch = solver._matching_masks(g, k)
            search = solver._Search(matchings, None, 0, solver._all_distinct(m))
            for _ in range(3):
                cls = _random_partition(rng, m, rng.randrange(m - 1))
                msets = [0] * m
                for e in range(m):
                    msets[cls[e]] |= touch[e]
                violated = [
                    mid for mid, matching in enumerate(matchings)
                    if len({cls[e] for e in matching}) == k
                ]
                tau = min_class_transversal(
                    cls, [matchings[mid] for mid in violated]
                )
                mask = sum(1 << mid for mid in violated)
                for need in range(1, len(set(cls)) + 2):
                    found = search._meets(cls, msets, mask, need - 1, 0)
                    assert (found is None) == (tau >= need), (
                        graph6_encode(g), cls, need
                    )
                    # what it returns is a hitting set within the budget
                    assert found is None or _is_hitting_set(
                        found, cls, matchings, violated, need - 1, set()
                    ), (graph6_encode(g), cls, need, found)
                # _meets under bans: only unbanned classes may meet a
                # matching, and a matching with every class banned is never met
                classes = sorted(set(cls))
                for p in (0.2, 0.5, 0.9):
                    banned = sum(1 << c for c in classes if rng.random() < p)
                    if not banned:
                        continue
                    least = min_class_transversal(
                        cls, [matchings[mid] for mid in violated], banned
                    )
                    unmeetable += least is None
                    for budget in range(len(classes) + 1):
                        found = search._meets(cls, msets, mask, budget, banned)
                        assert (found is not None) == (
                            least is not None and least <= budget
                        ), (graph6_encode(g), cls, banned, budget)
                        assert found is None or _is_hitting_set(
                            found, cls, matchings, violated, budget,
                            set(iter_bits(banned)),
                        ), (graph6_encode(g), cls, banned, budget, found)
    assert unmeetable
    assert forced and tight > forced, (tight, forced)


def _random_cases(rng, n, k, per_member):
    """(graph, matchings, cls, msets, violated ids) for random partitions
    of every order-n member's edges."""
    for g in mop_graphs(n):
        m = g.edge_count
        matchings, touch = solver._matching_masks(g, k)
        for _ in range(per_member):
            cls = _random_partition(rng, m, rng.randrange(m - 1))
            msets = [0] * m
            for e in range(m):
                msets[cls[e]] |= touch[e]
            violated = [
                mid for mid, matching in enumerate(matchings)
                if len({cls[e] for e in matching}) == k
            ]
            yield g, matchings, cls, msets, violated


def _skipped_classes(calls, i, cls, matchings, msets):
    """The classes that the i-th recorded _meets node skipped, read off
    the children it did call: (slack, child's unmet ids, child's bans)
    for each.  `calls` lists [depth, unmet, budget, bans, answer] in call
    order."""
    level, unmet, budget, bans, found = calls[i]
    ids = set(iter_bits(unmet))
    packed = _packing(cls, matchings, ids, set(iter_bits(bans)))
    if not ids or packed is None or len(packed) > budget:
        return  # no branching
    order = [cls[e] for e in matchings[max(ids)] if not bans >> cls[e] & 1]
    # the child of the j-th class bans classes 0..j-1 as well
    prefix = [bans]
    for c in order:
        prefix.append(prefix[-1] | 1 << c)
    children = []
    for later in calls[i + 1:]:
        if later[0] <= level:
            break
        if later[0] == level + 1:
            children.append(prefix.index(later[3]))
    # a node that finds a set stops at that child
    tried = len(order) if found is None else children[-1] + 1
    for j in sorted(set(range(tried)) - set(children)):
        mc = msets[order[j]]
        child = [mid for mid in ids if not mc >> mid & 1]
        yield budget - len(packed), child, prefix[j]


def test_meets_skips_only_classes_whose_child_fails(monkeypatch):
    # a _meets node skips a class of its top matching, without a child,
    # when the rest of `only` cannot be met by its slack's worth of
    # classes: none at slack 0, one at slack 1.  The child each skipped
    # class would have built must find no hitting set within budget - 1
    rng = random.Random(13)
    calls: list[list] = []
    depth = 0
    meets = solver._Search._meets

    def recording_meets(self, cls, msets, unmet, budget, banned, *packing):
        nonlocal depth
        call = [depth, unmet, budget, banned, None]
        calls.append(call)
        depth += 1
        try:
            call[4] = meets(self, cls, msets, unmet, budget, banned, *packing)
        finally:
            depth -= 1
        return call[4]

    monkeypatch.setattr(solver._Search, "_meets", recording_meets)
    skips = {0: 0, 1: 0}
    for n, k in ((8, 3), (9, 4)):
        for g, matchings, cls, msets, violated in _random_cases(rng, n, k, 3):
            search = solver._Search(
                matchings, None, 0, solver._all_distinct(g.edge_count)
            )
            mask = sum(1 << mid for mid in violated)
            classes = sorted(set(cls))
            for p in (0, 0.2, 0.5):
                banned = sum(1 << c for c in classes if rng.random() < p)
                for budget in range(1, len(classes) + 1):
                    calls.clear()
                    search._meets(cls, msets, mask, budget, banned)
                    for i, call in enumerate(calls):
                        for slack, child, bans in _skipped_classes(
                            calls, i, cls, matchings, msets
                        ):
                            least = min_class_transversal(
                                cls, [matchings[mid] for mid in child], bans
                            )
                            assert least is None or least >= call[2], (
                                graph6_encode(g), cls, call, child, bans
                            )
                            skips[slack] += 1
    assert skips[0] and skips[1] and len(skips) == 2, skips


def test_run_cuts_only_children_beyond_the_budget(monkeypatch):
    # run cuts a child that merges two classes of its top matching when the
    # rest of the root packing's `only` cannot be met within the child's
    # budget, need - 1.  Each such child must have a class transversal of
    # at least need.  The node's children are recorded, not searched, and
    # every pair after the first that raises the bound is left out.
    rng = random.Random(17)
    built: list[tuple[int, ...]] = []
    fused: list[tuple[int, int, bool]] = []
    depth = 0
    run = solver._Search.run
    last_merge = solver._Search._last_merge

    def shallow_run(self, cls, *args):
        nonlocal depth
        if depth:
            built.append(tuple(cls))
            return
        depth += 1
        try:
            run(self, cls, *args)
        finally:
            depth -= 1

    def recording_last_merge(self, cls, msets, apart, violated, a, b):
        pair = last_merge(self, cls, msets, apart, violated, a, b)
        fused.append((a, b, pair is not None))
        return pair

    monkeypatch.setattr(solver._Search, "run", shallow_run)
    monkeypatch.setattr(solver._Search, "_last_merge", recording_last_merge)
    cuts = {0: 0, 1: 0}
    for n, k in ((8, 3), (9, 4)):
        for g, matchings, cls, msets, violated in _random_cases(rng, n, k, 4):
            m = g.edge_count
            count = len(set(cls))
            tau = min_class_transversal(
                cls, [matchings[mid] for mid in violated]
            )
            search = solver._Search(matchings, None, 0, solver._all_distinct(m))
            for bound in range(count - 2):
                need = count - bound - 1
                if not violated or tau > need:
                    continue  # no branching, or the node itself is cut
                slack = need - len(
                    _packing(cls, matchings, set(violated), set())
                )
                built.clear()
                fused.clear()
                search.bound = bound
                search.run(
                    cls, list(msets), [0] * m,
                    sum(1 << mid for mid in violated), count,
                )
                mid = max(violated)
                roots = sorted({cls[e] for e in matchings[mid]})
                for a, b in combinations(roots, 2):
                    both = msets[a] & msets[b]
                    child_violated = [
                        v for v in violated if not both >> v & 1
                    ]
                    if not child_violated:
                        break  # recorded: the bound rises to count - 1
                    child = [a if c == b else c for c in cls]
                    if (a, b, True) in fused:
                        break  # recorded: the bound rises to count - 2
                    if tuple(child) in built or (a, b, False) in fused:
                        continue
                    least = min_class_transversal(
                        child, [matchings[v] for v in child_violated]
                    )
                    assert least >= need, (graph6_encode(g), cls, bound, a, b)
                    cuts[min(slack, 2)] += 1
    assert cuts[0] and cuts[1] and not cuts.get(2), cuts


def test_last_merge_is_the_first_feasible_pair_of_the_child():
    # a child one merge above the bound is settled inside its parent; it
    # must pick the merge its own node would: the first pair of the classes
    # of its top violated id (its lexicographically first violated
    # matching), not kept apart, that leaves no rainbow k-matching.  The
    # child is built here from labels and pair sets.
    rng = random.Random(5)
    found = onto_merged = 0
    for n, k in ((8, 3), (9, 4)):
        for g in mop_graphs(n):
            m = g.edge_count
            matchings, touch = solver._matching_masks(g, k)
            search = solver._Search(matchings, None, 0, solver._all_distinct(m))
            for _ in range(20):
                cls = _random_partition(rng, m, rng.randrange(m // 2, m - 2))
                classes = sorted(set(cls))
                msets = [0] * m
                for e in range(m):
                    msets[cls[e]] |= touch[e]
                pairs = [
                    (c, d) for c, d in combinations(classes, 2)
                    if rng.random() < 0.3
                ]
                apart = [0] * m
                for c, d in pairs:
                    apart[c] |= 1 << d
                    apart[d] |= 1 << c
                a, b = sorted(rng.sample(classes, 2))
                violated = sum(
                    1 << mid for mid, matching in enumerate(matchings)
                    if len({cls[e] for e in matching}) == k
                )
                child_violated = violated & ~(msets[a] & msets[b])
                if not child_violated:
                    continue
                child = [a if c == b else c for c in cls]
                child_apart = {
                    frozenset(a if c == b else c for c in pair)
                    for pair in pairs
                }
                mid = child_violated.bit_length() - 1
                roots = sorted({child[e] for e in matchings[mid]})
                expect = None
                for x, y in combinations(roots, 2):
                    merged = [x if c == y else c for c in child]
                    if frozenset((x, y)) not in child_apart and all(
                        len({merged[e] for e in matching}) < k
                        for matching in matchings
                    ):
                        expect = (x, y)
                        break
                assert search._last_merge(
                    cls, msets, apart, child_violated, a, b
                ) == expect, (graph6_encode(g), cls, pairs, a, b)
                found += expect is not None
                onto_merged += expect is not None and expect[1] == a
    assert found > onto_merged > 0, (found, onto_merged)


def test_matching_ids_run_in_reverse_lexicographic_order():
    # every node branches on its top violated id, which must be the
    # lexicographically first violated matching
    for n, k in ((8, 3), (9, 4), (10, 5)):
        for g in mop_graphs(n):
            matchings, touch = solver._matching_masks(g, k)
            lexicographic = list(iterate_k_matchings(g, k))
            assert matchings[-1] == min(lexicographic)
            assert matchings == lexicographic[::-1]
            for e, mask in enumerate(touch):
                assert set(iter_bits(mask)) == {
                    mid for mid, matching in enumerate(matchings)
                    if e in matching
                }


def test_matching_masks_match_an_oracle():
    # every bit of every edge's mask, against masks built one matching at a
    # time from the lexicographic list of every k-subset of disjoint edges
    # (a filter over `combinations`, not the solver's own enumeration): the
    # j-th of N matchings has id N - 1 - j.  Members of orders 6-12 (a
    # seeded sample past order 9), with k up to one past the matching
    # number, so some graphs have no k-matching at all, and the benchmark
    # hunt's two order-15 members at k = 5
    rng = random.Random(6)
    cases = []
    for n in range(6, 13):
        members = _class_members(n)
        if n > 9:
            members = rng.sample(members, 6)
        cases += [(g6, k) for g6 in members for k in range(2, n // 2 + 2)]
    cases += [(g6, 5) for g6 in ORDER_15_MEMBERS[:2]]
    empty = missed = 0
    for g6, k in cases:
        g = graph6_decode(g6)
        matchings, touch = solver._matching_masks(g, k)
        lexicographic = k_matchings_by_filter(g, k)
        size = len(lexicographic)
        expect = [0] * g.edge_count
        for j, matching in enumerate(lexicographic):
            for e in matching:
                expect[e] |= 1 << size - 1 - j
        assert matchings == lexicographic[::-1], (g6, k)
        assert touch == expect, (g6, k)
        empty += not size
        missed += bool(size) and 0 in touch
    # graphs with no k-matching, and edges in none of a graph's k-matchings
    assert empty and missed, (empty, missed)


def test_brute_force_never_exceeds_edges_less_transversal():
    # ar(G, M_k) <= ex(G, M_k) = m - tau, tau the k-matching transversal
    for g in _oracle_corpus():
        m = g.edge_count
        for k in (2, 3, 4):
            matchings = list(iterate_k_matchings(g, k))
            tau = min_class_transversal(list(range(m)), matchings)
            assert ar_brute_force(g, k) <= m - tau


def test_transversal_bound_settles_hunt_member_at_root(monkeypatch):
    # the first member of the benchmark hunt (sample seed 1): the root's
    # transversal search proves ar <= 19, so the partition search stops there
    g = graph6_decode(HUNT_MEMBER)
    run = solver._Search.run
    calls = []

    def counting_run(self, *args):
        calls.append(None)
        return run(self, *args)

    monkeypatch.setattr(solver._Search, "run", counting_run)
    seed = seed_incumbent(g, 5)
    result = ar_exact(g, 5, floor=19)
    assert len(calls) == 1
    assert (result.witness, result.upper) == (seed, 19)
    assert verify_certificate(g, result.witness, 5, seed.num_colors).ok
    # a budget that runs out inside the transversal search claims nothing
    assert result.nodes > 50  # so the budget below does cut the search
    cut = ar_exact(g, 5, floor=19, max_nodes=50)
    assert cut.upper is None and cut.witness == seed


def test_floor_boundary_every_member_9_4():
    # the search is complete only above the floor: floor v-1 finds and
    # proves the value v; floor v proves nothing beats v but finds no
    # witness at v, so it is EXACT only when the greedy seed reaches v
    lower_bounds = 0
    for g in mop_graphs(9):
        v = ar_exact(g, 4).value
        below = ar_exact(g, 4, floor=v - 1)
        assert below.mode == EXACT and below.value == v
        at = ar_exact(g, 4, floor=v)
        seed = seed_incumbent(g, 4).num_colors
        assert at.value == seed <= v
        assert at.mode == (EXACT if seed == v else LOWER_BOUND)
        assert verify_certificate(g, at.witness, 4, at.value).ok
        lower_bounds += at.mode == LOWER_BOUND
    assert lower_bounds > 0


def test_monotonicity_in_k():
    for g in mop_graphs(8)[:5]:
        values = [ar_exact(g, k).value for k in (2, 3, 4, 5)]
        assert values == sorted(values)


def test_value_equals_edge_count_iff_no_matching():
    for g in mop_graphs(6) + mop_graphs(7)[:2]:
        for k in (2, 3, 4, 5):
            result = ar_exact(g, k)
            assert (result.value == g.edge_count) == (matching_number(g) < k)


def test_every_member_value_matches_fixture():
    # floor-0 values and node counts of every class member, in
    # _class_members order, from an earlier solver: a cut that lowers any
    # member, not just a class argmax, shows here, and so does any change
    # to the search itself.  A change that cuts nodes on purpose
    # regenerates "nodes_at_floor_0"; the SHA-256 of each cell's (value,
    # upper, witness colors) list stays, so a pruning rule must leave
    # every witness as it was, not only every value.
    pinned = json.loads(MEMBER_VALUES.read_text())
    values, nodes = pinned["values_at_floor_0"], pinned["nodes_at_floor_0"]
    digests = pinned["witness_sha256_at_floor_0"]
    assert sum(map(len, values.values())) == 443
    assert nodes.keys() == values.keys() == digests.keys()
    for cell, expected in values.items():
        n, k = map(int, cell.split(","))
        solved = [ar_exact(graph6_decode(g6), k) for g6 in _class_members(n)]
        assert [r.value for r in solved] == expected, cell
        assert all(r.mode == EXACT for r in solved), cell
        assert [r.nodes for r in solved] == nodes[cell], cell
        witnesses = json.dumps(
            [[r.value, r.upper, list(r.witness.colors)] for r in solved]
        )
        assert hashlib.sha256(witnesses.encode()).hexdigest() == digests[cell]


def test_every_member_upper_above_floor_matches_fixture():
    # uppers at floor n + k - 2, near most class values, from an earlier
    # solver: every search completes, and a cut that drops a member's
    # value to the floor shows as a lower upper
    pinned = json.loads(MEMBER_VALUES.read_text())
    uppers = pinned["uppers_at_floor_n_plus_k_minus_2"]
    assert uppers.keys() == pinned["values_at_floor_0"].keys()
    for cell, expected in uppers.items():
        n, k = map(int, cell.split(","))
        solved = [
            ar_exact(graph6_decode(g6), k, floor=n + k - 2)
            for g6 in _class_members(n)
        ]
        assert [r.upper for r in solved] == expected, cell


def test_every_exact_witness_verifies():
    for n, k in ((6, 2), (6, 3), (7, 3), (8, 4)):
        for g in mop_graphs(n):
            result = ar_exact(g, k)
            assert result.mode == EXACT
            assert verify_certificate(g, result.witness, k, result.value).ok


def test_determinism_repeated_runs():
    g = graph6_decode("G|cGK[")
    first = ar_exact(g, 4)
    second = ar_exact(g, 4)
    assert first.value == second.value
    assert first.witness == second.witness
    assert first.nodes == second.nodes


def test_budget_degrades_to_lower_bound():
    g = graph6_decode(FAN9)
    result = ar_exact(g, 4, max_nodes=5)
    assert result.mode == LOWER_BOUND
    assert result.witness is not None
    assert verify_certificate(g, result.witness, 4, result.value).ok
    full = ar_exact(g, 4)
    assert full.nodes > 5
    assert result.value <= full.value


def test_negative_budget_is_an_error():
    g = graph6_decode(FAN9)
    with pytest.raises(ValueError, match="must not be negative"):
        ar_exact(g, 4, max_nodes=-1)
    # a zero budget is honoured: it ends the search at once
    assert ar_exact(g, 4, max_nodes=0).upper is None


def test_floor_mode_hunts_witnesses_above_floor():
    g = graph6_decode(FAN9)
    full = ar_exact(g, 4)
    hunt = ar_exact(g, 4, floor=full.value - 1)
    assert hunt.mode == EXACT and hunt.value == full.value
    # floor above the true value: nothing above it exists, so the result
    # honestly degrades to the seed as a lower bound
    too_high = ar_exact(g, 4, floor=full.value + 3)
    assert too_high.value <= full.value
    if too_high.value < full.value + 3:
        assert too_high.mode == LOWER_BOUND


def test_seed_incumbent_contract():
    for n, k in ((6, 3), (8, 4), (10, 5)):
        for g in mop_graphs(n)[:8]:
            seed = seed_incumbent(g, k)
            assert verify_certificate(g, seed, k, seed.num_colors).ok
            assert seed.num_colors >= 1


def test_seed_never_beats_exact():
    for g in mop_graphs(8)[:6]:
        seed = seed_incumbent(g, 4)
        assert seed.num_colors <= ar_exact(g, 4).value


# order-15 members: the benchmark hunt's two (sample seed 1) and eight
# more (sample seed 3); each has thousands of 5-matchings, where the
# smaller members here have at most a few hundred
ORDER_15_MEMBERS = (
    HUNT_MEMBER, "N??cA?CE?COTOQCSdfw", "N?`@?_??KP?g?dX`bNo",
    "N?`?O?cC`@?HasPJAIw", "N?IA?O@??G_QdAOhFNw", "N?AA??o`PPGWCIAb_iw",
    "N?`@?aG@_P?@PD?ZEYw", "N??C@OEOA?aAKP_i@nw", "N?HC?O?_gG?DTA?|FHw",
    "N?AA??g`P@A@CP@shTw",
)


# ar_exact over ORDER_15_MEMBERS at a seeded floor near each cell's class
# value, from an earlier solver: (k, floor) -> node counts, values, uppers
# and the SHA-256 of the members' [value, upper, witness colors] list
ORDER_15_PINNED = {
    (5, 19): (
        [54, 1658, 2902, 38, 1952, 38, 48, 700, 647, 52],
        [17, 18, 18, 16, 19, 14, 16, 18, 17, 16],
        [19] * 10,
        "61abd32b7211f18f9d41a9092590a8ed6afbd1507ab22ab03197402657f4edc2",
    ),
    (6, 21): (
        [457, 871, 2084, 216, 1044, 32, 205, 793, 859, 971],
        [19, 21, 21, 19, 21, 18, 19, 21, 20, 19],
        [21] * 10,
        "7a8be2f7e2f7e00a5b96cbeef111880c3bd4cf71559cfb6c359e73679fdcd221",
    ),
}


def test_order_15_members_match_pinned_solves():
    # the only pinned searches above order 11: members with thousands of
    # k-matchings, so a change to how their lists or masks are built, or
    # to the search over them, shows in the nodes or the witnesses
    for (k, floor), (nodes, values, uppers, digest) in ORDER_15_PINNED.items():
        solved = [
            ar_exact(graph6_decode(g6), k, floor=floor)
            for g6 in ORDER_15_MEMBERS
        ]
        assert [r.nodes for r in solved] == nodes, k
        assert [r.value for r in solved] == values, k
        assert [r.upper for r in solved] == uppers, k
        witnesses = json.dumps(
            [[r.value, r.upper, list(r.witness.colors)] for r in solved]
        )
        assert hashlib.sha256(witnesses.encode()).hexdigest() == digest, k


def test_seed_equals_counting_oracle():
    # the popcount seed merges the same pairs as recounting with a Counter
    cases = [
        (g, k)
        for n, ks in ((8, (2, 3, 4)), (9, (3, 4)), (10, (3, 4, 5)), (11, (5,)))
        for g in mop_graphs(n)
        for k in ks
    ]
    cases += [(graph6_decode(s), 5) for s in ORDER_15_MEMBERS]
    # an order-12 member whose seed goes wrong if a merged class's pair
    # counts are not raised: one of them grows past every other bound
    cases.append((graph6_decode("K?`COTcDGecN"), 5))
    for g, k in cases:
        assert seed_incumbent(g, k) == counting_seed(g, k)


def test_result_json_round_trip():
    g = graph6_decode(FAN6)
    result = ar_exact(g, 3)
    data = result.to_json()
    back = ArResult.from_json(data)
    assert back.value == result.value and back.witness == result.witness
    assert back.graph6 == result.graph6
    assert graph6_decode(back.graph6) == g
