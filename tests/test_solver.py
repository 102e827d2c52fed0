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
from mopar.rainbow import EdgeColoring, verify_certificate
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
STAR = "Cs"  # K_{1,3}: every two edges share the centre


def _all_distinct(m: int) -> EdgeColoring:
    return EdgeColoring(tuple(range(m)), m)


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
    # no special path: the seed is the all-distinct coloring, and the
    # search's root has nothing violated, so it returns at once
    cases = [(graph6_decode(STAR), 2)]
    cases += [(g, 4) for g in mop_graphs(6)]  # beta = 3 < 4
    for g, k in cases:
        m = g.edge_count
        assert not list(iterate_k_matchings(g, k))
        assert seed_incumbent(g, k) == _all_distinct(m)
        for floor in (0, m, m + 2):
            result = ar_exact(g, k, floor=floor)
            assert (result.value, result.upper, result.mode, result.nodes) == (
                m, m, EXACT, 1
            )
            assert result.witness == _all_distinct(m)


def test_floor_above_edge_count_is_read_as_edge_count():
    # no coloring has more colors than edges, so the search proves upper m
    g = mop_graphs(8)[0]
    m = g.edge_count
    result = ar_exact(g, 3, floor=m + 2)
    assert result.upper == m
    assert result.value == seed_incumbent(g, 3).num_colors < m
    assert result.mode == LOWER_BOUND


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
    # every coloring has a rainbow 1-matching, so ar(G, M_1) does not
    # exist and the solver refuses k = 1
    assert ar_brute_force(K3, 1) == 0
    with pytest.raises(ValueError, match=r"k=1 outside 2\.\.8"):
        ar_exact(K3, 1)


def test_graph_past_the_edge_limit_is_refused():
    # class labels are one byte each, so a graph of more than MAX_EDGES
    # edges is refused before its k-matchings are listed; K_23, at 253
    # edges, passes the check (it is not solved here)
    k23, k24 = (
        Graph.from_edges(n, list(combinations(range(n), 2))) for n in (23, 24)
    )
    assert k23.edge_count == 253 <= solver.MAX_EDGES < k24.edge_count == 276
    solver._validate(k23, 5)
    for call in (ar_exact, seed_incumbent):
        with pytest.raises(ValueError, match=r"276 edges, outside 1\.\.255"):
            call(k24, 5)


def test_graph_past_the_matching_limit_is_refused():
    # K_23 passes the edge check, but its 5-matchings, about 1.08 * 10^9,
    # are past MAX_MATCHINGS: the list is refused while it is built, so
    # even a one-node budget returns
    k23 = Graph.from_edges(23, list(combinations(range(23), 2)))
    limit = r"more than MAX_MATCHINGS = 1000000 k-matchings"
    with pytest.raises(ValueError, match=limit):
        list(iterate_k_matchings(k23, 5))
    with pytest.raises(ValueError, match=limit):
        ar_exact(k23, 5, max_nodes=1)


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


def test_incumbents_are_recorded_only_at_leaf_nodes(monkeypatch):
    # a node with nothing violated is a coloring, recorded at its own
    # entry, so every witness that beats the seed is the class map of a
    # call of run whose violated mask is 0
    run = solver._Search.run
    leaves: set[EdgeColoring] = set()

    def recording_run(self, cls, msets, apart, violated, *args):
        if not violated:
            leaves.add(EdgeColoring.from_sequence(cls))
        return run(self, cls, msets, apart, violated, *args)

    monkeypatch.setattr(solver._Search, "run", recording_run)
    improved = 0
    for n, k in ((8, 3), (8, 4), (9, 4), (10, 5)):
        for g in mop_graphs(n):
            leaves.clear()
            result = ar_exact(g, k)
            if result.value > seed_incumbent(g, k).num_colors:
                improved += 1
                assert result.witness in leaves, (graph6_encode(g), k)
    assert improved


def test_apart_rows_are_symmetric_over_live_classes(monkeypatch):
    run = solver._Search.run
    calls = 0

    def checking_run(self, cls, msets, apart, *args):
        nonlocal calls
        calls += 1
        # labels are canonical: each class is named by its least edge
        for e, c in enumerate(cls):
            assert c <= e and cls[c] == c, cls
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
            search = solver._Search(matchings, None, 0, _all_distinct(m))
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
    # a node that finds a set stops at its branch class, whose child is
    # the last one it called; it tries no later class
    tried = len(order) if found is None else max(children) + 1
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
                matchings, None, 0, _all_distinct(g.edge_count)
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
    # at least need.  The node's children are collected, not searched, so
    # the bound stays; a merge that leaves nothing violated is a coloring,
    # which the node always builds, to be recorded at the child's entry.
    rng = random.Random(17)
    built: list[tuple[int, ...]] = []
    depth = 0
    run = solver._Search.run

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

    monkeypatch.setattr(solver._Search, "run", shallow_run)
    cuts = {0: 0, 1: 0}
    for n, k in ((8, 3), (9, 4)):
        for g, matchings, cls, msets, violated in _random_cases(rng, n, k, 4):
            m = g.edge_count
            count = len(set(cls))
            tau = min_class_transversal(
                cls, [matchings[mid] for mid in violated]
            )
            search = solver._Search(matchings, None, 0, _all_distinct(m))
            for bound in range(count - 2):
                need = count - bound - 1
                if not violated or tau > need:
                    continue  # no branching, or the node itself is cut
                slack = need - len(
                    _packing(cls, matchings, set(violated), set())
                )
                built.clear()
                search.bound = bound
                search.run(
                    bytes(cls), list(msets), [0] * m,
                    sum(1 << mid for mid in violated), count,
                )
                mid = max(violated)
                roots = sorted({cls[e] for e in matchings[mid]})
                for a, b in combinations(roots, 2):
                    both = msets[a] & msets[b]
                    child_violated = [
                        v for v in violated if not both >> v & 1
                    ]
                    child = [a if c == b else c for c in cls]
                    if tuple(child) in built:
                        continue
                    assert child_violated, (graph6_encode(g), cls, bound, a, b)
                    least = min_class_transversal(
                        child, [matchings[v] for v in child_violated]
                    )
                    assert least >= need, (graph6_encode(g), cls, bound, a, b)
                    cuts[min(slack, 2)] += 1
    assert cuts[0] and cuts[1] and not cuts.get(2), cuts


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
    # number, so some graphs have no k-matching at all, the benchmark
    # hunt's two order-15 members at k = 5, and K_12 at k = 2 and 3: its
    # 66 edges take two 64-edge lanes
    rng = random.Random(6)
    cases = []
    for n in range(6, 13):
        members = _class_members(n)
        if n > 9:
            members = rng.sample(members, 6)
        cases += [(g6, k) for g6 in members for k in range(2, n // 2 + 2)]
    cases += [(g6, 5) for g6 in ORDER_15_MEMBERS[:2]]
    k12 = graph6_encode(Graph.from_edges(12, list(combinations(range(12), 2))))
    cases += [(k12, 2), (k12, 3)]
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


def test_matching_masks_walk_through_the_traced_name(monkeypatch):
    # the benchmark tracer wraps solver.iterate_k_matchings, so a solve
    # must build its list through that name, once, with the edge masks
    # filled by the same walk
    walk = solver.iterate_k_matchings
    calls = []

    def counting(g, k, **kwargs):
        calls.append(sorted(kwargs))
        return walk(g, k, **kwargs)

    monkeypatch.setattr(solver, "iterate_k_matchings", counting)
    g = graph6_decode(HUNT_MEMBER)
    solver._matching_masks(g, 5)
    assert calls == [["_edge_masks"]]
    ar_exact(g, 5, floor=19)
    assert len(calls) == 2


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


def test_node_budget_stops_at_exactly_its_count():
    # every node is one call of run or _meets and counts at its entry:
    # each budget B below the full count N stops the search on node B + 1,
    # wherever that node lies, and B = N is the unlimited solve
    cases = [(graph6_decode(HUNT_MEMBER), 5, 19)]
    cases += [(g, 3, 0) for g in mop_graphs(8)]
    cases += [(g, 4, 0) for g in mop_graphs(9)[:4]]
    for g, k, floor in cases:
        full = ar_exact(g, k, floor=floor)
        for budget in range(full.nodes):
            cut = ar_exact(g, k, floor=floor, max_nodes=budget)
            assert (cut.upper, cut.nodes) == (None, budget + 1), (
                graph6_encode(g), budget
            )
            assert verify_certificate(g, cut.witness, k, cut.value).ok
        same = ar_exact(g, k, floor=floor, max_nodes=full.nodes)
        assert (same.value, same.upper, same.nodes, same.witness) == (
            full.value, full.upper, full.nodes, full.witness
        )


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
        [54, 1658, 2902, 38, 1953, 38, 48, 700, 647, 52],
        [17, 18, 18, 16, 19, 14, 16, 18, 17, 16],
        [19] * 10,
        "61abd32b7211f18f9d41a9092590a8ed6afbd1507ab22ab03197402657f4edc2",
    ),
    (6, 21): (
        [457, 874, 2114, 216, 1057, 32, 205, 794, 863, 981],
        [19, 21, 21, 19, 21, 18, 19, 21, 20, 19],
        [21] * 10,
        "7a8be2f7e2f7e00a5b96cbeef111880c3bd4cf71559cfb6c359e73679fdcd221",
    ),
}


def test_order_15_member_matches_pinned_floor_0_solve():
    # the one search pinned above order 11 at floor 0, where no seeded
    # floor cuts the tree short: a member with 2,091 5-matchings
    result = ar_exact(graph6_decode("N??cA?CE?COTOQCSdfw"), 5)
    assert (result.value, result.mode, result.nodes) == (18, EXACT, 16593)


def test_order_15_members_match_pinned_solves():
    # the pinned seeded searches above order 11: members with thousands of
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


def test_every_node_is_one_call(monkeypatch):
    # a node is counted only at the entries of run and _meets, so a solve
    # makes exactly `nodes` calls of the two, and a budget B below that
    # makes B + 1, the last of which ends the search
    calls = 0
    run, meets = solver._Search.run, solver._Search._meets

    def counting_run(self, *args):
        nonlocal calls
        calls += 1
        return run(self, *args)

    def counting_meets(self, *args):
        nonlocal calls
        calls += 1
        return meets(self, *args)

    monkeypatch.setattr(solver._Search, "run", counting_run)
    monkeypatch.setattr(solver._Search, "_meets", counting_meets)

    def solve(g, k, floor, budget=None):
        nonlocal calls
        calls = 0
        result = ar_exact(g, k, floor=floor, max_nodes=budget)
        return result.nodes, calls

    small = [(g, 3, 0) for g in mop_graphs(8)]
    small.append((graph6_decode(HUNT_MEMBER), 5, 19))
    # ORDER_15_PINNED's members at floor 19 include the benchmark hunt's two
    cases = small + [(g, 4, 0) for g in mop_graphs(9)] + [
        (graph6_decode(g6), k, floor)
        for k, floor in ORDER_15_PINNED for g6 in ORDER_15_MEMBERS
    ]
    for i, (g, k, floor) in enumerate(cases):
        nodes, made = solve(g, k, floor)
        assert made == nodes, (graph6_encode(g), k, floor)
        for budget in range(nodes if i < len(small) else 0):
            assert solve(g, k, floor, budget) == (budget + 1, budget + 1), (
                graph6_encode(g), k, budget
            )


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
