import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import mopar.rainbow
from mopar.graphs import Graph, graph6_decode
from mopar.matchings import iterate_k_matchings, matching_number
from mopar.rainbow import (
    NOT_SURJECTIVE,
    OK,
    RAINBOW_FOUND,
    WRONG_COUNT,
    EdgeColoring,
    certificate_from_json,
    certificate_to_json,
    find_rainbow_matching,
    verify_certificate,
)
from mopar.solver import ar_exact, seed_incumbent
from oracles import (
    iter_k_matchings_by_filter,
    merge_classes,
    mop_graphs,
    scattered_graph,
)

P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
C6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
# polygon fans: every diagonal ends at vertex 0
FAN5, FAN6 = "D|c", "E|eG"
# class members of orders 15 and 16, canonically relabeled
LARGE_MEMBERS = (
    "N?AA??o`P@?PQ`BSaLw", "N??cA?CE?COTOQCSdfw",
    "O?`?GC@A?@C@CCG@PAYn^", "O?A@A??`G_?PQOEAcu_B^",
)


def test_coloring_validation():
    with pytest.raises(ValueError):
        EdgeColoring((0, 2), 3)  # color 1 unused
    with pytest.raises(ValueError):
        EdgeColoring((), 0)
    col = EdgeColoring.from_sequence([5, 9, 5, 1])
    assert col.colors == (0, 1, 0, 2) and col.num_colors == 3


def test_p4_with_repeated_end_colors_has_no_rainbow_pair():
    col = EdgeColoring.from_sequence([1, 2, 1])
    assert find_rainbow_matching(P4, col, 2) is None


def test_all_distinct_coloring_always_has_witness():
    for g in mop_graphs(6):
        col = EdgeColoring(tuple(range(g.edge_count)), g.edge_count)
        for k in range(1, matching_number(g) + 1):
            witness = find_rainbow_matching(g, col, k)
            assert witness is not None
            assert len(set(witness.colors)) == k


def test_c6_coloring_killing_both_perfect_matchings():
    # edges around the cycle: (0,1),(0,5),(1,2),(2,3),(3,4),(4,5)
    # perfect matchings: {01,23,45} and {12,34,50}
    pm = list(iterate_k_matchings(C6, 3))
    assert len(pm) == 2
    colors = [0] * 6
    colors[pm[0][0]] = colors[pm[0][1]] = 7
    colors[pm[1][0]] = colors[pm[1][1]] = 8
    col = EdgeColoring.from_sequence(colors)
    # both perfect matchings repeat a color, so no rainbow 3-matching exists
    assert all(len({col.colors[e] for e in m}) < 3 for m in pm)
    assert find_rainbow_matching(C6, col, 3) is None


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        find_rainbow_matching(P4, EdgeColoring.from_sequence([0, 1]), 2)


def test_k_below_one_is_refused():
    # no verdict at all: not an empty rainbow matching at k = 0, and not
    # OK for every coloring at a negative k
    col = EdgeColoring.from_sequence([0, 1, 2])
    for k in (0, -1):
        with pytest.raises(ValueError, match=rf"k={k} is below 1"):
            find_rainbow_matching(P4, col, k)
        with pytest.raises(ValueError, match=rf"k={k} is below 1"):
            verify_certificate(P4, col, k, col.num_colors)


def test_verify_certificate_reasons():
    g = graph6_decode(FAN6)
    m = g.edge_count
    mono = EdgeColoring((0,) * m, 1)
    assert verify_certificate(g, mono, 2, 1).reason == OK
    distinct = EdgeColoring(tuple(range(m)), m)
    out = verify_certificate(g, distinct, 3, m)
    assert not out.ok and out.reason == RAINBOW_FOUND and out.witness is not None
    assert verify_certificate(g, mono, 2, 3).reason == WRONG_COUNT
    bad = EdgeColoring.__new__(EdgeColoring)
    object.__setattr__(bad, "colors", (0, 2) + (0,) * (m - 2))
    object.__setattr__(bad, "num_colors", 3)
    assert verify_certificate(g, bad, 2, 3).reason == NOT_SURJECTIVE


def _random_coloring(rng, m, c):
    labels = list(range(c)) + [rng.randrange(c) for _ in range(m - c)]
    rng.shuffle(labels)
    return EdgeColoring.from_sequence(labels)


def test_rainbow_monotonicity_over_random_mop_colorings():
    rng = random.Random(321)
    for n in (6, 7, 8):
        for g in mop_graphs(n)[:6]:
            m = g.edge_count
            for _ in range(12):
                col = _random_coloring(rng, m, rng.randint(1, m))
                for k in range(1, n // 2):
                    if find_rainbow_matching(g, col, k) is None:
                        assert find_rainbow_matching(g, col, k + 1) is None


def test_rainbow_matchings_agree_with_brute_force():
    # random colorings of MOPs and of scattered graphs, plus the witness
    # colorings ar_exact returns, which admit no rainbow k-matching at all
    rng = random.Random(57)
    graphs = [g for n in range(5, 9) for g in mop_graphs(n)]
    graphs += [scattered_graph(rng) for _ in range(20)]
    for g in graphs:
        m = g.edge_count
        for k in range(1, 5):
            colorings = [_random_coloring(rng, m, rng.randint(1, m)) for _ in range(4)]
            if k >= 2:  # ar_exact refuses k = 1
                colorings.append(ar_exact(g, k).witness)
            for col in colorings:
                expected = next(
                    iter_k_matchings_by_filter(g, k, col.colors), None
                )
                witness = find_rainbow_matching(g, col, k)
                assert (witness and witness.matching) == expected
                out = verify_certificate(g, col, k, col.num_colors)
                assert out.ok == (expected is None)
                if expected is not None:
                    assert out.witness.matching == expected


def _split_largest_class(col: EdgeColoring) -> EdgeColoring:
    """The coloring with each edge of its largest class in a class of its
    own."""
    biggest = max(range(col.num_colors), key=col.colors.count)
    largest = [e for e, c in enumerate(col.colors) if c == biggest]
    colors = list(col.colors)
    for offset, e in enumerate(largest[1:]):
        colors[e] = col.num_colors + offset
    return EdgeColoring.from_sequence(colors)


def test_rainbow_walk_agrees_with_combinations_oracle():
    # random colorings of order 8..12 members, and the greedy seed colorings
    # of order-15 and order-16 members at k = 5 and of order-12 and order-13
    # members at k = 6, which admit no rainbow k-matching, each also with
    # its largest class split up so that a rainbow matching appears
    rng = random.Random(2022)
    cases = []
    for n in range(8, 13):
        for g in rng.sample(mop_graphs(n), 2):
            m = g.edge_count
            for k in range(3, min(5, n // 2) + 1):
                for _ in range(2):
                    col = _random_coloring(rng, m, rng.randint(k, m))
                    cases.append((g, k, col))
    seeded = [(graph6_decode(g6), 5) for g6 in LARGE_MEMBERS]
    seeded += [(g, 6) for n in (12, 13) for g in rng.sample(mop_graphs(n), 2)]
    for g, k in seeded:
        seed = seed_incumbent(g, k)
        cases.append((g, k, seed))
        cases.append((g, k, _split_largest_class(seed)))
    reasons = []
    for g, k, col in cases:
        expected = next(iter_k_matchings_by_filter(g, k, col.colors), None)
        witness = find_rainbow_matching(g, col, k)
        assert (witness and witness.matching) == expected
        outcome = verify_certificate(g, col, k, col.num_colors)
        assert outcome.reason == (OK if expected is None else RAINBOW_FOUND)
        reasons.append(outcome.reason)
    assert reasons.count(OK) >= len(seeded)
    assert reasons.count(RAINBOW_FOUND) >= len(seeded)


def test_rainbow_imports_nothing_from_mopar_but_graphs():
    # the checker must share no code with the solver or the matching lists
    # whose results it checks
    tree = ast.parse(Path(mopar.rainbow.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                imported.append("." * node.level + (node.module or ""))
            else:
                imported.append(node.module)
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    ours = [
        name for name in imported
        if name.startswith(".") or name.split(".")[0] == "mopar"
    ]
    assert ours and all(name in (".graphs", "mopar.graphs") for name in ours)


def test_merging_classes_never_creates_a_rainbow_matching():
    rng = random.Random(17)
    for g in mop_graphs(7)[:4]:
        m = g.edge_count
        for _ in range(15):
            col = _random_coloring(rng, m, rng.randint(2, m))
            a, b = rng.sample(range(col.num_colors), 2)
            merged = merge_classes(col, a, b)
            for k in (2, 3):
                after = find_rainbow_matching(g, merged, k)
                if after is not None:
                    # the same matching is rainbow under the finer coloring
                    assert len({col.colors[e] for e in after.matching}) == k


@given(st.randoms(use_true_random=False))
def test_verification_invariant_under_color_relabeling(rng):
    g = graph6_decode("E|EW")
    m = g.edge_count
    col = _random_coloring(random.Random(rng.randint(0, 10**9)), m, 5)
    perm = list(range(col.num_colors))
    rng.shuffle(perm)
    relabeled = EdgeColoring.from_sequence(perm[c] for c in col.colors)
    for k in (2, 3):
        assert (
            verify_certificate(g, col, k, col.num_colors).ok
            == verify_certificate(g, relabeled, k, relabeled.num_colors).ok
        )


def test_certificate_json_round_trip():
    col = EdgeColoring.from_sequence([0, 0, 1, 2, 1, 0, 2])
    data = certificate_to_json(FAN5, 2, col)
    assert certificate_from_json(data) == (FAN5, 2, col)
