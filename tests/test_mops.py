import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from mopar.graphs import (
    Graph,
    bipartition_of,
    canonical_form,
    iter_bits,
)
from mopar.matchings import components
from mopar.mops import (
    TRIANGULATION_FORMAT_HEADER,
    Triangulation,
    bipartite_outerplanar_corpus,
    enumerate_mops,
    enumerate_triangulations,
)
from mopar.runner import _class_members
from oracles import (
    K4,
    K4_EDGES,
    K23,
    K23_EDGES,
    branch_set_minor,
    catalan_recurrence,
    degree_stats,
    diagonal_dihedral_key,
    find_minor,
    has_minor,
    is_outerplanar,
)

CLASS_MEMBERS = Path(__file__).resolve().parent / "class_members.json"
GRID23 = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])


@pytest.mark.parametrize("n", range(3, 13))
def test_labeled_triangulation_counts_match_catalan(n):
    assert sum(1 for _ in enumerate_triangulations(n)) == catalan_recurrence(n - 2)


def test_triangulations_are_valid_and_distinct():
    for n in range(3, 9):
        seen = set()
        for tri in enumerate_triangulations(n):
            assert tri.diagonals not in seen
            seen.add(tri.diagonals)
            assert len(tri.diagonals) == n - 3
            g = tri.graph()
            assert g.edge_count == 2 * n - 3
            # no two diagonals cross
            for (a, b), (c, d) in combinations(tri.diagonals, 2):
                assert not (a < c < b < d or c < a < d < b)


def test_triangulation_range_checks():
    with pytest.raises(ValueError):
        list(enumerate_triangulations(2))
    with pytest.raises(ValueError):
        list(enumerate_triangulations(17))


def test_triangulation_text_format():
    tri = Triangulation(5, ((0, 2), (2, 4)))
    assert tri.text() == "5: 0-2,2-4"
    assert Triangulation(3, ()).text() == "3:"
    assert TRIANGULATION_FORMAT_HEADER.startswith("#")


@pytest.mark.parametrize(
    "n,expected",
    [(3, 1), (4, 1), (5, 1), (6, 3), (7, 4), (8, 12), (9, 27), (10, 82),
     (11, 228), (12, 733), (13, 2282)],
)
def test_mop_isomorphism_class_counts(n, expected):
    # OEIS A000207: triangulations of the n-gon up to rotation and reflection
    assert len(enumerate_mops(n)) == expected


def test_mop_range_checks():
    with pytest.raises(ValueError):
        enumerate_mops(2)
    with pytest.raises(ValueError):
        enumerate_mops(17)


def _diagonals(g):
    """The edges of a polygon-labeled MOP that are not polygon sides."""
    return [(a, b) for a, b in g.edges if b - a not in (1, g.n - 1)]


@pytest.mark.parametrize("n", range(3, 12))
def test_dihedral_dedup_agrees_with_canonical_form(n):
    triangulations = list(enumerate_triangulations(n))
    mops = enumerate_mops(n)
    # one representative per dihedral class of labeled triangulations
    keys = [diagonal_dihedral_key(n, _diagonals(g)) for g in mops]
    assert len(set(keys)) == len(mops)
    assert set(keys) == {diagonal_dihedral_key(n, t.diagonals) for t in triangulations}
    by_canon = {canonical_form(t.graph()).graph6 for t in triangulations}
    assert len(by_canon) == len(mops)
    assert {canonical_form(g).graph6 for g in mops} == by_canon


def test_class_members_match_fixture():
    # sorted canonical graph6 of every class member, from the enumeration
    # of all labeled triangulations: solver inputs, cache keys and
    # member_values.json all follow this list
    pinned = json.loads(CLASS_MEMBERS.read_text())
    assert list(pinned) == [str(n) for n in range(3, 12)]
    for n, members in pinned.items():
        assert _class_members(int(n)) == members, n


@pytest.mark.parametrize("n", range(3, 10))
def test_mop_invariants(n):
    for g in enumerate_mops(n):
        mn, _, degs = degree_stats(g)
        assert g.edge_count == 2 * n - 3
        assert mn == 2
        assert len(components(g, g.vertex_mask)) == 1
        if n >= 4:
            assert degs.count(2) >= 2
        # polygon cycle is present as a Hamiltonian cycle
        assert all(g.has_edge(i, (i + 1) % n) for i in range(n))
        assert is_outerplanar(g)


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------

def _check_witness(g, masks, pattern_edges):
    acc = 0
    for mask in masks:
        assert mask and acc & mask == 0
        acc |= mask
        comp = components(g, mask)
        assert len(comp) == 1  # connected branch set
    for a, b in pattern_edges:
        assert any(
            g.adj[v] & masks[b] for v in iter_bits(masks[a])
        ), "branch sets not adjacent"


def test_minor_trivial_cases():
    k4 = Graph.from_edges(4, K4_EDGES)
    k23 = Graph.from_edges(5, K23_EDGES)
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert has_minor(k4, K4) and not is_outerplanar(k4)
    assert has_minor(k23, K23) and not is_outerplanar(k23)
    assert not has_minor(c5, K4) and not has_minor(c5, K23)
    _check_witness(k4, find_minor(k4, K4), K4_EDGES)
    _check_witness(k23, find_minor(k23, K23), K23_EDGES)


def test_minor_subdivision_is_detected():
    # K_{2,3} with edge (0,2) subdivided through 5
    g = Graph.from_edges(6, [(0, 5), (5, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert has_minor(g, K23)
    _check_witness(g, find_minor(g, K23), K23_EDGES)


def test_grid_has_no_k23_minor():
    assert not has_minor(GRID23, K23)
    assert branch_set_minor(GRID23, 5, K23_EDGES) is False
    assert is_outerplanar(GRID23)


def test_unknown_pattern_rejected():
    with pytest.raises(ValueError):
        has_minor(GRID23, "K5")


def test_minor_vs_branch_set_oracle_random():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(4, 6)
        edges = [
            (u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        assert has_minor(g, K4) == branch_set_minor(g, 4, K4_EDGES)
        if n >= 5:
            assert has_minor(g, K23) == branch_set_minor(g, 5, K23_EDGES)


def test_minor_witnesses_are_models():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(5, 8)
        edges = [
            (u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.45
        ]
        g = Graph.from_edges(n, edges)
        for pattern, pedges in ((K4, K4_EDGES), (K23, K23_EDGES)):
            masks = find_minor(g, pattern)
            if masks is not None:
                _check_witness(g, masks, pedges)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def test_corpus_order_two():
    graphs = list(bipartite_outerplanar_corpus(2))
    assert len(graphs) == 2
    assert sorted(g.edge_count for g in graphs) == [0, 1]


def test_corpus_contains_star_and_no_odd_cycles():
    corpus = list(bipartite_outerplanar_corpus(6))
    star4 = canonical_form(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])).graph6
    keys = {canonical_form(g).graph6 for g in corpus}
    assert star4 in keys
    assert len(keys) == len(corpus)  # no duplicates
    for g in corpus:
        assert bipartition_of(g) is not None
        assert is_outerplanar(g)


def test_corpus_includes_disconnected_and_isolated():
    corpus = list(bipartite_outerplanar_corpus(4))
    assert any(g.edge_count == 0 for g in corpus)  # fully isolated vertices
    assert any(
        g.n == 4 and len(components(g, g.vertex_mask)) == 2 and g.edge_count == 2
        for g in corpus
    )


def test_corpus_range_checks():
    with pytest.raises(ValueError):
        list(bipartite_outerplanar_corpus(1))
    with pytest.raises(ValueError):
        list(bipartite_outerplanar_corpus(10))
