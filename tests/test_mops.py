import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from graph_helpers import triangulation_graph
from mopar.cli import TRIANGULATION_FORMAT_HEADER, triangulation_text
from mopar.graphs import (
    Graph,
    canonical_form,
    graph6_decode,
    graph6_encode,
    iter_bits,
)
from mopar.mops import enumerate_mops, enumerate_triangulations
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
    mop_graphs,
    polygon_graph,
)
from side_checks import bipartite_outerplanar_corpus, bipartition_of, components

CLASS_MEMBERS = Path(__file__).resolve().parent / "class_members.json"
GRID23 = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])


@pytest.mark.parametrize("n", range(3, 13))
def test_labeled_triangulation_counts_match_catalan(n):
    assert sum(1 for _ in enumerate_triangulations(n)) == catalan_recurrence(n - 2)


def test_triangulations_are_valid_and_distinct():
    for n in range(3, 9):
        seen = set()
        for diagonals in enumerate_triangulations(n):
            assert diagonals not in seen
            seen.add(diagonals)
            assert len(diagonals) == n - 3
            assert diagonals == tuple(sorted(diagonals))
            assert all(a < b for a, b in diagonals)
            g = triangulation_graph(n, diagonals)
            assert g.edge_count == 2 * n - 3
            # no two diagonals cross
            for (a, b), (c, d) in combinations(diagonals, 2):
                assert not (a < c < b < d or c < a < d < b)


def test_triangulation_range_checks():
    with pytest.raises(ValueError):
        list(enumerate_triangulations(2))
    with pytest.raises(ValueError):
        list(enumerate_triangulations(17))


def test_triangulation_text_format():
    assert triangulation_text(5, ((0, 2), (2, 4))) == "5: 0-2,2-4"
    assert triangulation_text(3, ()) == "3:"
    assert TRIANGULATION_FORMAT_HEADER.startswith("#")


@pytest.mark.parametrize(
    "n,expected",
    [(3, 1), (4, 1), (5, 1), (6, 3), (7, 4), (8, 12), (9, 27), (10, 82),
     (11, 228), (12, 733), (13, 2282), (14, 7528), (15, 24834),
     (16, 83898),
     pytest.param(17, 285357, marks=pytest.mark.extended),
     pytest.param(18, 983244, marks=pytest.mark.extended)],
)
def test_mop_isomorphism_class_counts(n, expected):
    # OEIS A000207: triangulations of the n-gon up to rotation and reflection
    names = enumerate_mops(n)
    assert len(names) == expected
    assert len(set(names)) == expected


@pytest.mark.parametrize(
    "n",
    [12, 13, 14, 15,
     pytest.param(16, marks=pytest.mark.extended),
     pytest.param(17, marks=pytest.mark.extended),
     pytest.param(18, marks=pytest.mark.extended)],
)
def test_member_names_are_distinct_polygon_triangulations(n):
    # each name is a triangulation of the polygon 0..n-1: its sides are
    # edges and the other n - 3 edges are pairwise non-crossing diagonals;
    # with distinct canonical forms and the A000207 count of
    # test_mop_isomorphism_class_counts, the list holds exactly one name
    # per class without trusting how the enumerator built it
    names = enumerate_mops(n)
    forms = set()
    for name in names:
        g = graph6_decode(name)
        assert g.n == n and g.edge_count == 2 * n - 3, name
        assert all(g.adj[i] >> (i + 1) % n & 1 for i in range(n)), name
        diagonals = _diagonals(g)
        assert not any(
            a < c < b < d or c < a < d < b
            for (a, b), (c, d) in combinations(diagonals, 2)
        ), name
        forms.add(canonical_form(g).graph6)
    assert len(forms) == len(names)


def test_mop_range_checks():
    with pytest.raises(ValueError):
        enumerate_mops(2)
    with pytest.raises(ValueError):
        enumerate_mops(19)


def _least_dihedral_image(quiddity: bytes) -> bytes:
    rotations = [quiddity[r:] + quiddity[:r] for r in range(len(quiddity))]
    return min(rotations + [w[::-1] for w in rotations])


@pytest.mark.parametrize("n", range(3, 14))
def test_names_are_polygon_graphs_of_the_least_keys(n):
    # a vertex with d diagonals lies in d + 1 triangles: every labeled
    # triangulation's quiddity sequence, least of its 2n images, is one
    # class's key, and the class's name is that key's polygon graph
    keys = set()
    for diagonals in enumerate_triangulations(n):
        quiddity = [1] * n
        for a, b in diagonals:
            quiddity[a] += 1
            quiddity[b] += 1
        keys.add(_least_dihedral_image(bytes(quiddity)))
    assert enumerate_mops(n) == [
        graph6_encode(polygon_graph(q)) for q in sorted(keys)
    ]


def _diagonals(g):
    """The edges of a polygon-labeled MOP that are not polygon sides."""
    return [(a, b) for a, b in g.edges if b - a not in (1, g.n - 1)]


@pytest.mark.parametrize("n", range(3, 12))
def test_dihedral_dedup_agrees_with_canonical_form(n):
    triangulations = list(enumerate_triangulations(n))
    mops = mop_graphs(n)
    # one representative per dihedral class of labeled triangulations
    keys = [diagonal_dihedral_key(n, _diagonals(g)) for g in mops]
    assert len(set(keys)) == len(mops)
    assert set(keys) == {diagonal_dihedral_key(n, t) for t in triangulations}
    by_canon = {
        canonical_form(triangulation_graph(n, t)).graph6 for t in triangulations
    }
    assert len(by_canon) == len(mops)
    assert {canonical_form(g).graph6 for g in mops} == by_canon


def test_class_members_match_fixture():
    # the polygon name of every class member, in enumeration order:
    # solver inputs, cache keys and member_values.json all follow this list
    pinned = json.loads(CLASS_MEMBERS.read_text())
    assert list(pinned) == [str(n) for n in range(3, 12)]
    for n, members in pinned.items():
        assert list(_class_members(int(n))) == members, n


@pytest.mark.parametrize("n", range(3, 10))
def test_mop_invariants(n):
    for g in mop_graphs(n):
        mn, _, degs = degree_stats(g)
        assert g.edge_count == 2 * n - 3
        assert mn == 2
        assert len(components(g, g.vertex_mask)) == 1
        if n >= 4:
            assert degs.count(2) >= 2
        # polygon cycle is present as a Hamiltonian cycle
        assert all(g.adj[i] >> (i + 1) % n & 1 for i in range(n))
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
