import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from mopar.graphs import (
    Graph,
    Graph6Error,
    canonical_form,
    graph6_decode,
    graph6_encode,
)
from oracles import brute_force_isomorphic, cut_edges, degree_stats, mask_of
from side_checks import bipartition_of

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
STAR4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
C6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
GRID23 = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    include = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, keep in zip(pairs, include) if keep])


def test_edges_are_lexicographic():
    g = Graph.from_edges(4, [(3, 1), (2, 0), (1, 0)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.edges.index((1, 3)) == 2


def test_rejects_self_loops_and_bad_sizes():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(2, [2, 0])  # asymmetric
    with pytest.raises(ValueError, match="adjacency has 1 rows"):
        Graph(2, [0])
    with pytest.raises(ValueError, match="row 0 references vertices >= 2"):
        Graph(2, [4, 0])
    with pytest.raises(ValueError, match="self-loop at vertex 0"):
        Graph(2, [1, 0])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(3, [(0, 5)])


def test_degree_stats_examples():
    assert degree_stats(K3) == (2, 2, (2, 2, 2))
    assert degree_stats(STAR4) == (1, 3, (1, 1, 1, 3))


@given(graphs())
def test_degree_sum_is_twice_edge_count(g):
    _, _, degs = degree_stats(g)
    assert sum(degs) == 2 * g.edge_count


def test_cut_edges_examples():
    assert cut_edges(C4, [0, 2], [1, 3]) == 4
    assert cut_edges(C4, [], [0, 1, 2, 3]) == 0
    bp = bipartition_of(GRID23)
    assert cut_edges(GRID23, bp.x_mask, bp.y_mask) == 7


def test_cut_edges_rejects_overlap():
    with pytest.raises(ValueError):
        cut_edges(C4, [0, 1], [1, 2])


@given(graphs(max_n=7), st.data())
def test_cut_additivity(g, data):
    verts = list(range(g.n))
    labels = data.draw(
        st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n)
    )
    a = mask_of(v for v in verts if labels[v] == 0)
    b = mask_of(v for v in verts if labels[v] == 1)
    c = mask_of(v for v in verts if labels[v] == 2)
    assert cut_edges(g, a, b) + cut_edges(g, a, c) == cut_edges(g, a, b | c)


def test_bipartition_examples():
    assert bipartition_of(C6).sizes == (3, 3)
    assert bipartition_of(K3) is None
    bp = bipartition_of(STAR4)
    assert bp.sizes == (1, 3) and bp.x_mask == 1


def test_bipartition_minimizes_small_side_per_component():
    # star + isolated vertices: the only optimal X is the star center
    g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3)])
    bp = bipartition_of(g)
    assert bp.x_mask == 1 and bp.sizes == (1, 6)
    # two stars: both centers
    g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)])
    assert bipartition_of(g).x_mask == (1 | 1 << 4)


@given(graphs())
def test_bipartition_is_proper_when_found(g):
    bp = bipartition_of(g)
    if bp is None:
        return
    assert bp.x_mask & bp.y_mask == 0
    assert bp.x_mask | bp.y_mask == g.vertex_mask
    assert cut_edges(g, bp.x_mask, bp.y_mask) == g.edge_count


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_canonical_form_separates_path_from_triangle():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert canonical_form(p3).graph6 != canonical_form(K3).graph6


@given(graphs(), st.randoms(use_true_random=False))
def test_canonical_form_is_relabeling_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(g).graph6 == canonical_form(g.relabel(perm)).graph6


@given(graphs())
def test_canonical_permutation_realizes_canonical_string(g):
    form = canonical_form(g)
    assert graph6_encode(g.relabel(form.permutation)) == form.graph6


@pytest.mark.parametrize("n,expected_classes", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
def test_canonical_form_vs_brute_force_isomorphism_exhaustive(n, expected_classes):
    pairs = list(combinations(range(n), 2))
    reps = {}
    for mask in range(1 << len(pairs)):
        g = Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        )
        key = canonical_form(g).graph6
        if key in reps:
            assert brute_force_isomorphic(reps[key], g)
        else:
            reps[key] = g
    assert len(reps) == expected_classes
    classes = list(reps.values())
    for a, b in combinations(classes, 2):
        assert not brute_force_isomorphic(a, b)


def test_canonical_form_vs_brute_force_sampled_n6_n7():
    rng = random.Random(20260808)
    for _ in range(150):
        n = rng.choice((6, 7))
        edges = [
            (u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert canonical_form(g).graph6 == canonical_form(h).graph6
        assert brute_force_isomorphic(g, h)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def test_graph6_known_values():
    assert graph6_encode(Graph(1, [0])) == "@"
    assert graph6_encode(K3) == "Bw"
    assert graph6_decode("Bw") == K3
    assert graph6_decode("@") == Graph(1, [0])


@given(graphs(max_n=12))
def test_graph6_round_trip(g):
    assert graph6_decode(graph6_encode(g)) == g


def test_graph6_round_trip_on_enumerated_mops():
    from mopar.mops import enumerate_mops

    for n in range(3, 13):
        for text in enumerate_mops(n):
            h = graph6_decode(text)
            g = Graph(n, h.adj)
            assert h == g and h.edges == g.edges
            # the string a decoded graph carries is the one a fresh
            # encoding of it gives
            assert graph6_encode(h) == graph6_encode(g) == text


def test_asymmetric_rows_are_rejected_in_both_directions():
    from mopar.mops import enumerate_mops

    g = graph6_decode(enumerate_mops(8)[5])
    for u, v in g.edges:
        # u < v: an upper bit (row u names v) without its mirror, then a
        # lower bit (row v names u) without its mirror
        rows = list(g.adj)
        rows[v] &= ~(1 << u)
        with pytest.raises(ValueError) as err:
            Graph(g.n, rows)
        assert str(err.value) == f"asymmetric adjacency between {v} and {u}"
        rows = list(g.adj)
        rows[u] &= ~(1 << v)
        with pytest.raises(ValueError) as err:
            Graph(g.n, rows)
        assert str(err.value) == f"asymmetric adjacency between {u} and {v}"


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error) as err:
        graph6_decode("")
    assert err.value.offset == 0
    with pytest.raises(Graph6Error) as err:
        graph6_decode("B")  # truncated body
    assert err.value.offset == 1
    with pytest.raises(Graph6Error) as err:
        graph6_decode("Bw~")  # trailing junk
    assert err.value.offset == 2
    with pytest.raises(Graph6Error):
        graph6_decode("~??")  # multi-byte order
    with pytest.raises(Graph6Error) as err:
        graph6_decode("B" + chr(40))  # below alphabet
    assert err.value.offset == 1
    with pytest.raises(Graph6Error, match="bad vertex count byte") as err:
        graph6_decode(">")
    assert err.value.offset == 0
    with pytest.raises(Graph6Error, match="exceeds the 32 limit") as err:
        graph6_decode(chr(96))  # a 33-vertex header
    assert err.value.offset == 0
    with pytest.raises(Graph6Error, match="nonzero padding bits") as err:
        graph6_decode("A@")
    assert err.value.offset == 1
