import random

import pytest
from hypothesis import given, strategies as st

from mopar.graphs import Graph
from mopar.matchings import iterate_k_matchings, matching_number
from oracles import (
    k_matchings_by_filter,
    mop_graphs,
    random_connected_graph,
    random_graph,
    scattered_graph,
    tutte_berge_minimum,
)
from side_checks import (
    TutteBergeCertificate,
    certificate_is_valid,
    components,
    formula_value,
    has_perfect_matching,
    is_factor_critical,
    tutte_berge_certificate,
)

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
C5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
C6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
K4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
STAR4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def test_matching_number_examples():
    assert matching_number(K3) == 1
    disjoint = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    assert matching_number(disjoint) == 4


@pytest.mark.parametrize("n", range(3, 11))
def test_mop_matching_number_is_half_order(n):
    for g in mop_graphs(n):
        assert matching_number(g) == n // 2


def test_k_matching_iteration_examples():
    assert len(list(iterate_k_matchings(C6, 3))) == 2
    assert len(list(iterate_k_matchings(K4, 2))) == 3
    assert list(iterate_k_matchings(P4, 2)) == [(0, 2)]
    with pytest.raises(ValueError):
        list(iterate_k_matchings(P4, 0))


def test_k_matchings_are_sorted_and_disjoint():
    for g in (C6, K4, *mop_graphs(6)):
        for k in (1, 2, 3):
            out = list(iterate_k_matchings(g, k))
            assert out == sorted(out)
            for matching in out:
                used = 0
                for e in matching:
                    u, v = g.edges[e]
                    assert not (used >> u & 1 or used >> v & 1)
                    used |= 1 << u | 1 << v


def test_k_matchings_agree_with_combination_filter():
    # the free-vertex cut drops only subtrees without a k-matching, so the
    # output must be the plain filter's, in the same order
    rng = random.Random(41)
    graphs = [g for n in range(3, 10) for g in mop_graphs(n)]
    graphs += [scattered_graph(rng) for _ in range(40)]
    for g in graphs:
        for k in range(1, 6):
            assert list(iterate_k_matchings(g, k)) == k_matchings_by_filter(g, k)


def test_edge_masks_are_each_matchings_edge_bits():
    # `_edge_masks` gets one entry per yielded tuple, the OR of its edge
    # bits, for every k the walk takes (k = 1 and lists without a
    # matching included), appended after what the list already holds
    rng = random.Random(43)
    graphs = [g for n in range(3, 10) for g in mop_graphs(n)]
    graphs += [scattered_graph(rng) for _ in range(20)]
    for g in graphs:
        for k in range(1, matching_number(g) + 2):
            masks = [-1]
            out = list(iterate_k_matchings(g, k, _edge_masks=masks))
            assert masks == [-1] + [
                sum(1 << e for e in matching) for matching in out
            ], (g.edges, k)


def test_iteration_empty_beyond_matching_number():
    for g in (K3, P4, C6, STAR4):
        beta = matching_number(g)
        assert list(iterate_k_matchings(g, beta + 1)) == []
        assert list(iterate_k_matchings(g, beta))


def test_factor_critical_examples():
    assert is_factor_critical(K3)
    assert is_factor_critical(C5)
    assert not is_factor_critical(P3)
    assert not is_factor_critical(C6)  # even order


def test_certificate_examples():
    cert = tutte_berge_certificate(K3)
    assert (cert.t_mask, cert.odd_components, cert.value) == (0, 1, 1)
    cert = tutte_berge_certificate(STAR4)
    assert (cert.t_mask, cert.odd_components, cert.value) == (1, 3, 1)
    assert certificate_is_valid(STAR4, cert)


def test_certificate_rejects_large_graphs():
    big = Graph.from_edges(15, [(i, i + 1) for i in range(14)])
    with pytest.raises(ValueError):
        tutte_berge_certificate(big)


@pytest.mark.parametrize("n", range(3, 10))
def test_mop_certificates(n):
    for g in mop_graphs(n):
        cert = tutte_berge_certificate(g)
        assert cert.value == matching_number(g) == n // 2
        assert certificate_is_valid(g, cert)
        assert cert.t_mask.bit_count() <= cert.value
        if n % 2 == 0 and cert.t_mask == 0:
            assert has_perfect_matching(g)


def test_identity_against_subset_minimum_random():
    rng = random.Random(2024)
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 9))
        beta = matching_number(g)
        assert beta == tutte_berge_minimum(g)
        cert = tutte_berge_certificate(g)
        assert cert.value == beta
        assert certificate_is_valid(g, cert)


def test_certificate_components_pass_filters():
    rng = random.Random(11)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 9))
        cert = tutte_berge_certificate(g)
        rest = g.vertex_mask & ~cert.t_mask
        odd = 0
        for comp in components(g, rest):
            if comp.bit_count() % 2:
                odd += 1
                assert is_factor_critical(g, comp)
            else:
                assert has_perfect_matching(g, comp)
        assert odd == cert.odd_components


@given(st.integers(2, 8), st.randoms(use_true_random=False))
def test_formula_value_parity(n, rng):
    g = random_graph(random.Random(rng.randint(0, 10**9)), n)
    beta = matching_number(g)
    for t_mask in range(1 << min(n, 6)):
        odd, value = formula_value(g, t_mask)
        assert (g.n - odd + t_mask.bit_count()) % 2 == 0
        assert value * 2 == g.n - odd + t_mask.bit_count()
        assert value >= beta  # the easy direction of the identity


def test_certificate_json_round_trip():
    cert = tutte_berge_certificate(STAR4)
    data = cert.to_json()
    assert data == {"T": [0], "odd_components": 3, "value": 1}
    assert TutteBergeCertificate.from_json(data) == cert
