import random

import pytest

from mopar.graphs import Graph, graph6_decode
from mopar.matchings import matching_number
from mopar.mops import enumerate_mops
from mopar.rainbow import verify_certificate
from mopar.solver import (
    EXACT,
    LOWER_BOUND,
    ArResult,
    ar_brute_force,
    ar_exact,
    seed_incumbent,
)

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def test_unique_mop4_value_three():
    (g,) = enumerate_mops(4)
    result = ar_exact(g, 2)
    assert result.value == 3 and result.mode == EXACT
    assert ar_brute_force(g, 2) == 3
    assert verify_certificate(g, result.witness, 2, 3).ok


def test_unique_mop5_value_one():
    (g,) = enumerate_mops(5)
    assert ar_exact(g, 2).value == 1


def test_vacuous_when_no_k_matching_exists():
    for g in enumerate_mops(6):
        result = ar_exact(g, 4)  # beta = 3 < 4
        assert result.value == g.edge_count == 9
        assert result.mode == EXACT
        assert result.witness.num_colors == 9


def test_brute_force_examples():
    assert ar_brute_force(P4, 2) == 2
    assert ar_brute_force(K3, 2) == 3  # beta = 1, vacuous


def test_brute_force_guard():
    big = enumerate_mops(7)[0]  # 11 edges
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
        for g in enumerate_mops(n):
            if g.edge_count <= 9:
                graphs.append(g)
    rng = random.Random(5)
    for host in enumerate_mops(6):
        m = host.edge_count
        for _ in range(10):
            idxs = [i for i in range(m) if rng.random() < 0.7]
            if idxs:
                graphs.append(host.spanning_subgraph(idxs))
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
            assert ar_exact(g, k).value == ar_brute_force(g, k)


def test_transposition_table_eviction_keeps_values():
    for g in enumerate_mops(8):
        full = ar_exact(g, 4)
        tiny = ar_exact(g, 4, tt_capacity=1)
        assert tiny.mode == EXACT and tiny.value == full.value
        assert verify_certificate(g, tiny.witness, 4, tiny.value).ok


def test_floor_boundary_every_member_9_4():
    # the search is complete only above the floor: floor v-1 finds and
    # proves the value v; floor v proves nothing beats v but finds no
    # witness at v, so it is EXACT only when the greedy seed reaches v
    lower_bounds = 0
    for g in enumerate_mops(9):
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
    for g in enumerate_mops(8)[:5]:
        values = [ar_exact(g, k).value for k in (2, 3, 4, 5)]
        assert values == sorted(values)


def test_value_equals_edge_count_iff_no_matching():
    for g in enumerate_mops(6) + enumerate_mops(7)[:2]:
        for k in (2, 3, 4, 5):
            result = ar_exact(g, k)
            assert (result.value == g.edge_count) == (matching_number(g) < k)


def test_every_exact_witness_verifies():
    for n, k in ((6, 2), (6, 3), (7, 3), (8, 4)):
        for g in enumerate_mops(n):
            result = ar_exact(g, k)
            assert result.mode == EXACT
            assert verify_certificate(g, result.witness, k, result.value).ok


def test_determinism_repeated_runs():
    g = enumerate_mops(8)[3]
    first = ar_exact(g, 4)
    second = ar_exact(g, 4)
    assert first.value == second.value
    assert first.witness == second.witness
    assert first.nodes == second.nodes


def test_budget_degrades_to_lower_bound():
    g = enumerate_mops(9)[0]
    result = ar_exact(g, 4, max_nodes=5)
    assert result.mode == LOWER_BOUND
    assert result.witness is not None
    assert verify_certificate(g, result.witness, 4, result.value).ok
    full = ar_exact(g, 4)
    assert result.value <= full.value


def test_floor_mode_hunts_witnesses_above_floor():
    g = enumerate_mops(9)[0]
    full = ar_exact(g, 4)
    hunt = ar_exact(g, 4, floor=full.value - 1)
    assert hunt.mode == EXACT and hunt.value == full.value
    # floor above the true value: nothing above it exists, so the result
    # honestly degrades to the seed as a lower bound
    too_high = ar_exact(g, 4, floor=full.value + 3)
    assert too_high.value <= full.value
    if too_high.value < full.value + 3:
        assert too_high.mode == LOWER_BOUND


def test_stop_at_returns_early_with_witness():
    g = enumerate_mops(9)[0]
    result = ar_exact(g, 4, stop_at=5)
    assert result.value >= 5
    assert result.mode == LOWER_BOUND
    assert verify_certificate(g, result.witness, 4, result.value).ok


def test_seed_incumbent_contract():
    for n, k in ((6, 3), (8, 4), (10, 5)):
        for g in enumerate_mops(n)[:8]:
            seed = seed_incumbent(g, k)
            assert verify_certificate(g, seed, k, seed.num_colors).ok
            assert seed.num_colors >= 1


def test_seed_never_beats_exact():
    for g in enumerate_mops(8)[:6]:
        seed = seed_incumbent(g, 4)
        assert seed.num_colors <= ar_exact(g, 4).value


def test_result_json_round_trip():
    g = enumerate_mops(6)[0]
    result = ar_exact(g, 3)
    data = result.to_json()
    back = ArResult.from_json(data)
    assert back.value == result.value and back.witness == result.witness
    assert back.graph6 == result.graph6
    assert graph6_decode(back.graph6) == g
