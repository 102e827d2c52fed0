"""Acceptance gate: every quantitative claim this package is built to check.

Each test prints one PASS line (visible with -s or -rP; with -v the test
name itself reports the verdict).  Everything asserts exact integer
equality.  The order-15 sweep is opt-in: pytest -m extended.
"""

import random

import pytest

from graph_helpers import spanning_subgraph, triangulation_graph
from mopar.graphs import canonical_form, graph6_decode
from mopar.matchings import matching_number
from mopar.mops import enumerate_mops, enumerate_triangulations
from mopar.rainbow import EdgeColoring, find_rainbow_matching, verify_certificate
from mopar.runner import ResultCache, ar_class
from mopar.solver import ar_exact
from oracles import (
    ar_brute_force,
    catalan_recurrence,
    merge_classes,
    mop_graphs,
    random_connected_graph,
    random_graph,
)
from side_checks import (
    bipartite_outerplanar_corpus,
    bipartition_of,
    certificate_is_valid,
    components,
    lemma_bipartite_check,
    tutte_berge_certificate,
)

MOP_CLASS_COUNTS = {4: 1, 5: 1, 6: 3, 7: 4, 8: 12, 9: 27, 10: 82}


def _report(number: int, detail: str) -> None:
    print(f"[criterion {number:2d}] PASS  {detail}")


def test_criterion_01_enumeration_counts():
    for n in range(3, 13):
        labeled = sum(1 for _ in enumerate_triangulations(n))
        assert labeled == catalan_recurrence(n - 2), f"labeled count at n={n}"
    for n, expected in MOP_CLASS_COUNTS.items():
        mops = enumerate_mops(n)
        assert len(mops) == expected, f"class count at n={n}"
        # dedup oracle: canonical forms of every labeled triangulation
        oracle = {
            canonical_form(triangulation_graph(n, t)).graph6
            for t in enumerate_triangulations(n)
        }
        assert len(oracle) == expected, f"canonical dedup oracle at n={n}"
    _report(1, "Catalan counts 3..12 and class counts (1,1,3,4,12,27,82)")


def test_criterion_02_matchings_of_size_two():
    assert ar_class(4, 2).value == 3
    for n in range(5, 11):
        result = ar_class(n, 2)
        assert result.complete and result.value == 1, f"n={n}"
    _report(2, "ar over the class: (4,2) -> 3 and (n,2) -> 1 for n=5..10")


def test_criterion_03_matchings_of_size_three():
    assert ar_class(6, 3).value == 7
    for n in range(7, 11):
        result = ar_class(n, 3)
        assert result.complete and result.value == n, f"n={n}"
    _report(3, "(6,3) -> 7 and (n,3) -> n for n=7..10")


def test_criterion_04_matchings_of_size_four():
    assert ar_class(8, 4).value == 11
    for n in range(9, 12):
        result = ar_class(n, 4)
        assert result.complete and result.value == n + 2, f"n={n}"
    _report(4, "(8,4) -> 11 and (n,4) -> n+2 for n=9..11")


def test_criterion_05_size_five_lower_bounds():
    for n in (10, 11, 12):
        target = n + 4
        result = ar_class(n, 5, floor=target - 1, jobs=2)
        assert result.complete, f"n={n}: members left unsettled"
        assert result.value >= target, f"n={n}: best {result.value} < {target}"
        top = max(result.results, key=lambda r: r.value)
        g = graph6_decode(top.graph6)
        outcome = verify_certificate(g, top.witness, 5, top.value)
        assert outcome.ok, f"witness failed verification at n={n}"
    _report(5, "(n,5) >= n+4 for n=10..12, each with a verifying certificate")


@pytest.mark.extended
def test_criterion_06_extended_order_fifteen(tmp_path):
    # the whole floor-18 pass of `mop ar-class --n 15 --k 5 --floor 18
    # --jobs 2 --cache <file>` (about half a core-hour, so
    # opt-in), on two processes with a budget of 2,000,000 nodes per
    # member (about 5 s at (15,5)'s cost per node): the first
    # member in enumeration order reaches 19, which certifies the lower
    # direction, and any member the budget stops is reported unsolved,
    # exactly as a budget-exhausted run must
    cache = ResultCache(tmp_path / "extended-15-5.jsonl")
    full = ar_class(15, 5, max_nodes=2_000_000, jobs=2, cache=cache, floor=18)
    assert full.value >= 19
    top = max(full.results, key=lambda r: r.value)
    g = graph6_decode(top.graph6)
    assert verify_certificate(g, top.witness, 5, top.value).ok
    if full.complete:
        assert full.value == 19
        _report(6, "ar over the order-15 class for 5-matchings is exactly 19")
    else:
        print(f"unsolved members within budget: {len(full.unsolved)}")
        _report(
            6,
            f"lower direction certified (a verified witness with "
            f"{top.value} colors); {len(full.unsolved)} members still "
            f"unsolved within the in-test budget",
        )


def test_criterion_07_bipartite_edge_bound():
    report = lemma_bipartite_check(8)
    assert report.ok, f"violations: {report.violations}"
    assert report.checked == 276
    for n in range(2, 9):
        assert report.tight.get(n), f"no tight graph of order {n}"
    # independent spot audit of the minimized side
    for g in bipartite_outerplanar_corpus(5):
        bp = bipartition_of(g)
        assert g.edge_count <= g.n + bp.sizes[0] - 2
    _report(
        7,
        f"edge bound holds on all {report.checked} bipartite outerplanar "
        f"graphs up to order 8, tight at every order",
    )


def test_criterion_08_matching_number_certificates():
    checked = 0
    for n in range(3, 11):
        for g in mop_graphs(n):
            cert = tutte_berge_certificate(g)
            assert cert.value == matching_number(g)
            assert certificate_is_valid(g, cert)
            checked += 1
    rng = random.Random(1_000_003)
    for _ in range(500):
        g = random_connected_graph(rng, rng.randint(2, 9))
        cert = tutte_berge_certificate(g)
        assert cert.value == matching_number(g)
        assert certificate_is_valid(g, cert)
        checked += 1
    _report(8, f"certificates valid on all {checked} corpus graphs")


def test_criterion_09_oracle_equivalence():
    graphs = []
    seen = set()
    for n in range(3, 7):
        for host in mop_graphs(n):
            m = host.edge_count
            for subset in range(1, 1 << m):
                if subset.bit_count() > 9:
                    continue
                sub = spanning_subgraph(
                    host, [i for i in range(m) if subset >> i & 1]
                )
                if len(components(sub, sub.vertex_mask)) != 1:
                    continue
                key = canonical_form(sub).graph6
                if key in seen:
                    continue
                seen.add(key)
                graphs.append(sub)
    rng = random.Random(77)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 5), p=0.5)
        if g.edge_count:
            graphs.append(g)
    agreements = 0
    for g in graphs:
        for k in (2, 3, 4):
            assert ar_exact(g, k).value == ar_brute_force(g, k), (
                f"disagreement on {canonical_form(g).graph6} k={k}"
            )
            agreements += 1
    _report(9, f"solver matches the partition oracle on {agreements} cases")


def test_criterion_10_property_suites():
    rng = random.Random(424242)
    # rainbow monotonicity over random colorings
    for g in mop_graphs(8)[:8]:
        m = g.edge_count
        for _ in range(6):
            labels = [rng.randrange(6) for _ in range(m)]
            col = EdgeColoring.from_sequence(labels)
            for k in (2, 3):
                if find_rainbow_matching(g, col, k) is None:
                    assert find_rainbow_matching(g, col, k + 1) is None
    # merge safety
    for g in mop_graphs(7)[:4]:
        m = g.edge_count
        for _ in range(6):
            col = EdgeColoring.from_sequence(
                list(range(4)) + [rng.randrange(4) for _ in range(m - 4)]
            )
            merged = merge_classes(col, *rng.sample(range(col.num_colors), 2))
            witness = find_rainbow_matching(g, merged, 3)
            if witness is not None:
                assert len({col.colors[e] for e in witness.matching}) == 3
    # k-monotonicity of the solved values
    for g in mop_graphs(8)[:6]:
        values = [ar_exact(g, k).value for k in (2, 3, 4, 5)]
        assert values == sorted(values)
    # witness closure
    for g in mop_graphs(7):
        result = ar_exact(g, 3)
        assert verify_certificate(g, result.witness, 3, result.value).ok
    # determinism under parallel scheduling
    seq = ar_class(7, 3, jobs=1)
    par = ar_class(7, 3, jobs=2)
    assert seq.value == par.value
    assert [(r.graph6, r.value, r.witness) for r in seq.results] == [
        (r.graph6, r.value, r.witness) for r in par.results
    ]
    _report(10, "monotonicity, merge safety, witness closure, determinism")
