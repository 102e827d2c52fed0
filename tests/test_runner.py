import json
import warnings

import pytest

from mopar.graphs import graph6_decode
from mopar.rainbow import verify_certificate
from mopar.runner import (
    HOLDS,
    NOT_APPLICABLE,
    VACUOUS,
    CacheMismatch,
    Limits,
    ResultCache,
    ar_class,
    build_table,
    check_bounds,
    emit_table,
    evaluate_bounds,
    lemma_bipartite_check,
    render_table,
    verify_class_result,
)


def test_class_values_small():
    result = ar_class(6, 3)
    assert result.value == 7 and result.complete
    assert verify_class_result(result)
    assert ar_class(6, 2).value == 1
    assert ar_class(4, 2).value == 3


def test_class_refuses_small_n():
    with pytest.raises(ValueError):
        ar_class(5, 3)  # n < 2k
    with pytest.raises(ValueError):
        ar_class(17, 2)


def test_class_results_in_canonical_order_and_witnesses_verify():
    result = ar_class(7, 3)
    assert result.value == 7
    keys = [r.graph6 for r in result.results]
    assert keys == sorted(keys)
    for entry in result.results:
        g = graph6_decode(entry.graph6)
        assert verify_certificate(g, entry.witness, 3, entry.value).ok


def test_parallel_matches_sequential():
    seq = ar_class(7, 3, jobs=1)
    par = ar_class(7, 3, jobs=2)
    assert seq.value == par.value
    assert [r.graph6 for r in seq.results] == [r.graph6 for r in par.results]
    assert [r.value for r in seq.results] == [r.value for r in par.results]
    assert [r.witness for r in seq.results] == [r.witness for r in par.results]


def test_target_mode_stops_early_with_witness():
    result = ar_class(10, 5, limits=Limits(target_value=14))
    assert result.value >= 14
    assert not result.complete and result.unsolved
    top = max(result.results, key=lambda r: r.value)
    g = graph6_decode(top.graph6)
    assert verify_certificate(g, top.witness, 5, top.value).ok


def test_budget_marks_incomplete():
    result = ar_class(8, 4, limits=Limits(max_nodes=3))
    assert not result.complete
    assert result.unsolved


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_round_trip_and_corruption(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    first = ar_class(6, 3, cache=cache)
    assert (path.exists()) and first.complete

    # corrupt line plus junk are skipped with a warning, then hits are served
    with path.open("a") as handle:
        handle.write("{not json\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache2 = ResultCache(path)
        assert any("corrupt" in str(w.message) for w in caught)
    second = ar_class(6, 3, cache=cache2)
    assert cache2.hits >= 3
    assert second.value == first.value
    assert [r.value for r in second.results] == [r.value for r in first.results]


def test_cache_audit_detects_tampering(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    ar_class(6, 3, cache=cache)
    # replace every cached value by a weaker one whose one-class witness
    # still verifies, so only the audit's recomputation can catch it
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    for data in lines:
        data["value"] = data["witness"]["num_colors"] = 1
        data["witness"]["colors"] = [0] * len(data["witness"]["colors"])
    path.write_text("\n".join(json.dumps(d) for d in lines) + "\n")
    tampered = ResultCache(path)
    assert len(tampered.entries) == len(lines)
    with pytest.raises(CacheMismatch):
        ar_class(6, 3, cache=tampered, audit_fraction=1.0)


def test_cache_skips_lines_whose_witness_fails(tmp_path):
    path = tmp_path / "cache.jsonl"
    first = ar_class(6, 3, cache=ResultCache(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    lines[0]["value"] += 1  # the witness no longer has that many colors
    path.write_text("\n".join(json.dumps(d) for d in lines) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache = ResultCache(path)
    assert [str(w.message).endswith("skipping corrupt cache line")
            for w in caught] == [True]
    assert (lines[0]["graph"], 3) not in cache.entries
    assert len(cache.entries) == len(lines) - 1
    second = ar_class(6, 3, cache=cache, audit_fraction=0.0)
    assert cache.hits == len(lines) - 1  # the tampered member is solved again
    assert [r.value for r in second.results] == [r.value for r in first.results]
    assert verify_class_result(second)


def test_cache_keeps_k1_lines_without_witness(tmp_path):
    path = tmp_path / "cache.jsonl"
    ar_class(4, 1, cache=ResultCache(path))
    assert len(ResultCache(path).entries) == 1


def test_sequential_limits_reject_jobs():
    for limits in (Limits(target_value=14), Limits(total_millis=1000.0)):
        with pytest.raises(ValueError, match="jobs=2"):
            ar_class(10, 5, limits=limits, jobs=2)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bound_check_examples():
    check = check_bounds(7, 3)
    assert check.value == 7
    assert check.lower == 7 and check.upper == 10
    assert check.lower_verdict == HOLDS and check.upper_verdict == HOLDS

    vacuous = evaluate_bounds(12, 5, 16, True)
    assert vacuous.lower == 16 and vacuous.upper == 23 and vacuous.trivial_cap == 21
    assert vacuous.upper_verdict == VACUOUS and vacuous.lower_verdict == HOLDS

    below = evaluate_bounds(10, 5, 14, True)
    assert below.upper_verdict == NOT_APPLICABLE  # n < 3k - 3
    assert below.lower == 14 and below.lower_verdict == HOLDS

    # the general lower bound is not a claim about 2-matchings
    assert evaluate_bounds(8, 2, 1, True).lower_verdict == NOT_APPLICABLE


def test_computed_cells_respect_bounds():
    rows = build_table((6, 8), (2, 4))
    for row in rows:
        assert row["value"] <= row["trivial_cap"]
        if row["k"] >= 3:
            assert row["value"] >= row["lower"]
            assert row["lower_verdict"] == HOLDS


# ---------------------------------------------------------------------------
# bipartite edge bound
# ---------------------------------------------------------------------------

def test_lemma_check_small():
    report = lemma_bipartite_check(6)
    assert report.ok and report.checked > 0
    for n in range(2, 7):
        assert report.tight.get(n), f"no tight graph of order {n}"
    # the grid (C6 plus a diameter chord) is tight at n = 6
    tight6 = report.tight[6]
    assert any(graph6_decode(g6).edge_count == 7 for g6 in tight6)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_table_contents_and_determinism(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    out = tmp_path / "table.csv"
    emit_table((4, 6), (2, 3), out, "csv", cache=cache)
    first = out.read_bytes()
    text = first.decode()
    rows = text.strip().splitlines()
    assert rows[0].startswith("n,k,value")
    # (4,2) -> 3 and (5,2) -> 1 per the known exact values
    assert any(line.startswith("4,2,3,") for line in rows)
    assert any(line.startswith("5,2,1,") for line in rows)
    # cells with n < 2k are absent
    assert not any(line.startswith("4,3,") for line in rows)

    warm_cache = ResultCache(tmp_path / "cache.jsonl")
    emit_table((4, 6), (2, 3), out, "csv", cache=warm_cache)
    assert out.read_bytes() == first


def test_table_json_render():
    rows = build_table((6, 6), (3, 3))
    text = render_table(rows, "json")
    data = json.loads(text)
    assert data[0]["n"] == 6 and data[0]["value"] == 7
    with pytest.raises(ValueError):
        render_table(rows, "tsv")
