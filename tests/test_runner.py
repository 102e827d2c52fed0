import dataclasses
import json
import warnings
from functools import partial

import pytest

from mopar import runner
from mopar.graphs import graph6_decode, graph6_encode
from mopar.mops import enumerate_mops
from mopar.rainbow import EdgeColoring, verify_certificate
from mopar.runner import (
    HOLDS,
    NOT_APPLICABLE,
    UNKNOWN,
    VACUOUS,
    VIOLATED,
    CacheMismatch,
    ClassResult,
    ResultCache,
    ar_class,
    check_sweep,
    evaluate_bounds,
    table_cells,
    verify_class_result,
    verify_result,
)
from mopar.solver import EXACT, ArResult, ar_exact
from side_checks import lemma_bipartite_check


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
        ar_class(19, 2)
    for k in (0, 1):
        with pytest.raises(ValueError, match=rf"k={k} outside 2\.\.8"):
            ar_class(6, k)


def test_verify_class_result_checks_value_and_argmax():
    result = ar_class(6, 3)
    assert verify_class_result(result)
    assert list(result.to_json()) == [
        "n", "k", "value", "complete", "argmax", "unsolved", "results",
    ]
    # value and argmax are read off the members: drop those at the class
    # value and both follow
    rest = ClassResult(6, 3, [r for r in result.results if r.value < 7])
    assert rest.value == max(r.value for r in rest.results) < 7
    assert rest.argmax == sorted(
        r.graph6 for r in rest.results if r.value == rest.value
    )
    assert rest.complete and verify_class_result(rest)
    empty = ClassResult(15, 5, [])
    assert empty.value == 0 and empty.argmax == [] and empty.complete
    assert verify_class_result(empty)


def test_class_results_in_member_order_and_witnesses_verify():
    result = ar_class(7, 3)
    assert result.value == 7
    keys = [r.graph6 for r in result.results]
    assert keys == enumerate_mops(7)
    for entry in result.results:
        g = graph6_decode(entry.graph6)
        assert verify_certificate(g, entry.witness, 3, entry.value).ok


def _cache_lines(path):
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    for data in lines:
        del data["elapsed_ms"]
    return lines


def _class_json(result):
    data = result.to_json()
    for entry in data["results"]:
        del entry["elapsed_ms"]
    return data


def test_parallel_matches_sequential(tmp_path):
    # (10, 4) has 82 members, so a pool of two takes them 5 at a time
    for n, k, floor in ((7, 3, 0), (9, 4, 10), (10, 4, 0)):
        seq_path = tmp_path / f"seq-{n}-{floor}.jsonl"
        par_path = tmp_path / f"par-{n}-{floor}.jsonl"
        seq = ar_class(n, k, jobs=1, cache=ResultCache(seq_path), floor=floor)
        par = ar_class(n, k, jobs=2, cache=ResultCache(par_path), floor=floor)
        assert seq.complete
        assert _class_json(seq) == _class_json(par)
        assert _cache_lines(seq_path) == _cache_lines(par_path)


def test_class_values_five_matchings():
    # complete sweeps, so these are exact class values
    for n, value in ((10, 15), (11, 16)):
        result = ar_class(n, 5)
        assert result.complete and result.value == value
        assert verify_class_result(result)


def test_floor_sweep_argmax_is_exact_and_cached(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    sweep = ar_class(10, 5, cache=cache, floor=13)
    assert sweep.complete and sweep.value == 15
    assert verify_class_result(sweep)
    # every member's search above the floor ran to the end, so each is
    # exact or proved to admit at most 13 colors, and the cache keeps both
    for r in sweep.results:
        assert r.upper == max(r.value, 13)
        assert cache.entries[(r.graph6, 5)] == r
    for g6 in sweep.argmax:
        hit = cache.entries[(g6, 5)]
        assert hit.mode == EXACT
        assert hit.value == ar_exact(graph6_decode(g6), 5).value == 15


def test_floor_above_class_value_never_claims_completeness():
    sweep = ar_class(8, 3, floor=9)
    assert not sweep.complete and sweep.value == 8
    assert sweep.unsolved == [r.graph6 for r in sweep.results]
    assert all(r.upper == 9 for r in sweep.results)


def test_budget_marks_incomplete():
    result = ar_class(8, 4, max_nodes=3)
    assert not result.complete
    assert result.unsolved
    assert max(r.nodes for r in ar_class(8, 4).results) > 3
    # the budget reaches pool workers: same members stopped, same results
    pooled = ar_class(8, 4, max_nodes=3, jobs=2)
    assert not pooled.complete and pooled.unsolved == result.unsolved
    assert _class_json(pooled) == _class_json(result)


def test_negative_limits_are_an_error(monkeypatch):
    def no_enumeration(n):
        raise AssertionError("enumerated despite a negative budget")

    monkeypatch.setattr(runner, "enumerate_mops", no_enumeration)
    runner._class_members.cache_clear()
    with pytest.raises(ValueError, match="max_nodes"):
        ar_class(8, 3, max_nodes=-5)
    # every cell skipped (n < 2k): a range sweep still rejects the budget
    with pytest.raises(ValueError, match="max_nodes"):
        check_sweep(table_cells((4, 4), (3, 3)), max_nodes=-5, jobs=1)
    with pytest.raises(ValueError, match="no \\(n, k\\) cell"):
        check_sweep(table_cells((4, 4), (3, 3)), max_nodes=None, jobs=1)


def test_sweep_refuses_k_past_the_solver_limit():
    # order 18 holds a 9-matching, but the solver stops at MAX_K = 8
    with pytest.raises(ValueError, match=r"k=9 outside 2\.\.8"):
        check_sweep([(18, 9)], max_nodes=None, jobs=1)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_round_trip_and_corruption(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    first = ar_class(6, 3, cache=cache)
    assert (path.exists()) and first.complete

    # a corrupt line, a stray byte order mark and a byte that no UTF-8
    # text holds are each skipped with a warning, then hits are served
    with path.open("ab") as handle:
        handle.write(b'{not json\n\xff\xfe garbage\n{"graph": "\xff"}\n')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache2 = ResultCache(path)
    assert [str(w.message) for w in caught] == [
        f"{path}:{line}: skipping corrupt cache line" for line in (4, 5, 6)
    ]
    second = ar_class(6, 3, cache=cache2)
    assert cache2.hits >= 3
    assert second.value == first.value
    assert [r.value for r in second.results] == [r.value for r in first.results]


def test_cache_audit_detects_tampering(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    ar_class(6, 3, cache=cache)
    # replace every cached value by a weaker one whose one-class witness
    # still verifies, so only the audit's recomputation can catch it
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    for data in lines:
        data["value"] = data["upper"] = data["witness"]["num_colors"] = 1
        data["witness"]["colors"] = [0] * len(data["witness"]["colors"])
    path.write_text("\n".join(json.dumps(d) for d in lines) + "\n")
    monkeypatch.setattr(runner, "AUDIT_FRACTION", 1.0)
    # every member is a hit, so at jobs=2 too the audit runs in this
    # process; a resume with members to solve runs it in the pool
    for jobs in (1, 2):
        tampered = ResultCache(path)
        assert len(tampered.entries) == len(lines)
        with pytest.raises(CacheMismatch):
            ar_class(6, 3, cache=tampered, jobs=jobs)


def test_fully_cached_resume_starts_no_pool(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    cold = ar_class(8, 4, cache=ResultCache(path), jobs=2)
    lines = path.read_text().splitlines()
    pools = []
    pool = runner.ProcessPoolExecutor

    def counted(*args):
        pools.append(args)
        return pool(*args)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", counted)
    monkeypatch.setattr(runner, "AUDIT_FRACTION", 1.0)
    # neither resume warns: no good line is flagged corrupt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resumed = ar_class(8, 4, cache=ResultCache(path), jobs=2)
        assert not pools
        assert resumed.to_json() == cold.to_json()
        # with half the members left to solve, they and the audit share a
        # pool
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        half = ar_class(8, 4, cache=ResultCache(path), jobs=2)
    assert pools == [(2,)]
    assert half.value == cold.value


def test_node_budget_writes_no_cache_line(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    capped = ar_class(9, 4, max_nodes=50, cache=ResultCache(path))
    assert (len(capped.results), len(capped.unsolved)) == (27, 19)
    # only the 8 members the budget let finish are written
    written = [json.loads(line)["graph"] for line in path.read_text().splitlines()]
    assert len(written) == 8
    assert not set(written) & set(capped.unsolved)
    # a resume solves exactly the members left unsolved
    solved = []
    solve = runner.ar_exact

    def recorded(g, k, **kwargs):
        solved.append(graph6_encode(g))
        return solve(g, k, **kwargs)

    monkeypatch.setattr(runner, "ar_exact", recorded)
    monkeypatch.setattr(runner, "AUDIT_FRACTION", 0.0)
    resumed = ar_class(9, 4, cache=ResultCache(path))
    assert sorted(solved) == sorted(capped.unsolved)
    assert resumed.complete and resumed.value == 11


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool asked for and
    solves its items in this process, so no worker starts."""

    def __init__(self, record, max_workers):
        self.record = record
        record.append({"max_workers": max_workers})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        items = list(items)
        self.record[-1].update(items=len(items), chunksize=chunksize)
        return map(fn, items)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.record[-1]["cancel_futures"] = cancel_futures


def test_pool_starts_no_more_workers_than_items(tmp_path, monkeypatch):
    pools = []
    monkeypatch.setattr(
        runner, "ProcessPoolExecutor", partial(_RecordingPool, pools)
    )
    # a cold sweep of three members at jobs=16 asks for three workers
    path = tmp_path / "cache.jsonl"
    cold = ar_class(6, 3, jobs=16, cache=ResultCache(path))
    assert pools == [{"max_workers": 3, "items": 3, "chunksize": 1}]
    # a resume with three members to solve, and one audit re-solve of the
    # nine cached, asks for four
    cold8 = ar_class(8, 3, cache=ResultCache(path))
    assert cold.complete
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:len(lines) - 3]) + "\n")
    pools.clear()
    resumed = ar_class(8, 3, jobs=16, cache=ResultCache(path))
    assert pools == [{"max_workers": 4, "items": 4, "chunksize": 1}]
    assert resumed.argmax == cold8.argmax and resumed.complete
    # with more items than jobs the pool has jobs workers, eight chunks each
    pools.clear()
    ar_class(10, 3, jobs=2)
    assert pools == [{"max_workers": 2, "items": 82, "chunksize": 5}]


def test_failed_pooled_sweep_cancels_its_queued_chunks(tmp_path, monkeypatch):
    pools = []
    monkeypatch.setattr(
        runner, "ProcessPoolExecutor", partial(_RecordingPool, pools)
    )
    cache = ResultCache(tmp_path / "cache.jsonl")

    def full_disk(result):
        raise OSError("no space left on device")

    monkeypatch.setattr(cache, "put", full_disk)
    with pytest.raises(OSError, match="no space"):
        ar_class(10, 3, jobs=2, cache=cache)
    assert pools == [
        {"max_workers": 2, "items": 82, "chunksize": 5, "cancel_futures": True}
    ]


def test_audit_searches_above_each_cached_value(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    ar_class(8, 4, cache=ResultCache(path))
    ar_class(9, 4, cache=ResultCache(path), floor=10)
    cache = ResultCache(path)
    floors = []
    solve = runner.ar_exact

    def recorded(g, k, **kwargs):
        floors.append((graph6_encode(g), kwargs["floor"]))
        return solve(g, k, **kwargs)

    monkeypatch.setattr(runner, "ar_exact", recorded)
    monkeypatch.setattr(runner, "AUDIT_FRACTION", 1.0)
    ar_class(8, 4, cache=cache)
    ar_class(9, 4, cache=cache, floor=10)
    # every member is a cache hit, and each is re-solved above its upper
    # bound: its value when EXACT, the sweep's floor otherwise
    assert len(floors) == len(cache.entries)
    assert all(floor == cache.entries[(g6, 4)].upper for g6, floor in floors)
    assert any(
        floor > cache.entries[(g6, 4)].value for g6, floor in floors
    )


def test_cache_skips_lines_whose_witness_fails(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    first = ar_class(8, 3, cache=ResultCache(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]

    def other_graph(data):
        data["witness"]["graph"] = lines[-1]["graph"]

    def other_k(data):
        data["witness"]["k"] += 1

    def non_integer_color(data):
        data["witness"]["colors"][0] = 0.5

    def more_value(data):
        data["value"] += 1  # the witness no longer has that many colors

    def low_upper(data):
        data["upper"] -= 1  # an upper bound below the witnessed value

    def negative_nodes(data):
        data["nodes"] = -1

    def negative_time(data):
        data["elapsed_ms"] = -0.5  # `mop ar-class` sums cached times

    def infinite_time(data):
        data["elapsed_ms"] = float("inf")  # written as Infinity: not JSON

    tampers = (more_value, low_upper, other_graph, other_k, non_integer_color,
               negative_nodes, negative_time, infinite_time)
    for tamper, data in zip(tampers, lines):
        tamper(data)
    path.write_text("\n".join(json.dumps(d) for d in lines) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache = ResultCache(path)
    assert [str(w.message).endswith("skipping corrupt cache line")
            for w in caught] == [True] * len(tampers)
    for data in lines[:len(tampers)]:
        assert (data["graph"], 3) not in cache.entries
    assert len(cache.entries) == len(lines) - len(tampers)
    monkeypatch.setattr(runner, "AUDIT_FRACTION", 0.0)
    second = ar_class(8, 3, cache=cache)
    # the tampered members are solved again
    assert cache.hits == len(lines) - len(tampers)
    assert [r.value for r in second.results] == [r.value for r in first.results]
    assert verify_class_result(second)


def test_result_from_json_rejects_malformed_lines():
    data = ar_class(6, 3).results[0].to_json()
    assert ArResult.from_json(data).to_json() == data
    for key in data:
        broken = dict(data)
        del broken[key]
        with pytest.raises(ValueError, match=repr(key)):
            ArResult.from_json(broken)
    for key, bad in (("k", "3"), ("value", True), ("nodes", None),
                     ("elapsed_ms", "1"), ("mode", "AT_MOST"),
                     ("witness", [0, 1]), ("witness", None),
                     ("upper", 7.0), ("elapsed_ms", float("inf"))):
        with pytest.raises(ValueError, match=repr(key)):
            ArResult.from_json({**data, key: bad})
    # what no solve produces: k outside 2..8 (even with a witness for that
    # k), a negative node count and a negative time
    for k in (1, 9):
        witness = {**data["witness"], "k": k}
        with pytest.raises(ValueError, match=rf"k={k} outside 2\.\.8"):
            ArResult.from_json({**data, "k": k, "witness": witness})
    for key in ("nodes", "elapsed_ms"):
        with pytest.raises(ValueError, match=rf"{key!r} must be a non-negative"):
            ArResult.from_json({**data, key: -1})
    # a mode the bounds do not give
    with pytest.raises(ValueError, match="disagree"):
        ArResult.from_json({**data, "mode": "LOWER_BOUND"})
    # an upper bound below the witness, even with the mode that upper gives
    below = {**data, "upper": data["value"] - 1, "mode": "LOWER_BOUND"}
    with pytest.raises(ValueError, match="below the witness"):
        ArResult.from_json(below)


# lines a cache held before the witness was the only record of a result's
# value: (6,3) and (4,1) swept at floor 0, and one (9,4) member at floor 11.
# The k = 1 line, value 0 with no witness, is corrupt since k = 1 is refused
OLD_CACHE_LINES = """\
{"elapsed_ms": 0.118, "graph": "EElw", "k": 3, "mode": "EXACT", "nodes": 2, "upper": 7, "value": 7, "witness": {"colors": [0, 1, 1, 0, 2, 3, 4, 5, 6], "graph": "EElw", "k": 3, "num_colors": 7}}
{"elapsed_ms": 0.12, "graph": "EQNw", "k": 3, "mode": "EXACT", "nodes": 7, "upper": 6, "value": 6, "witness": {"colors": [0, 0, 0, 0, 1, 2, 3, 4, 5], "graph": "EQNw", "k": 3, "num_colors": 6}}
{"elapsed_ms": 0.096, "graph": "EQlw", "k": 3, "mode": "EXACT", "nodes": 7, "upper": 6, "value": 6, "witness": {"colors": [0, 0, 0, 0, 1, 2, 3, 4, 5], "graph": "EQlw", "k": 3, "num_colors": 6}}
{"elapsed_ms": 0.005, "graph": "C^", "k": 1, "mode": "EXACT", "nodes": 0, "upper": 0, "value": 0, "witness": null}
{"elapsed_ms": 0.352, "graph": "H?`PRM^", "k": 4, "mode": "LOWER_BOUND", "nodes": 45, "upper": 11, "value": 10, "witness": {"colors": [0, 0, 0, 1, 0, 0, 0, 2, 3, 4, 5, 6, 7, 8, 9], "graph": "H?`PRM^", "k": 4, "num_colors": 10}}
"""


def test_cache_reads_lines_written_before_value_was_derived(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(OLD_CACHE_LINES)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache = ResultCache(path)
    assert [str(w.message) for w in caught] == [
        f"{path}:4: skipping corrupt cache line"
    ]
    lines = OLD_CACHE_LINES.splitlines()
    del lines[3]
    assert [held.dumps() for held in cache.entries.values()] == lines
    # and they are what the solver gives today, up to the solve time and
    # the node count, which a search that cuts more can only lower
    for line in lines:
        data = json.loads(line)
        fresh = ar_exact(
            graph6_decode(data["graph"]), data["k"],
            floor=11 if data["k"] == 4 else 0,
        ).to_json()
        assert fresh.pop("nodes") <= data.pop("nodes")
        fresh["elapsed_ms"] = data["elapsed_ms"]
        assert fresh == data


def test_cache_skips_lines_without_upper(tmp_path):
    # every writer gives "upper"; a line without it is corrupt, and the
    # sweep solves its member again
    path = tmp_path / "cache.jsonl"
    first = ar_class(6, 3)
    data = first.results[0].to_json()
    del data["upper"]
    path.write_text(json.dumps(data) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache = ResultCache(path)
    assert [str(w.message).endswith("skipping corrupt cache line")
            for w in caught] == [True]
    assert cache.entries == {}
    again = ar_class(6, 3, cache=cache)
    assert cache.hits == 0 and _class_json(again) == _class_json(first)


def test_cache_prefers_exact_line_in_either_order(tmp_path):
    g6 = next(
        g6 for g6 in ar_class(9, 4).argmax
        if ar_exact(graph6_decode(g6), 4, floor=11).mode != EXACT
    )
    g = graph6_decode(g6)
    exact = ar_exact(g, 4)
    floor_lines = [ar_exact(g, 4, floor=f) for f in (exact.value, exact.value + 2)]
    assert all(r.mode != EXACT and r.upper is not None for r in floor_lines)
    for lines in ([exact, *floor_lines], [*floor_lines, exact]):
        path = tmp_path / "cache.jsonl"
        path.write_text("".join(r.dumps() + "\n" for r in lines))
        cache = ResultCache(path)
        assert cache.entries[(g6, 4)] == exact
        assert cache.get(g6, 4) == exact


def test_cache_skips_a_line_whose_upper_is_below_its_value(
    tmp_path, monkeypatch
):
    # a line claiming upper 6 under a witness of 8 colors ranks first by
    # its upper; were it kept, it would shadow the member's EXACT line and
    # every resume would solve the member again and append it
    g6 = enumerate_mops(8)[0]
    good = ar_exact(graph6_decode(g6), 3)
    assert good.mode == EXACT and good.value == 8
    bad = {**good.to_json(), "upper": 6, "mode": "LOWER_BOUND"}
    others = [r for r in ar_class(8, 3).results if r.graph6 != g6]
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(
        line + "\n"
        for line in [json.dumps(bad), good.dumps(), *map(ArResult.dumps, others)]
    ))
    before = path.read_text()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache = ResultCache(path)
    assert [str(w.message) for w in caught] == [
        f"{path}:1: skipping corrupt cache line"
    ]
    assert cache.get(g6, 3) == good
    calls = _count_solves(monkeypatch)
    monkeypatch.setattr(runner, "AUDIT_FRACTION", 0.0)
    again = ar_class(8, 3, cache=cache)
    assert calls == [] and again.value == 8 and again.complete
    assert path.read_text() == before


def test_jobs_below_one_is_an_error():
    for jobs in (0, -2):
        with pytest.raises(ValueError, match=f"jobs={jobs}"):
            ar_class(10, 5, jobs=jobs)


def _count_solves(monkeypatch) -> list:
    calls = []
    solve = runner.ar_exact

    def counted(g, k, **kwargs):
        calls.append(g)
        return solve(g, k, **kwargs)

    monkeypatch.setattr(runner, "ar_exact", counted)
    return calls


def test_cold_sweep_solves_each_member_once(tmp_path, monkeypatch):
    calls = _count_solves(monkeypatch)
    monkeypatch.setattr(runner, "AUDIT_FRACTION", 1.0)
    result = ar_class(8, 4, cache=ResultCache(tmp_path / "cache.jsonl"))
    # the audit samples only cache hits, and a cold cache has none
    assert result.complete and len(calls) == len(result.results)


def test_each_result_is_verified_once(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    calls = []
    verify = runner.verify_certificate

    def counted(g, coloring, k, claimed):
        calls.append(graph6_encode(g))
        return verify(g, coloring, k, claimed)

    monkeypatch.setattr(runner, "verify_certificate", counted)
    monkeypatch.setattr(runner, "AUDIT_FRACTION", 0.0)
    cold = ar_class(9, 4, cache=ResultCache(path))
    assert verify_class_result(cold)
    members = [r.graph6 for r in cold.results]
    assert calls == members
    # a resumed sweep checks each line when it is served and not again after
    calls.clear()
    cache = ResultCache(path)
    resumed = ar_class(9, 4, cache=cache)
    assert cache.hits == len(members)
    assert verify_class_result(resumed) and verify_class_result(resumed)
    assert sorted(calls) == sorted(members)


def test_cache_checks_only_the_lines_it_serves(tmp_path, monkeypatch):
    # a cache shared by two cells: resuming one checks only its own lines
    path = tmp_path / "cache.jsonl"
    for n in (9, 10):
        ar_class(n, 4, cache=ResultCache(path))
    calls = []
    verify = runner.verify_certificate

    def counted(g, coloring, k, claimed):
        calls.append(graph6_encode(g))
        return verify(g, coloring, k, claimed)

    monkeypatch.setattr(runner, "verify_certificate", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cache = ResultCache(path)
        assert calls == [] and len(cache.entries) == 27 + 82
        resumed = ar_class(9, 4, cache=cache)
    members = [r.graph6 for r in resumed.results]
    assert cache.hits == len(members) == 27
    assert sorted(calls) == sorted(members)


def test_cache_solves_again_when_a_served_witness_fails(tmp_path):
    good = ar_class(8, 3).results[0]
    g = graph6_decode(good.graph6)
    v, m = good.value, g.edge_count
    # v colors, the first v - 1 edges each alone in its class: the same
    # value and upper, but a witness with a rainbow 3-matching
    bad = dataclasses.replace(
        good, witness=EdgeColoring(tuple(range(v - 1)) + (v - 1,) * (m - v + 1), v)
    )
    assert not verify_certificate(g, bad.witness, 3, v).ok
    key = (good.graph6, 3)
    path = tmp_path / "cache.jsonl"
    # the bad line ties with the good one and comes first, so it is held
    path.write_text(bad.dumps() + "\n" + good.dumps() + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cache = ResultCache(path)
    assert cache.entries[key] == bad
    # it fails when served: the member is solved again, not served the
    # good line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cache.get(*key) is None
    assert [str(w.message).endswith("skipping corrupt cache line")
            for w in caught] == [True]
    assert key not in cache.entries and cache.hits == 0
    # the sweep solves it again and holds the fresh line
    again = ar_class(8, 3, cache=cache)
    assert verify_class_result(again) and cache.entries[key] == again.results[0]
    # with no good line left the member is solved again
    path.write_text(bad.dumps() + "\n")
    cache = ResultCache(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cache.get(*key) is None
    assert len(caught) == 1 and key not in cache.entries


def test_verified_memo_does_not_vouch_for_a_changed_result():
    result = ar_class(6, 3).results[0]
    assert verify_result(result)
    m = len(result.witness.colors)
    distinct = EdgeColoring(tuple(range(m)), m)
    # the new witness has more colors than the proved upper bound, which
    # the copy refuses; without the upper bound only the rainbow check
    # can refuse its rainbow 3-matching
    with pytest.raises(ValueError, match="below the witness"):
        dataclasses.replace(result, witness=distinct)
    copy = dataclasses.replace(result, witness=distinct, upper=None)
    assert not verify_result(copy)
    assert not verify_class_result(ClassResult(6, 3, [result, copy]))
    assert verify_result(result)


def test_floor_cache_serves_floor_reruns(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    first = ar_class(9, 4, cache=ResultCache(path), floor=10)
    below = [r.graph6 for r in first.results if r.mode != EXACT]
    assert below and all(
        r.upper == 10 for r in first.results if r.mode != EXACT
    )

    calls = _count_solves(monkeypatch)
    monkeypatch.setattr(runner, "AUDIT_FRACTION", 0.0)
    again = ar_class(9, 4, cache=ResultCache(path), floor=10)
    assert calls == [] and _class_json(again) == _class_json(first)

    # a floor-0 sweep takes the EXACT lines and re-solves only the members
    # the floor-10 lines left below their floor
    full = ar_class(9, 4, cache=ResultCache(path))
    assert [graph6_encode(g) for g in calls] == below
    assert full.complete and full.value == first.value
    assert all(r.mode == EXACT for r in full.results)
    assert _class_json(full) == _class_json(ar_class(9, 4))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bound_check_examples():
    result = ar_class(7, 3)
    check = evaluate_bounds(7, 3, result.value, result.complete)
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
    # at k = 2 the upper bound is n - 1, and ar(O_4, M_2) = 3 meets it
    assert evaluate_bounds(4, 2, 3, True).upper_verdict == HOLDS


def test_five_matchings_past_order_fourteen_are_exactly_n_plus_four():
    # ar(O_n, M_5) = n + 4 for n >= 15 replaces n + 4k - 9 = n + 11 there
    exact = evaluate_bounds(15, 5, 19, True)
    assert exact.lower == exact.upper == 19 and exact.trivial_cap == 27
    assert exact.lower_verdict == exact.upper_verdict == HOLDS

    above = evaluate_bounds(15, 5, 20, False)
    assert above.upper_verdict == VIOLATED  # a verified witness is enough
    below = evaluate_bounds(15, 5, 18, True)
    assert below.lower_verdict == VIOLATED and below.upper_verdict == HOLDS
    assert evaluate_bounds(15, 5, 18, False).lower_verdict == UNKNOWN
    assert evaluate_bounds(15, 5, 19, False).upper_verdict == UNKNOWN

    sixteen = evaluate_bounds(16, 5, 20, True)
    assert sixteen.lower == sixteen.upper == 20
    assert sixteen.upper_verdict == HOLDS
    assert evaluate_bounds(16, 5, 21, True).upper_verdict == VIOLATED

    # below order 15 the general bound stays, vacuous against 2n - 3
    fourteen = evaluate_bounds(14, 5, 18, True)
    assert fourteen.upper == 25 and fourteen.upper_verdict == VACUOUS
    # other matching sizes keep n + 4k - 9
    assert evaluate_bounds(15, 4, 17, True).upper == 22
    assert evaluate_bounds(18, 6, 24, True).upper == 33


def test_computed_cells_respect_bounds():
    for n, k in table_cells((6, 8), (2, 4)):
        result = ar_class(n, k)
        check = evaluate_bounds(n, k, result.value, result.complete)
        assert check.value <= check.trivial_cap
        if k >= 3:
            assert check.value >= check.lower
            assert check.lower_verdict == HOLDS


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
