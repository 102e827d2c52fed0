import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import pytest

from mopar import cli, runner
from mopar.cli import build_parser, main
from mopar.graphs import Graph, canonical_form, graph6_decode, graph6_encode
from mopar.rainbow import EdgeColoring, certificate_to_json
from mopar.runner import VIOLATED, ClassResult, ResultCache, ar_class, table_cells
from mopar.solver import ArResult, ar_exact, check_k, seed_incumbent
from oracles import ar_brute_force
from side_checks import lemma_bipartite_check, tutte_berge_certificate

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
COMMANDS = ["enumerate", "ar", "ar-class", "verify"]
# the first order-15 member of the benchmark hunt (sample seed 1)
HUNT_MEMBER = "N?AA??o`P@?PQ`BSaLw"
# polygon fans: every diagonal ends at vertex 0
FAN4, FAN5, FAN6, FAN9 = "C|", "D|c", "E|eG", "H|eKKE@"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_usage_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "", argv
    assert err.startswith("usage: mop"), argv


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--count-only")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--labeled", "--count-only")
    assert code == 0 and out.strip() == "14"


def test_enumerate_past_the_class_limit_is_refused(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "19")
    assert (code, out) == (1, "")
    assert err == "error: polygon size 19 outside 3..18\n"
    # the labeled listing refuses with nothing printed, header included
    for n in ("2", "17"):
        for count_only in ((), ("--count-only",)):
            code, out, err = run(capsys, "enumerate", "--n", n, "--labeled",
                                 *count_only)
            assert (code, out) == (1, "")
            assert err == f"error: polygon size {n} outside 3..16\n"


def test_enumerate_graph6_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    g = graph6_decode(lines[0])
    assert g.n == 5 and g.edge_count == 7


def test_enumerate_labeled_format(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--labeled")
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")  # versioned header
    assert len(lines) == 3  # header + Catalan(2) triangulations
    assert all(line.startswith("4: ") for line in lines[1:])
    # the triangle has no diagonals: its line is the order alone
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--labeled")
    assert code == 0 and out == cli.TRIANGULATION_FORMAT_HEADER + "\n3:\n"
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--labeled")
    assert code == 0 and "5: 0-2,2-4" in out.splitlines()


@pytest.mark.parametrize("n", range(3, 12))
def test_sweep_members_are_the_enumerated_graphs(capsys, n):
    # a member's one name is the graph6 `mop enumerate` prints, in its order
    code, out, _ = run(capsys, "enumerate", "--n", str(n))
    listed = out.splitlines()
    assert code == 0 and list(runner._class_members(n)) == listed
    # and names one isomorphism class each
    canonical = {canonical_form(graph6_decode(g6)).graph6 for g6 in listed}
    assert len(canonical) == len(listed)


def test_ar_class_out_names_the_enumerated_graphs(capsys, tmp_path):
    _, listed, _ = run(capsys, "enumerate", "--n", "8")
    out_path = tmp_path / "class.json"
    code, _, _ = run(capsys, "ar-class", "--n", "8", "--k", "3",
                     "--out", str(out_path))
    assert code == 0
    results = json.loads(out_path.read_text())["results"]
    assert [r["graph"] for r in results] == listed.splitlines()


def test_ar_command_with_oracle(capsys):
    code, out, _ = run(capsys, "ar", "--graph", FAN4, "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 3 == ar_brute_force(graph6_decode(FAN4), 2)
    assert data["mode"] == "EXACT"
    assert data["witness"]["num_colors"] == 3
    # the partition oracle lives in the test suite (tests/oracles.py)
    assert_usage_error(capsys, "ar", "--graph", FAN4, "--k", "2", "--oracle")


def test_ar_budget_exit_code(capsys):
    code, out, _ = run(capsys, "ar", "--graph", FAN9, "--k", "4",
                       "--budget-nodes", "4")
    assert code == 2
    assert ar_exact(graph6_decode(FAN9), 4).nodes > 4
    # the search stops on node budget + 1 and proves no upper bound
    data = json.loads(out)
    assert (data["mode"], data["upper"], data["nodes"]) == ("LOWER_BOUND", None, 5)


def _rainbow(result):
    """The result with a witness in which every edge has its own color."""
    m = len(result.witness.colors)
    return dataclasses.replace(
        result, upper=m, witness=EdgeColoring(tuple(range(m)), m)
    )


def test_ar_witness_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ar_exact", lambda g, k, **kw: _rainbow(ar_exact(g, k)))
    code, out, _ = run(capsys, "ar", "--graph", FAN6, "--k", "3")
    assert code == 1 and json.loads(out)["mode"] == "EXACT"


def test_ar_bad_graph6(capsys):
    code, _, err = run(capsys, "ar", "--graph", "~~~", "--k", "2")
    assert code == 1 and "graph6" in err


def test_ar_class_command(capsys, tmp_path):
    out_path = tmp_path / "class.json"
    code, out, _ = run(capsys, "ar-class", "--n", "6", "--k", "3",
                       "--cache", str(tmp_path / "c.jsonl"),
                       "--out", str(out_path))
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 7 and data["complete"]
    full = json.loads(out_path.read_text())
    assert full["value"] == 7 and len(full["results"]) == 3
    # the summary counts the argmax; --out keeps the list
    assert "argmax" not in data and data["argmax_count"] == len(full["argmax"])
    assert data["unsolved_count"] == len(full["unsolved"]) == 0
    # n + 4k - 9 is met exactly at (4, 2): ar(O_4, M_2) = 3
    code, out, _ = run(capsys, "ar-class", "--n", "4", "--k", "2")
    bounds = json.loads(out)["bounds"]
    assert code == 0 and bounds["upper"] == 3
    assert bounds["upper_verdict"] == "HOLDS"


def test_ar_class_cache_mismatch_exit_code(capsys, tmp_path):
    cache = tmp_path / "c.jsonl"
    code, _, _ = run(capsys, "ar-class", "--n", "6", "--k", "3",
                     "--cache", str(cache))
    assert code == 0
    # a weaker value whose one-class witness still verifies on load, so
    # only the audit's recomputation can catch it
    lines = [json.loads(line) for line in cache.read_text().splitlines()]
    for data in lines:
        data["value"] = data["upper"] = data["witness"]["num_colors"] = 1
        data["witness"]["colors"] = [0] * len(data["witness"]["colors"])
    cache.write_text("\n".join(json.dumps(d) for d in lines) + "\n")
    code, out, err = run(capsys, "ar-class", "--n", "6", "--k", "3",
                         "--cache", str(cache))
    assert code == 1 and out == ""
    assert err.startswith("cache mismatch: ") and "Traceback" not in err


def test_ar_class_bound_violation_exit_code(capsys, monkeypatch):
    # one order-15 member whose greedy witness verifies below the lower
    # bound n + 2k - 6 = 19, passed off as a complete sweep
    g6 = HUNT_MEMBER
    seed = seed_incumbent(graph6_decode(g6), 5)
    assert seed.num_colors < 19
    member = ArResult(g6, 5, seed.num_colors, seed, 0, 0.0)
    monkeypatch.setattr(
        cli, "ar_class",
        lambda n, k, **kw: ClassResult(n, k, [member]),
    )
    code, out, _ = run(capsys, "ar-class", "--n", "15", "--k", "5")
    summary = json.loads(out)
    assert code == 1 and summary["verified"] and summary["complete"]
    assert summary["value"] == seed.num_colors
    assert summary["bounds"]["lower_verdict"] == "VIOLATED"


def test_ar_class_unattained_value_exit_code(capsys, monkeypatch):
    # a member at n + 5 whose 20-color witness has a rainbow M_5:
    # complete, but not verified
    m = graph6_decode(HUNT_MEMBER).edge_count
    witness = EdgeColoring(tuple(range(19)) + (19,) * (m - 19), 20)
    member = ArResult(HUNT_MEMBER, 5, 20, witness, 0, 0.0)
    monkeypatch.setattr(
        cli, "ar_class", lambda n, k, **kw: ClassResult(n, k, [member]),
    )
    code, out, _ = run(capsys, "ar-class", "--n", "15", "--k", "5")
    summary = json.loads(out)
    assert code == 1 and not summary["verified"] and summary["complete"]
    assert summary["bounds"]["upper_verdict"] == "VIOLATED"


def test_ar_class_witness_failure_exit_code(capsys, monkeypatch):
    def tampered(n, k, **kw):
        result = ar_class(n, k, **kw)
        result.results[-1] = _rainbow(result.results[-1])
        return result

    monkeypatch.setattr(cli, "ar_class", tampered)
    code, out, _ = run(capsys, "ar-class", "--n", "6", "--k", "3")
    summary = json.loads(out)
    assert code == 1 and not summary["verified"] and summary["complete"]
    assert "VIOLATED" not in summary["bounds"].values()


def test_range_witness_failure_exit_code(capsys, monkeypatch):
    # one cell of two has a member whose witness fails; no bound fails
    def tampered(n, k, **kw):
        result = ar_class(n, k, **kw)
        if n == 6:
            result.results[-1] = _rainbow(result.results[-1])
        return result

    monkeypatch.setattr(cli, "ar_class", tampered)
    code, out, _ = run(capsys, "ar-class", "--n", "6..7", "--k", "3")
    summaries = [json.loads(line) for line in out.splitlines()]
    assert code == 1
    assert [(s["n"], s["verified"]) for s in summaries] == [(6, False), (7, True)]
    assert all(s["complete"] for s in summaries)
    assert not any("VIOLATED" in s["bounds"].values() for s in summaries)


def test_pool_worker_never_vouches_for_a_failing_witness(capsys, monkeypatch):
    # patched before the pool forks, so its workers return the bad witness
    bad = runner._class_members(8)[0]
    solve = runner.ar_exact

    def rainbow(g, k, **kwargs):
        result = solve(g, k, **kwargs)
        if graph6_encode(g) != bad:
            return result
        return dataclasses.replace(_rainbow(result), upper=None)

    monkeypatch.setattr(runner, "ar_exact", rainbow)
    swept = ar_class(8, 3, jobs=2)
    assert {r.graph6: r._verified for r in swept.results} == {
        g6: g6 != bad for g6 in runner._class_members(8)
    }
    assert not runner.verify_class_result(swept)
    code, out, _ = run(capsys, "ar-class", "--n", "8", "--k", "3", "--jobs", "2")
    assert code == 1 and json.loads(out)["verified"] is False


def test_ar_class_floor(capsys):
    code, out, _ = run(capsys, "ar-class", "--n", "10", "--k", "5",
                       "--floor", "13")
    summary = json.loads(out)
    assert code == 0 and summary["complete"] and summary["value"] == 15
    assert summary["verified"]
    # a floor above the class value proves the bound but witnesses nothing
    # that reaches it, so the sweep is incomplete by design
    code, out, _ = run(capsys, "ar-class", "--n", "10", "--k", "5",
                       "--floor", "16")
    summary = json.loads(out)
    assert code == 2 and not summary["complete"] and summary["value"] <= 15


def test_ar_class_floor_runs_in_pool(capsys):
    argv = ("ar-class", "--n", "10", "--k", "5", "--floor", "13")
    code, sequential, _ = run(capsys, *argv)
    assert code == 0
    code, pooled, err = run(capsys, *argv, "--jobs", "2")
    assert code == 0 and err == ""
    # the same summary but for the solve times
    sequential, pooled = json.loads(sequential), json.loads(pooled)
    del sequential["elapsed_ms"], pooled["elapsed_ms"]
    assert pooled == sequential


def test_jobs_below_one_is_an_error(capsys, tmp_path):
    for argv in (
        ("ar-class", "--n", "8", "--k", "3", "--jobs", "0"),
        ("ar-class", "--n", "6..7", "--k", "2..3", "--jobs", "0",
         "--out", str(tmp_path / "t.jsonl")),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "jobs=0" in err and "Traceback" not in err
    assert not (tmp_path / "t.jsonl").exists()


def test_jobs_above_the_cpu_count_is_refused(capsys, monkeypatch, tmp_path):
    def refused(*args, **kwargs):
        raise AssertionError("started a pool or enumerated despite --jobs 3")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(runner, "ProcessPoolExecutor", refused)
    monkeypatch.setattr(runner, "enumerate_mops", refused)
    runner._class_members.cache_clear()
    out, cache = tmp_path / "t.jsonl", tmp_path / "c.jsonl"
    code, printed, err = run(capsys, "ar-class", "--n", "8", "--k", "3",
                             "--jobs", "3", "--out", str(out),
                             "--cache", str(cache))
    assert (code, printed) == (1, "")
    assert err == "error: --jobs 3 exceeds the CPU count, 2\n"
    assert not out.exists() and not cache.exists()
    # a machine that reports no count is taken to have one CPU
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    code, _, err = run(capsys, "ar-class", "--n", "8", "--k", "3",
                       "--jobs", "2")
    assert code == 1 and err.endswith("CPU count, 1\n")


def test_negative_budget_is_an_error(capsys, tmp_path):
    for argv in (
        ("ar", "--graph", HUNT_MEMBER, "--k", "5", "--budget-nodes", "-1"),
        ("ar", "--graph", HUNT_MEMBER, "--k", "5", "--budget-nodes", "-3"),
        ("ar-class", "--n", "8", "--k", "3", "--budget-nodes", "-1"),
        ("ar-class", "--n", "9", "--k", "4", "--budget-nodes", "-2"),
        ("ar-class", "--n", "6..7", "--k", "2..3", "--budget-nodes", "-1",
         "--out", str(tmp_path / "t.jsonl")),
        # n < 2k skips every cell, so no sweep ever sees the budget
        ("ar-class", "--n", "4..4", "--k", "3..3", "--budget-nodes", "-1",
         "--out", str(tmp_path / "t.jsonl")),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "must not be negative" in err
    assert not (tmp_path / "t.jsonl").exists()


def test_usage_errors_exit_one(capsys):
    for argv in (
        # the wall-clock budget is gone; a stale flag must not read as 2
        ("ar-class", "--n", "9", "--k", "4", "--budget-ms", "5"),
        ("ar-class", "--n", "x", "--k", "4"),
        ("ar-class", "--n", "9", "--k", "4", "--bogus"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "usage:" in err
    with pytest.raises(SystemExit) as exc:
        main(["ar-class", "--help"])
    assert exc.value.code == 0


def test_bad_options_fail_before_the_cache_is_read(capsys, monkeypatch, tmp_path):
    cache = tmp_path / "c.jsonl"
    code, _, _ = run(capsys, "ar-class", "--n", "6", "--k", "3",
                     "--cache", str(cache))
    assert code == 0 and cache.read_text()

    def no_load(self):
        raise AssertionError("read the cache despite a bad option")

    monkeypatch.setattr(ResultCache, "_load", no_load)
    for argv in (
        ("ar-class", "--n", "6", "--k", "3", "--budget-nodes", "-1"),
        ("ar-class", "--n", "6", "--k", "3", "--jobs", "0"),
        ("ar-class", "--n", "19", "--k", "5"),
        ("ar-class", "--n", "6..7", "--k", "3..3", "--budget-nodes", "-1",
         "--out", str(tmp_path / "t.jsonl")),
        ("ar-class", "--n", "6..7", "--k", "3..3", "--jobs", "0",
         "--out", str(tmp_path / "t.jsonl")),
        ("ar-class", "--n", "6..19", "--k", "3"),
        # ranges that leave no cell: n < 2k everywhere, or reversed
        ("ar-class", "--n", "4", "--k", "3"),
        ("ar-class", "--n", "4..5", "--k", "3..3",
         "--out", str(tmp_path / "t.jsonl")),
        ("ar-class", "--n", "10..4", "--k", "2..3"),
        ("ar-class", "--n", "6", "--k", "3..2"),
        # an unwritable --out is reported before any cell is solved
        ("ar-class", "--n", "6", "--k", "3",
         "--out", str(tmp_path / "missing" / "x.json")),
        ("ar-class", "--n", "6..7", "--k", "3..3",
         "--out", str(tmp_path / "missing" / "t.jsonl")),
    ):
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert code == 1 and out == "" and err.startswith("error: ")
    assert "missing" in err
    assert not (tmp_path / "t.jsonl").exists()


def test_unwritable_cache_fails_before_the_sweep(capsys, monkeypatch, tmp_path):
    def no_enumeration(n):
        raise AssertionError("enumerated despite an unwritable cache")

    monkeypatch.setattr(runner, "enumerate_mops", no_enumeration)
    runner._class_members.cache_clear()
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "ar-class", "--n", "6", "--k", "3",
                             "--jobs", jobs,
                             "--cache", str(tmp_path / "missing" / "c.jsonl"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "missing" in err


def test_matching_size_below_one_fails_before_the_out_file(
    capsys, monkeypatch, tmp_path
):
    def no_enumeration(n):
        raise AssertionError("enumerated despite k < 1")

    monkeypatch.setattr(runner, "enumerate_mops", no_enumeration)
    runner._class_members.cache_clear()
    out = tmp_path / "x.json"
    out.write_text('{"old": 1}')
    # k = 0 alone, in a range, and k = 1 at an order too small to enumerate
    for n, k in (("6", "0"), ("6", "0..2"), ("2", "1")):
        code, printed, err = run(capsys, "ar-class", "--n", n, "--k", k,
                                 "--out", str(out))
        assert code == 1 and printed == "" and err.startswith("error: ")
        assert re.search(r"k=[01] outside 2\.\.8", err)
        assert out.read_text() == '{"old": 1}'


def test_range_past_the_solver_limit_fails_before_enumerating(
    capsys, monkeypatch
):
    def no_enumeration(n):
        raise AssertionError(f"enumerated order {n} despite k = 9")

    monkeypatch.setattr(runner, "enumerate_mops", no_enumeration)
    runner._class_members.cache_clear()
    # (16,8), (17,8) and (18,8) are valid; (18,9) is checked before them
    code = cli.main(["ar-class", "--n", "16..18", "--k", "8..9"])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err == "error: matching size k=9 outside 2..8\n"


@pytest.mark.parametrize("k", [0, 1, 9])
def test_matching_size_outside_two_to_eight_is_refused(capsys, k):
    # every coloring has a rainbow 1-matching, so ar(G, M_1) does not
    # exist; every entry point refuses k = 1 as it refuses 0 and 9, with
    # the one message of check_k
    with pytest.raises(ValueError) as refused:
        check_k(k)
    message = str(refused.value)
    g = graph6_decode(FAN4)
    for call in (partial(ar_exact, g, k), partial(seed_incumbent, g, k),
                 partial(ar_class, max(6, 2 * k), k)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    for argv in (("ar", "--graph", FAN4, "--k", str(k)),
                 ("ar-class", "--n", str(max(6, 2 * k)), "--k", str(k))):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n"), argv


def test_graph_past_the_edge_limit_is_refused(capsys):
    # class labels are one byte: K_24, at 276 edges, is refused with
    # nothing printed
    n = 24
    k24 = graph6_encode(Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    ))
    code, out, err = run(capsys, "ar", "--graph", k24, "--k", "5")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "outside 1..255" in err


def test_graph_past_the_matching_limit_is_refused(capsys):
    # K_23 is inside the edge limit, but its 5-matchings are past
    # MAX_MATCHINGS: refused, under a one-node budget, with nothing printed
    n = 23
    k23 = graph6_encode(Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    ))
    code, out, err = run(capsys, "ar", "--graph", k23, "--k", "5",
                         "--budget-nodes", "1")
    assert (code, out) == (1, "")
    assert err == "error: more than MAX_MATCHINGS = 1000000 k-matchings\n"


def test_bad_cache_leaves_an_existing_out_file(capsys, tmp_path):
    out = tmp_path / "x.json"
    out.write_text('{"old": 1}')
    code, _, err = run(capsys, "ar-class", "--n", "6", "--k", "3",
                       "--out", str(out),
                       "--cache", str(tmp_path / "missing" / "c.jsonl"))
    assert code == 1 and "missing" in err
    assert out.read_text() == '{"old": 1}'
    # a good run replaces it
    code, _, _ = run(capsys, "ar-class", "--n", "6", "--k", "3",
                     "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["n"] == 6


def test_out_naming_the_cache_is_refused(capsys, tmp_path):
    # --out is emptied once the cache has loaded, so an --out that names
    # the cache file, however spelled or linked, would destroy it; it is
    # refused once the cache has been read, with the cache left as it was
    cache = tmp_path / "c.jsonl"
    code, _, _ = run(capsys, "ar-class", "--n", "7", "--k", "3",
                     "--cache", str(cache))
    assert code == 0
    before = cache.read_bytes()
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.jsonl").symlink_to(cache)
    (tmp_path / "hard.jsonl").hardlink_to(cache)
    for out in (cache, tmp_path / "sub" / ".." / "c.jsonl",
                tmp_path / "link.jsonl", tmp_path / "hard.jsonl"):
        code, printed, err = run(capsys, "ar-class", "--n", "7", "--k", "3",
                                 "--cache", str(cache), "--out", str(out))
        assert (code, printed) == (1, ""), out
        assert err.startswith("error: ") and "same file" in err, out
        assert cache.read_bytes() == before, out


def test_empty_out_or_cache_is_refused(capsys, monkeypatch, tmp_path):
    # an empty path would otherwise read as no option at all, and a sweep
    # would run with nothing written or cached
    def no_load(self):
        raise AssertionError("read a cache despite an empty option")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ResultCache, "_load", no_load)
    for option in ("--out", "--cache"):
        code, out, err = run(capsys, "ar-class", "--n", "6", "--k", "3",
                             option, "")
        assert (code, out) == (1, ""), option
        assert err.startswith("error: ") and option in err, option
    assert list(tmp_path.iterdir()) == []


def test_out_may_be_a_device_or_a_pipe(capsys, tmp_path):
    # only a regular file is emptied before the sweep writes to it
    code, out, _ = run(capsys, "ar-class", "--n", "6", "--k", "3",
                       "--out", os.devnull)
    assert code == 0 and json.loads(out)["out"] == os.devnull
    # standard output into a pipe holds the class line and the summary
    done = subprocess.run(
        [sys.executable, "-m", "mopar", "ar-class", "--n", "6", "--k", "3",
         "--out", "/dev/stdout"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    summary, = [line for line in lines if "out" in line]
    full, = [line for line in lines if "results" in line]
    assert len(lines) == 2 and (summary["out"], full["n"]) == ("/dev/stdout", 6)
    # and a named pipe, read as the sweep writes it
    fifo = tmp_path / "class.fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    code, _, _ = run(capsys, "ar-class", "--n", "6", "--k", "3",
                     "--out", str(fifo))
    reader.join(timeout=60)
    assert code == 0 and json.loads(read[0])["n"] == 6


def test_cache_line_whose_witness_misfits_its_graph_is_solved_again(
    capsys, monkeypatch, tmp_path
):
    cache = tmp_path / "c.jsonl"
    argv = ("ar-class", "--n", "6", "--k", "3", "--cache", str(cache))
    code, first, _ = run(capsys, *argv)
    assert code == 0
    # one color too many: the coloring is still well formed, but covers
    # one edge more than the graph has
    lines = cache.read_text().splitlines()
    data = json.loads(lines[0])
    data["witness"]["colors"].append(0)
    cache.write_text("\n".join([json.dumps(data), *lines[1:]]) + "\n")
    solved = []
    solve = runner.ar_exact

    def counted(g, k, **kwargs):
        solved.append(g)
        return solve(g, k, **kwargs)

    monkeypatch.setattr(runner, "ar_exact", counted)
    monkeypatch.setattr(runner, "AUDIT_FRACTION", 0.0)
    with pytest.warns(UserWarning) as caught:
        code, again, _ = run(capsys, *argv)
    assert [str(w.message).endswith("skipping corrupt cache line")
            for w in caught] == [True]
    assert [graph6_encode(g) for g in solved] == [data["graph"]]
    # the same summary, up to the re-solved member's solve time
    summaries = [json.loads(out) for out in (first, again)]
    for summary in summaries:
        del summary["elapsed_ms"]
    assert code == 0 and summaries[0] == summaries[1]


def test_cache_line_with_a_time_past_the_float_range_is_skipped(
    capsys, tmp_path
):
    # the summary sums the members' times as floats, so an integer time
    # too large for a float is a corrupt line, not a crash
    cache = tmp_path / "c.jsonl"
    argv = ("ar-class", "--n", "6", "--k", "3", "--cache", str(cache))
    code, first, _ = run(capsys, *argv)
    assert code == 0
    lines = cache.read_text().splitlines()
    data = json.loads(lines[0])
    data["elapsed_ms"] = 10**400
    cache.write_text("\n".join([json.dumps(data), *lines[1:]]) + "\n")
    with pytest.warns(UserWarning) as caught:
        code, again, _ = run(capsys, *argv)
    assert [str(w.message).endswith("skipping corrupt cache line")
            for w in caught] == [True]
    summaries = [json.loads(out) for out in (first, again)]
    for summary in summaries:
        del summary["elapsed_ms"]
    assert code == 0 and summaries[0] == summaries[1]

def _strict_json(line):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(line, parse_constant=refuse)


def test_times_that_overflow_their_sum_are_skipped(capsys, tmp_path):
    # each time fits a float, but two of them sum past it, and the summary
    # would print Infinity; the time bound refuses both lines, so the
    # summary stays strict JSON
    cache = tmp_path / "c.jsonl"
    argv = ("ar-class", "--n", "6", "--k", "3", "--cache", str(cache))
    code, first, _ = run(capsys, *argv)
    assert code == 0
    lines = cache.read_text().splitlines()
    assert len(lines) >= 2
    edited = []
    for line in lines[:2]:
        data = json.loads(line)
        data["elapsed_ms"] = 1.7e308
        edited.append(json.dumps(data))
    cache.write_text("\n".join([*edited, *lines[2:]]) + "\n")
    with pytest.warns(UserWarning) as caught:
        code, again, _ = run(capsys, *argv)
    assert [str(w.message).endswith("skipping corrupt cache line")
            for w in caught] == [True, True]
    summaries = [_strict_json(out) for out in (first, again)]
    for summary in summaries:
        del summary["elapsed_ms"]
    assert code == 0 and summaries[0] == summaries[1]


def test_audit_coloring_that_fails_its_check_is_no_cache_mismatch(
    capsys, tmp_path, monkeypatch
):
    # a re-solve above the cached upper bound whose coloring has a rainbow
    # k-matching blames the solver, not the cache
    cache = tmp_path / "c.jsonl"
    argv = ("ar-class", "--n", "6", "--k", "3", "--cache", str(cache))
    code, _, _ = run(capsys, *argv)
    assert code == 0

    def faulty(g, k, **kw):
        m = g.edge_count
        return ArResult(graph6_encode(g), k, None,
                        EdgeColoring(tuple(range(m)), m), 0, 0.0)

    monkeypatch.setattr(runner, "ar_exact", faulty)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("witness failure: ") and "Traceback" not in err
    assert "fails its check" in err and "cache mismatch" not in err


def test_table_contents_and_determinism(capsys, tmp_path):
    # a range sweep prints one summary per cell of `table_cells`, in order
    argv = ("ar-class", "--n", "4..6", "--k", "2..3",
            "--cache", str(tmp_path / "c.jsonl"))
    code, first, _ = run(capsys, *argv)
    assert code == 0
    summaries = [json.loads(line) for line in first.splitlines()]
    assert [(s["n"], s["k"]) for s in summaries] == table_cells((4, 6), (2, 3))
    # (4,2) -> 3 and (5,2) -> 1 per the known exact values; (4,3) has
    # n < 2k and is absent
    values = {(s["n"], s["k"]): s["value"] for s in summaries}
    assert values[(4, 2)] == 3 and values[(5, 2)] == 1
    assert (4, 3) not in values
    # a warm-cache rerun prints the same bytes
    code, again, _ = run(capsys, *argv)
    assert code == 0 and again == first


def test_range_sweep_lists_each_order_once(capsys, monkeypatch):
    calls = []
    enumerate_mops = runner.enumerate_mops

    def counted(n):
        calls.append(n)
        return enumerate_mops(n)

    monkeypatch.setattr(runner, "enumerate_mops", counted)
    runner._class_members.cache_clear()
    code, out, _ = run(capsys, "ar-class", "--n", "7", "--k", "2..3")
    assert code == 0 and len(out.splitlines()) == 2
    assert calls == [7]


def test_table_command(capsys, tmp_path):
    out_path = tmp_path / "t.jsonl"
    code, out, _ = run(capsys, "ar-class", "--n", "4..6", "--k", "2..3",
                       "--out", str(out_path))
    assert code == 0
    summaries = [json.loads(line) for line in out.splitlines()]
    assert all(s["out"] == str(out_path) for s in summaries)
    # --out holds one ClassResult per cell, one per line
    lines = out_path.read_text().splitlines()
    assert len(lines) == len(summaries) == len(table_cells((4, 6), (2, 3)))
    for line, summary in zip(lines, summaries):
        data = json.loads(line)
        result = ClassResult(
            data["n"], data["k"],
            [ArResult.from_json(r) for r in data["results"]],
        )
        assert result.to_json() == data
        assert (result.n, result.k, result.value) == (
            summary["n"], summary["k"], summary["value"]
        )
    # an unwritable --out is an error that names the path
    code, out, err = run(capsys, "ar-class", "--n", "4..4", "--k", "2..2",
                         "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


def test_table_budget_exit_code(capsys, tmp_path):
    out_path = tmp_path / "t.jsonl"
    code, out, _ = run(capsys, "ar-class", "--n", "8..8", "--k", "4..4",
                       "--budget-nodes", "3", "--out", str(out_path))
    assert code == 2 and not json.loads(out)["complete"]
    assert not json.loads(out_path.read_text())["complete"]
    assert max(r.nodes for r in ar_class(8, 4).results) > 3


def test_table_bound_violation_exit_code(capsys, monkeypatch):
    # a VIOLATED verdict in one cell of a range fails the sweep
    evaluate = cli.evaluate_bounds

    def violated_at_four(n, k, value, complete):
        check = evaluate(n, k, value, complete)
        if n == 4:
            check.upper_verdict = VIOLATED
        return check

    monkeypatch.setattr(cli, "evaluate_bounds", violated_at_four)
    code, out, _ = run(capsys, "ar-class", "--n", "4..5", "--k", "2")
    summaries = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and [s["n"] for s in summaries] == [4, 5]
    assert all(s["verified"] and s["complete"] for s in summaries)


def _readme_commands():
    """Every `mop` command in the README's fenced blocks, continuations
    joined and comments and a `> file` redirection dropped, as an
    argument list."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    text = "\n".join(blocks).replace("\\\n", " ")
    return [
        shlex.split(line.partition(" > ")[0], comments=True)[1:]
        for line in text.splitlines()
        if line.strip().startswith("mop ")
    ]


def test_readme_commands_parse():
    parser = build_parser()
    commands = _readme_commands()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README: mop {shlex.join(argv)} does not parse")
    # the parser has exactly the four subcommands, each shown at least once
    subcommands = parser._subparsers._group_actions[0].choices
    assert list(subcommands) == COMMANDS
    assert {argv[0] for argv in commands} == set(subcommands)


def test_module_entry_lists_the_commands():
    # `python -m mopar` runs cli.main as the installed `mop` does
    done = subprocess.run(
        [sys.executable, "-m", "mopar", "--help"], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert done.returncode == 0
    assert "{" + ",".join(COMMANDS) + "}" in done.stdout


def test_verify_command(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    m = graph6_decode(FAN6).edge_count
    bad = EdgeColoring(tuple(range(m)), m)
    cert.write_text(json.dumps(certificate_to_json(FAN6, 3, bad)))
    code, out, _ = run(capsys, "verify", "--cert", str(cert))
    assert code == 1
    assert json.loads(out)["reason"] == "RAINBOW_FOUND"
    # results refuse k = 1, but a k = 1 certificate is checked: every
    # coloring has a rainbow 1-matching
    one = EdgeColoring((0,) * m, 1)
    cert.write_text(json.dumps(certificate_to_json(FAN6, 1, one)))
    code, out, _ = run(capsys, "verify", "--cert", str(cert))
    assert code == 1
    assert json.loads(out)["reason"] == "RAINBOW_FOUND"
    # an undecodable graph is a graph6 error, not a traceback
    cert.write_text(json.dumps(certificate_to_json("~~~", 3, bad)))
    code, out, err = run(capsys, "verify", "--cert", str(cert))
    assert code == 1 and out == "" and err.startswith("graph6 error: ")


def test_verify_accepts_every_result_witness(capsys, tmp_path):
    # the witness block of a result's JSON is a certificate file as it is
    cert = tmp_path / "cert.json"
    for result in ar_class(8, 4).results:
        cert.write_text(json.dumps(result.to_json()["witness"]))
        code, out, _ = run(capsys, "verify", "--cert", str(cert))
        assert code == 0 and json.loads(out) == {"ok": True, "reason": "OK"}


def test_verify_rejects_malformed_certificate(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    for data, field in (
        ({}, "'graph'"),
        ({"graph": "Cr", "k": 2, "colors": 5, "num_colors": 1}, "'colors'"),
        ({"graph": FAN4, "k": -1, "colors": [0, 1, 2, 3, 4], "num_colors": 5},
         "'k'"),
    ):
        cert.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--cert", str(cert))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err


def test_lemma_command(capsys):
    # the bipartite edge bound is checked by the test suite
    # (tests/side_checks.py), not by `mop`
    assert_usage_error(capsys, "lemma-bipartite", "--max-n", "4")
    report = lemma_bipartite_check(4)
    assert report.ok and report.checked > 0


def test_tutte_berge_command(capsys):
    # the Tutte-Berge certificates are checked by the test suite
    # (tests/side_checks.py), not by `mop`
    assert_usage_error(capsys, "tutte-berge", "--graph", FAN5)
    cert = tutte_berge_certificate(graph6_decode(FAN5))
    assert cert.value == 2  # beta of any MOP on 5 vertices
