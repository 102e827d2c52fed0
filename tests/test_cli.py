import dataclasses
import json
import re
import shlex
from pathlib import Path

from mopar import cli
from mopar.cli import build_parser, main
from mopar.graphs import graph6_decode
from mopar.rainbow import EdgeColoring, dump_certificate
from mopar.runner import ClassResult, ar_class
from mopar.solver import ArResult, ar_exact, seed_incumbent

README = Path(__file__).resolve().parent.parent / "README.md"
# the first order-15 member of the benchmark hunt (sample seed 1)
HUNT_MEMBER = "N?AA??o`P@?PQ`BSaLw"
# polygon fans: every diagonal ends at vertex 0
FAN4, FAN5, FAN6, FAN9 = "C|", "D|c", "E|eG", "H|eKKE@"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--count-only")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--labeled", "--count-only")
    assert code == 0 and out.strip() == "14"


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


def test_ar_command_with_oracle(capsys):
    code, out, _ = run(capsys, "ar", "--graph", FAN4, "--k", "2", "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 3 and data["oracle_value"] == 3
    assert data["mode"] == "EXACT"
    assert data["witness"]["num_colors"] == 3


def test_ar_budget_exit_code(capsys):
    code, out, _ = run(capsys, "ar", "--graph", FAN9, "--k", "4",
                       "--budget-nodes", "4")
    assert code == 2
    assert json.loads(out)["mode"] == "LOWER_BOUND"


def _rainbow(result):
    """The result with a witness in which every edge has its own color."""
    m = len(result.witness.colors)
    return dataclasses.replace(
        result, value=m, upper=m, witness=EdgeColoring(tuple(range(m)), m)
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
    # one order-15 member whose greedy witness verifies at 16 colors, passed
    # off as a complete sweep: below the lower bound n + 2k - 6 = 19
    g6 = HUNT_MEMBER
    seed = seed_incumbent(graph6_decode(g6), 5)
    member = ArResult(g6, 5, seed.num_colors, seed.num_colors, seed, 0, 0.0)
    monkeypatch.setattr(
        cli, "ar_class",
        lambda n, k, **kw: ClassResult(
            n, k, member.value, [g6], [member], True, []),
    )
    code, out, _ = run(capsys, "ar-class", "--n", "15", "--k", "5")
    summary = json.loads(out)
    assert code == 1 and summary["verified"] and summary["complete"]
    assert summary["value"] == 16
    assert summary["bounds"]["lower_verdict"] == "VIOLATED"


def test_ar_class_unattained_value_exit_code(capsys, monkeypatch):
    # a complete value that no member attains is not verified
    monkeypatch.setattr(
        cli, "ar_class",
        lambda n, k, **kw: ClassResult(n, k, n + 5, [], [], True, []),
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
    assert code == 0 and err == "" and pooled == sequential


def test_jobs_below_one_is_an_error(capsys, tmp_path):
    for argv in (
        ("ar-class", "--n", "8", "--k", "3", "--jobs", "0"),
        ("table", "--n", "6..6", "--k", "2..2", "--jobs", "0",
         "--out", str(tmp_path / "t.csv")),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "jobs=0" in err and "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


def test_negative_budget_is_an_error(capsys, tmp_path):
    for argv in (
        ("ar", "--graph", HUNT_MEMBER, "--k", "5", "--budget-ms", "-1"),
        ("ar", "--graph", HUNT_MEMBER, "--k", "5", "--budget-nodes", "-3"),
        ("ar-class", "--n", "8", "--k", "3", "--budget-nodes", "-1"),
        ("ar-class", "--n", "8", "--k", "3", "--budget-ms", "-1"),
        ("table", "--n", "6..6", "--k", "2..2", "--budget-nodes", "-1",
         "--out", str(tmp_path / "t.csv")),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "must not be negative" in err
    assert not (tmp_path / "t.csv").exists()


def test_extended_requires_cache(capsys):
    code, _, err = run(capsys, "ar-class", "--n", "10", "--k", "5", "--extended")
    assert code == 1 and "--cache" in err


def test_table_command(capsys, tmp_path):
    out_path = tmp_path / "t.csv"
    code, out, _ = run(capsys, "table", "--n", "4..6", "--k", "2..2",
                       "--out", str(out_path), "--format", "csv")
    assert code == 0 and "wrote" in out
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("n,k,")
    assert len(lines) == 4  # header + n in {4,5,6}


def test_table_budget_exit_code(capsys, tmp_path):
    out_path = tmp_path / "t.csv"
    code, out, _ = run(capsys, "table", "--n", "8..8", "--k", "4..4",
                       "--budget-nodes", "3", "--out", str(out_path))
    assert code == 2 and "wrote" in out
    header, row = out_path.read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["complete"] == "False"


def test_table_bound_violation_exit_code(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(
        cli, "emit_table",
        lambda *a, **kw: [{"complete": True, "lower_verdict": "HOLDS",
                           "upper_verdict": "VIOLATED"}],
    )
    code, _, _ = run(capsys, "table", "--n", "15..15", "--k", "5..5",
                     "--out", str(tmp_path / "t.csv"))
    assert code == 1


def _readme_commands():
    """Every `mop` command in the README's fenced blocks, continuations
    joined and comments dropped, as an argument list."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    text = "\n".join(blocks).replace("\\\n", " ")
    return [
        shlex.split(line, comments=True)[1:]
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
    # every subcommand is shown at least once
    subcommands = parser._subparsers._group_actions[0].choices
    assert {argv[0] for argv in commands} == set(subcommands)


def test_verify_command(capsys, tmp_path):
    g = graph6_decode(FAN6)
    result = ar_exact(g, 3)
    cert = tmp_path / "cert.json"
    cert.write_text(dump_certificate(g, 3, result.witness))
    code, out, _ = run(capsys, "verify", "--cert", str(cert))
    assert code == 0 and json.loads(out)["ok"]

    bad = EdgeColoring(tuple(range(g.edge_count)), g.edge_count)
    cert.write_text(dump_certificate(g, 3, bad))
    code, out, _ = run(capsys, "verify", "--cert", str(cert))
    assert code == 1
    assert json.loads(out)["reason"] == "RAINBOW_FOUND"


def test_verify_rejects_malformed_certificate(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    for data, field in (({}, "'graph'"), (
        {"graph": "Cr", "k": 2, "colors": 5, "num_colors": 1}, "'colors'"
    )):
        cert.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--cert", str(cert))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err


def test_lemma_command(capsys):
    code, out, _ = run(capsys, "lemma-bipartite", "--max-n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["checked"] > 0


def test_tutte_berge_command(capsys):
    code, out, _ = run(capsys, "tutte-berge", "--graph", FAN5)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 2  # beta of any MOP on 5 vertices
