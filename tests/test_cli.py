import json

from mopar.cli import main
from mopar.graphs import graph6_decode, graph6_encode
from mopar.mops import enumerate_mops
from mopar.rainbow import EdgeColoring, dump_certificate
from mopar.solver import ar_exact


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
    g6 = graph6_encode(enumerate_mops(4)[0])
    code, out, _ = run(capsys, "ar", "--graph", g6, "--k", "2", "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 3 and data["oracle_value"] == 3
    assert data["mode"] == "EXACT"
    assert data["witness"]["num_colors"] == 3


def test_ar_budget_exit_code(capsys):
    g6 = graph6_encode(enumerate_mops(9)[0])
    code, out, _ = run(capsys, "ar", "--graph", g6, "--k", "4",
                       "--budget-nodes", "4")
    assert code == 2
    assert json.loads(out)["mode"] == "LOWER_BOUND"


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


def test_ar_class_target(capsys):
    code, out, _ = run(capsys, "ar-class", "--n", "10", "--k", "5",
                       "--target", "14")
    assert code == 2  # incomplete by design
    assert json.loads(out)["value"] >= 14


def test_ar_class_target_rejects_jobs(capsys):
    code, out, err = run(capsys, "ar-class", "--n", "10", "--k", "5",
                         "--jobs", "2", "--target", "14")
    assert code == 1 and out == ""
    assert "sequentially" in err and "Traceback" not in err


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


def test_verify_command(capsys, tmp_path):
    g = enumerate_mops(6)[0]
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


def test_lemma_command(capsys):
    code, out, _ = run(capsys, "lemma-bipartite", "--max-n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["checked"] > 0


def test_tutte_berge_command(capsys):
    g6 = graph6_encode(enumerate_mops(5)[0])
    code, out, _ = run(capsys, "tutte-berge", "--graph", g6)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 2  # beta of any MOP on 5 vertices
