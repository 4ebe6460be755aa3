import json

import pytest

from perfcolor.cli import main
from perfcolor.graphs import cycle


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def c4_files(tmp_path):
    graph = write(tmp_path, "c4.json", cycle(4).to_json())
    alt = write(tmp_path, "alt.json", {"k": 2, "colors": [1, 2, 1, 2]})
    s = write(tmp_path, "s.json", {"rows": 2, "cols": 2, "data": [[0, 2], [2, 0]]})
    return graph, alt, s


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_verify_ok(c4_files, capsys):
    graph, alt, s = c4_files
    code, out = run(capsys, ["verify", "--graph", graph, "--coloring", alt, "--s", s])
    assert code == 0
    assert "perfect" in out


def test_verify_induces_s(c4_files, capsys):
    graph, alt, _ = c4_files
    code, out = run(
        capsys, ["verify", "--graph", graph, "--coloring", alt, "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["perfect"] is True
    assert payload["s"]["data"] == [[0, 2], [2, 0]]


def test_verify_failure_reports_witness(tmp_path, capsys):
    graph = write(tmp_path, "c5.json", cycle(5).to_json())
    bad = write(tmp_path, "bad.json", {"k": 2, "colors": [1, 2, 1, 2, 1]})
    code, out = run(
        capsys, ["verify", "--graph", graph, "--coloring", bad, "--format", "json"]
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["perfect"] is False
    assert payload["witness"] is not None


def test_verify_failure_with_explicit_s(c4_files, tmp_path, capsys):
    graph, alt, _ = c4_files
    bad_s = write(tmp_path, "bad_s.json", {"rows": 2, "cols": 2, "data": [[1, 1], [1, 1]]})
    code, out = run(
        capsys,
        ["verify", "--graph", graph, "--coloring", alt, "--s", bad_s, "--format", "json"],
    )
    assert code == 1
    assert json.loads(out)["witness"] == [0, 1]


def test_filter_pair_single(c4_files, capsys):
    graph, _, s = c4_files
    m = write_matrix_from_graph(graph)
    code, out = run(
        capsys,
        ["filter", "pair", "--m", m, "--s", s, "--u", "0", "--v", "1", "--i", "1",
         "--j", "2", "--format", "json"],
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["status"] == "feasible"
    assert rows[0]["lhs"] == "4"


def write_matrix_from_graph(graph_path):
    with open(graph_path) as fh:
        payload = json.load(fh)
    out = graph_path.replace("c4.json", "m.json")
    with open(out, "w") as fh:
        json.dump(payload["adjacency"], fh)
    return out


def test_filter_pair_scan_exit_codes(c4_files, capsys):
    graph, alt, s = c4_files
    m = write_matrix_from_graph(graph)
    code, out = run(
        capsys,
        ["filter", "pair", "--m", m, "--s", s, "--coloring", alt, "--format", "json"],
    )
    assert code == 0
    assert all(row["status"] == "feasible" for row in json.loads(out))


def test_filter_two_color_square_grid(capsys):
    code, out = run(
        capsys,
        ["filter", "two-color", "--r", "4", "--h", "2", "--b", "4", "--c", "3",
         "--format", "json"],
    )
    assert code == 1
    row = json.loads(out)[0]
    assert row["status"] == "infeasible"
    assert (row["lhs"], row["rhs"]) == ("7", "6")


def test_filter_two_color_forced_sets(capsys):
    code, out = run(
        capsys,
        ["filter", "two-color", "--r", "6", "--h", "2", "--adjacent", "--b", "3",
         "--c", "1", "--format", "json"],
    )
    assert code == 0
    row = json.loads(out)[0]
    assert row["forced"]["bound"] == "adjacent-lower"


def test_circulant_h(capsys):
    code, out = run(capsys, ["circulant", "h", "--d", "1,2,4", "--t", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["h"] == 4


def test_circulant_period_filter(capsys):
    code, out = run(
        capsys,
        ["circulant", "period-filter", "--d", "1,2,4", "--b", "1", "--c", "1",
         "--t-max", "3", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert 3 in payload["fired"]


def test_circulant_enumerate(capsys):
    code, out = run(
        capsys,
        ["circulant", "enumerate", "--d", "1,2,4", "--T", "3", "--k", "2",
         "--format", "json"],
    )
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 2
    split = next(e for e in entries if e["coloring"]["k"] == 2)
    assert {split["b"], split["c"]} == {"3", "6"}


def test_circulant_budget_exit(capsys):
    code = main(["circulant", "enumerate", "--d", "1", "--T", "25", "--k", "2"])
    capsys.readouterr()
    assert code == 66


def test_grid_h(capsys):
    code, out = run(
        capsys, ["grid", "h", "--grid", "square", "--delta", "1,1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["h"] == 2 and payload["adjacent"] is False


def test_grid_reject_square_43(capsys):
    code, out = run(
        capsys,
        ["grid", "reject", "--grid", "square", "--b", "4", "--c", "3", "--format", "json"],
    )
    assert code == 1
    payload = json.loads(out)
    diag = next(d for d in payload["deltas"] if d["delta"] == [1, 1])
    assert (diag["lhs"], diag["rhs"]) == ("7", "6")


def test_grid_torus_search(capsys):
    code, out = run(
        capsys,
        ["grid", "torus-search", "--grid", "triangular", "--p", "4", "--q", "1",
         "--b", "2", "--c", "2", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "witness"
    assert payload["witness"]["colors"] is not None


def test_grid_patch_search(capsys):
    code, out = run(
        capsys,
        ["grid", "patch-search", "--grid", "square", "--b", "4", "--c", "3",
         "--width", "6", "--height", "6", "--format", "json"],
    )
    assert code == 1
    assert json.loads(out)["status"] == "rejected"


def test_grid_node_budget_reaches_every_search(capsys):
    code, _ = run(
        capsys, ["grid", "reject", "--grid", "square", "--b", "4", "--c", "3", "--node-budget", "1"]
    )
    assert code == 2
    code, out = run(
        capsys,
        ["grid", "torus-search", "--grid", "triangular", "--p", "4", "--q", "5",
         "--b", "3", "--c", "3", "--all", "--node-budget", "100", "--format", "json"],
    )
    assert json.loads(out)["certificate"]["complete"] is False


def test_grid_patch_search_deep_window(tmp_path, capsys):
    s = write(tmp_path, "s.json", {"rows": 1, "cols": 1, "data": [[6]]})
    code, out = run(
        capsys,
        ["grid", "patch-search", "--grid", "triangular", "--s", s,
         "--width", "40", "--height", "40", "--format", "json"],
    )
    assert code == 2
    assert json.loads(out)["certificate"]["complete"] is True


def test_graph_constructors(capsys):
    code, out = run(capsys, ["graph", "cycle", "--n", "6", "--format", "json"])
    assert code == 0
    assert json.loads(out)["adjacency"]["rows"] == 6
    code, out = run(capsys, ["graph", "petersen", "--format", "json"])
    assert code == 0
    assert json.loads(out)["adjacency"]["rows"] == 10


def test_offsets_flag(capsys):
    code, out = run(
        capsys,
        ["grid", "h", "--offsets", "1,0;0,1;1,-1", "--delta", "1,0", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["h"] == 2 and payload["adjacent"] is True


def test_bad_file_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code = main(["verify", "--graph", missing, "--coloring", missing])
    capsys.readouterr()
    assert code == 65


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["filter", "unknown-subcommand"])
    assert err.value.code == 64


def test_repro_suite(capsys):
    code, out = run(capsys, ["repro", "--format", "json"])
    assert code == 0
    items = json.loads(out)
    assert len(items) == 10
    assert all(item["passed"] for item in items)


def test_repro_text_table(capsys):
    code, out = run(capsys, ["repro", "paper"])
    assert code == 0
    assert out.count("[PASS]") == 10
