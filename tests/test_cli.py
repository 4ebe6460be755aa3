import argparse
import json
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from perfcolor import cli, periodic
from perfcolor.cli import main
from perfcolor.coloring import Coloring, induced_parameters
from perfcolor.filters import distance_power_check, drg_check, pair_color_feasible
from perfcolor.graphs import cycle, distance_matrices, from_edges, petersen
from perfcolor.ratmat import RationalMatrix


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


def cube():
    return from_edges(8, [(a, b) for a, b in combinations(range(8), 2) if bin(a ^ b).count("1") == 1])


@pytest.fixture(params=["petersen", "C6", "cube"])
def distance_scan(request, tmp_path):
    """A distance-regular graph, its distance partition from vertex 0 and the input files."""
    g = {"petersen": petersen, "C6": lambda: cycle(6), "cube": cube}[request.param]()
    spheres = distance_matrices(g)
    colors = tuple(next(r + 1 for r, a in enumerate(spheres) if a[0, v] == 1) for v in range(g.n))
    f = Coloring(colors, len(spheres))
    s = induced_parameters(g, f)
    files = {
        "graph": write(tmp_path, "g.json", g.to_json()),
        "m": write(tmp_path, "m.json", g.adjacency.to_json()),
        "s": write(tmp_path, "s.json", s.to_json()),
        "coloring": write(tmp_path, "f.json", f.to_json()),
    }
    return g, f, s, files


def scan_pairs(f):
    return [(u, v, f.colors[u], f.colors[v]) for u, v in combinations(range(f.n), 2)]


def json_rows(rows):
    return json.dumps(rows, indent=2) + "\n"


def test_filter_drg_scan_matches_per_pair_checks(distance_scan, capsys):
    g, f, s, files = distance_scan
    for radius in range(1, len(distance_matrices(g))):
        code, out = run(
            capsys,
            ["filter", "drg", "--graph", files["graph"], "--s", files["s"],
             "--radius", str(radius), "--coloring", files["coloring"], "--format", "json"],
        )
        expected = []
        for u, v, i, j in scan_pairs(f):
            for kind, verdict in zip(("ball", "sphere"), drg_check(g, s, radius, u, v, i, j)):
                expected.append(dict(u=u, v=v, i=i, j=j, radius=radius, kind=kind, **verdict.to_json()))
        assert code == 0
        assert out == json_rows(expected)


def test_filter_power_and_pair_scans_match_per_pair_checks(distance_scan, capsys):
    g, f, s, files = distance_scan
    m = g.adjacency
    for l in (1, 2, 3):
        code, out = run(
            capsys,
            ["filter", "power", "--m", files["m"], "--s", files["s"], "--l", str(l),
             "--coloring", files["coloring"], "--format", "json"],
        )
        expected = [
            dict(u=u, v=v, i=i, j=j, l=l, **distance_power_check(m, s, l, u, v, i, j).to_json())
            for u, v, i, j in scan_pairs(f)
        ]
        assert code == 0
        assert out == json_rows(expected)
    code, out = run(
        capsys,
        ["filter", "pair", "--m", files["m"], "--s", files["s"],
         "--coloring", files["coloring"], "--format", "json"],
    )
    expected = [
        dict(u=u, v=v, i=i, j=j, **pair_color_feasible(m, s, u, v, i, j).to_json())
        for u, v, i, j in scan_pairs(f)
    ]
    assert code == 0
    assert out == json_rows(expected)


def test_filter_drg_scan_rejects_mismatched_colors(tmp_path, capsys):
    g = cycle(6)
    graph = write(tmp_path, "c6.json", g.to_json())
    s = write(tmp_path, "s.json", {"rows": 2, "cols": 2, "data": [[0, 2], [2, 0]]})
    # vertices 0 and 2 are at distance 2 but get different colors: their
    # neighborhoods differ in 2 vertices, the rows of S in 4
    f = Coloring((1, 2, 2, 1, 2, 1), 2)
    coloring = write(tmp_path, "f.json", f.to_json())
    code, out = run(
        capsys,
        ["filter", "drg", "--graph", graph, "--s", s, "--radius", "1",
         "--coloring", coloring, "--format", "json"],
    )
    assert code == 1
    rows = json.loads(out)
    sphere_02 = next(r for r in rows if (r["u"], r["v"], r["kind"]) == (0, 2, "sphere"))
    assert (sphere_02["status"], sphere_02["lhs"], sphere_02["rhs"]) == ("infeasible", "2", "4")
    s_matrix = RationalMatrix([[0, 2], [2, 0]])
    assert [r["status"] for r in rows] == [
        verdict.status.value
        for u, v, i, j in scan_pairs(f)
        for verdict in drg_check(g, s_matrix, 1, u, v, i, j)
    ]


@pytest.mark.parametrize("length", [9, 3])
@pytest.mark.parametrize("which", ["pair", "power", "drg"])
def test_filter_scan_rejects_coloring_of_wrong_length(tmp_path, capsys, which, length):
    graph = write(tmp_path, "c6.json", cycle(6).to_json())
    m = write(tmp_path, "m.json", cycle(6).adjacency.to_json())
    s = write(tmp_path, "s.json", {"rows": 2, "cols": 2, "data": [[0, 2], [2, 0]]})
    coloring = write(tmp_path, "f.json", {"k": 2, "colors": [1 + x % 2 for x in range(length)]})
    inputs = {
        "pair": ["--m", m, "--s", s],
        "power": ["--m", m, "--s", s, "--l", "2"],
        "drg": ["--graph", graph, "--s", s, "--radius", "1"],
    }[which]
    code = main(["filter", which, *inputs, "--coloring", coloring, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert f"coloring has {length} entries but the graph has 6 vertices" in captured.err


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


def text_rows(rows):
    return "\n".join(" ".join(f"{k}={v}" for k, v in row.items() if v is not None) for row in rows) + "\n"


def filter_commands(tmp_path):
    """One argv per filter subcommand and kind of row: scans, single pairs, None sides, forced sets."""
    c6 = cycle(6)
    graph = write(tmp_path, "c6.json", c6.to_json())
    m = write(tmp_path, "m.json", c6.adjacency.to_json())
    s = write(tmp_path, "s.json", {"rows": 2, "cols": 2, "data": [[0, 2], [2, 0]]})
    half = write(tmp_path, "half.json", {"rows": 2, "cols": 2, "data": [["1/2", "3/2"], [2, 0]]})
    good = write(tmp_path, "good.json", {"k": 2, "colors": [1, 2, 1, 2, 1, 2]})
    bad = write(tmp_path, "bad.json", {"k": 2, "colors": [1, 2, 2, 1, 2, 1]})
    one = write(tmp_path, "one.json", {"rows": 1, "cols": 1, "data": [[0]]})
    lone = write(tmp_path, "lone.json", {"k": 1, "colors": [1]})
    return [
        ["filter", "pair", "--m", m, "--s", s, "--coloring", good],
        ["filter", "pair", "--m", m, "--s", half, "--coloring", bad],
        ["filter", "pair", "--m", m, "--s", s, "--u", "0", "--v", "3", "--i", "1", "--j", "2"],
        ["filter", "pair", "--m", one, "--s", one, "--coloring", lone],  # no pairs: []
        ["filter", "power", "--m", m, "--s", half, "--l", "3", "--coloring", bad],
        ["filter", "power", "--m", one, "--s", one, "--l", "2", "--coloring", lone],
        ["filter", "drg", "--graph", graph, "--s", s, "--radius", "2", "--coloring", bad],
        ["filter", "simple", "--s", half, "--r", "2", "--h", "0", "--i", "1", "--j", "2"],
        ["filter", "simple", "--s", s, "--r", "2", "--h", "1", "--i", "1", "--j", "2"],
        ["filter", "two-color", "--r", "4", "--h", "2", "--b", "4", "--c", "3"],
        ["filter", "two-color", "--r", "6", "--h", "2", "--adjacent", "--b", "3", "--c", "1"],
        ["filter", "two-color", "--r", "6", "--h", "2", "--b", "5", "--c", "5"],
        ["filter", "two-color", "--r", "6", "--h", "2", "--b", "7/2", "--c", "1/3"],
    ]


def test_filter_output_is_byte_identical_to_json_dumps(tmp_path, capsys):
    seen = set()
    for argv in filter_commands(tmp_path):
        code, out = run(capsys, [*argv, "--format", "json"])
        rows = json.loads(out)
        assert out == json_rows(rows), argv
        statuses = {row["status"] for row in rows}  # the worst status decides; no rows exit 0
        assert code == (1 if "infeasible" in statuses else 2 if statuses - {"feasible"} else 0), argv
        text_code, text = run(capsys, [*argv, "--format", "text"])
        assert (text_code, text) == (code, text_rows(rows)), argv
        seen.update(type(v).__name__ for row in rows for v in row.values())
        seen.add(len(rows))
    assert {"NoneType", "bool", "dict", "int", "str", 0} <= seen


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [{"u": 0, "v": 1, "status": "feasible", "lhs": None, "rhs": None, "violated": None}],
        [{"status": "infeasible", "lhs": "7/2", "rhs": "-3", "violated": 'd("S") = 7/2 > 3 \\ \u00e9\u2264\U0001d4ae\n\t'}],
        [{"b": "3", "adjacent": True, "h": -2, "forced": {"only_u_color": 1, "excludes_endpoints": False}}],
        [{"x": 10**30, "y": False}, {}, {"z": [1, 2]}],
        [{1: "int key"}],
        {"rows": 2, "cols": 2, "data": [[0, 2], [2, 0]]},
        [1, "a", None],
        [[{"u": 1}]],
        "text",
    ],
)
def test_json_row_writer_matches_json_dumps(rows):
    assert cli._json_rows(rows) == json.dumps(rows, indent=2)


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
    code = main(["circulant", "enumerate", "--d", "1", "--T", "25", "--k", "2", "--node-budget", "100"])
    assert code == 66
    assert "budget exceeded" in capsys.readouterr().err


def test_circulant_budget_caps_period_squared(capsys):
    # the dense T x T quotient is refused before it is allocated
    code = main(["circulant", "quotient", "--d", "1", "--T", "6000"])
    assert code == 66
    assert "budget exceeded" in capsys.readouterr().err
    code = main(["circulant", "quotient", "--d", "1", "--T", "100", "--node-budget", "9999"])
    assert code == 66
    assert "budget exceeded" in capsys.readouterr().err
    code, out = run(capsys, ["circulant", "quotient", "--d", "1", "--T", "100", "--node-budget", "10000"])
    assert code == 0
    assert json.loads(out)["adjacency"]["rows"] == 100


def test_circulant_enumerate_refuses_huge_period_before_building(capsys, monkeypatch):
    def no_lists(*args):
        raise AssertionError("quotient built")

    monkeypatch.setattr(periodic, "_circulant_neighbors", no_lists)
    code = main(["circulant", "enumerate", "--d", "1", "--T", "100000000", "--k", "1"])
    assert code == 66
    assert "budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, handler",
    [
        (["circulant", "quotient", "--d", "1", "--T", "3000"], "circulant_quotient"),
        (["circulant", "enumerate", "--d", "1", "--T", "3000000", "--k", "1"], "circulant_enumerate"),
    ],
)
def test_out_of_memory_exits_66_not_rejected(argv, handler, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, handler, exhausted)
    assert main(argv) == 66
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("out of memory: ")


def test_circulant_enumerate_runs_past_the_old_gates(capsys):
    code, out = run(capsys, ["circulant", "enumerate", "--d", "1", "--T", "2000", "--k", "1", "--format", "json"])
    assert code == 0
    assert [e["coloring"]["colors"] for e in json.loads(out)] == [[1] * 2000]
    code, out = run(capsys, ["circulant", "enumerate", "--d", "1,2,4", "--T", "32", "--k", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)[0]["coloring"]["colors"] == [1] * 32


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


@pytest.mark.parametrize(
    "grid, b, c, side, nodes",
    [("square", 4, 3, 8, 9588), ("triangular", 3, 1, 8, 26332), ("triangular", 5, 5, 6, 810),
     ("square", 2, 2, 12, 13585)],
)
def test_grid_patch_search_counts_nodes_as_the_library(capsys, grid, b, c, side, nodes):
    # --b --c reach patch_search as the pair (b, c), so the CLI pins a cell and
    # searches the swapped orientation exactly as the library does
    code, out = run(capsys, ["grid", "patch-search", "--grid", grid, "--b", str(b), "--c", str(c),
                             "--width", str(side), "--height", str(side)])
    spec = periodic.GridSpec.square() if grid == "square" else periodic.GridSpec.triangular()
    outcome = periodic.patch_search(spec, (b, c), (side, side))
    assert out.splitlines()[-1] == f"nodes expanded: {outcome.stats.nodes}"
    assert (code, outcome.stats.nodes) == ({"rejected": 1, "inconclusive": 2}[outcome.status.value], nodes)


def test_grid_patch_search_negative_target_entry_is_malformed(capsys):
    # (1, 7) sums to the square grid's valency only as [[3, 1], [7, -3]]
    code = main(["grid", "patch-search", "--grid", "square", "--b", "1", "--c", "7",
                 "--width", "4", "--height", "4"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (65, "")
    assert "target entry -3 in row 2, column 2 is negative" in captured.err


def test_grid_torus_search_negative_target_entry_is_malformed(capsys):
    code = main(["grid", "torus-search", "--grid", "square", "--b", "1", "--c", "7",
                 "--p", "2", "--q", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (65, "")
    assert "target entry -3 in row 2, column 2 is negative" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        # (5, 0) sums to the square grid's valency only as [[-1, 5], [0, 4]]
        (["grid", "reject", "--grid", "square", "--b", "5", "--c", "0"],
         "target entry -1 in row 1, column 1 is negative"),
        (["circulant", "period-filter", "--d", "1,2,4", "--b", "9", "--c", "0", "--t-max", "8"],
         "target entry -3 in row 1, column 1 is negative"),
    ],
)
def test_window_scan_target_outside_0_to_r_is_malformed(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (65, "")
    assert message in captured.err


def test_grid_patch_search_budget_bounds_the_window_it_builds(capsys):
    # the 600x600 window has 360,000 cells; a budget of 100 nodes reaches 101 of them,
    # and only those (and the cells that see them) are prepared
    start = time.perf_counter()
    code, out = run(capsys, ["grid", "patch-search", "--grid", "square", "--b", "1", "--c", "1",
                             "--width", "600", "--height", "600", "--node-budget", "100",
                             "--format", "json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(out)
    assert (code, payload["status"], payload["certificate"]["nodes"]) == (2, "inconclusive", 101)
    assert payload["certificate"]["complete"] is False
    assert elapsed < 0.2


def test_require_two_colors_is_gone(capsys):
    # the knob rejected square (1,1) on a 3x3 patch, yet the 1x4 torus holds a witness
    with pytest.raises(SystemExit) as err:
        main(["grid", "patch-search", "--grid", "square", "--b", "1", "--c", "1",
              "--width", "3", "--height", "3", "--require-two-colors"])
    assert err.value.code == 64
    assert "unrecognized arguments: --require-two-colors" in capsys.readouterr().err
    code, out = run(capsys, ["grid", "torus-search", "--grid", "square", "--b", "1", "--c", "1",
                             "--p", "1", "--q", "4", "--format", "json"])
    assert (code, json.loads(out)["witness"]["colors"]) == (0, [1, 1, 2, 2])


@pytest.mark.parametrize("window", ["0", "-1"])
def test_grid_reject_window_below_one_is_a_usage_error(capsys, window):
    # an empty scan of differences used to print "overall: feasible" for a rejected pair
    with pytest.raises(SystemExit) as err:
        main(["grid", "reject", "--grid", "square", "--b", "4", "--c", "3", "--window", window])
    assert err.value.code == 64
    assert f"--window: must be at least 1, not {window}" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, code_at_zero",
    [
        (["grid", "patch-search", "--grid", "square", "--b", "1", "--c", "1",
          "--width", "4", "--height", "4"], 2),
        (["grid", "torus-search", "--grid", "square", "--p", "2", "--q", "2",
          "--b", "1", "--c", "1"], 66),
        (["grid", "reject", "--grid", "square", "--b", "4", "--c", "3"], 2),
        (["circulant", "enumerate", "--d", "1", "--T", "4", "--k", "2"], 66),
        (["circulant", "quotient", "--d", "1", "--T", "4"], 66),
    ],
    ids=["patch-search", "torus-search", "reject", "enumerate", "quotient"],
)
def test_negative_node_budget_is_a_usage_error(capsys, argv, code_at_zero):
    for budget in ("-5", "-1"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--node-budget", budget])
        assert exc.value.code == 64
        assert f"--node-budget: must be non-negative, not {budget}" in capsys.readouterr().err
    # a budget of 0 is accepted and then spent or refused like any other
    code, _ = run(capsys, [*argv, "--node-budget", "0"])
    assert code == code_at_zero


def test_grid_torus_search_refuses_huge_torus_before_building(capsys, monkeypatch):
    def no_lists(*args):
        raise AssertionError("quotient built")

    monkeypatch.setattr(periodic, "_lattice_neighbors", no_lists)
    code = main(["grid", "torus-search", "--grid", "square", "--p", "4000", "--q", "4000",
                 "--b", "1", "--c", "1"])
    assert code == 66
    assert "budget exceeded" in capsys.readouterr().err


def test_grid_torus_search_square_41_witness(capsys):
    code, out = run(
        capsys,
        ["grid", "torus-search", "--grid", "square", "--p", "5", "--q", "5",
         "--b", "4", "--c", "1", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["status"] == "witness"


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


def test_budget_flag_is_gone():
    for argv in (["circulant", "enumerate", "--d", "1", "--T", "3", "--k", "1", "--budget", "5"],
                 ["graph", "petersen", "--node-budget", "5"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 64


def _leaves(parser, path=()):
    """(subcommand path, parser) for every leaf subcommand under parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, sub in subs[0].choices.items():
        yield from _leaves(sub, (*path, name))


class _ReadRecorder(argparse.Namespace):
    """A namespace that notes which attributes are read after ``reads`` is cleared."""

    def __init__(self):
        super().__init__()
        self.__dict__["reads"] = set()

    def __getattribute__(self, name):
        if not name.startswith("_") and name != "reads":
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


def test_node_budget_only_where_read(tmp_path, capsys):
    graph = write(tmp_path, "g.json", cycle(4).to_json())
    m = write(tmp_path, "m.json", cycle(4).adjacency.to_json())
    s = write(tmp_path, "s.json", {"rows": 2, "cols": 2, "data": [[0, 2], [2, 0]]})
    f = write(tmp_path, "f.json", {"k": 2, "colors": [1, 2, 1, 2]})
    samples = {
        ("graph", "cycle"): ["--n", "4"],
        ("graph", "complete"): ["--n", "3"],
        ("graph", "petersen"): [],
        ("verify",): ["--graph", graph, "--coloring", f],
        ("filter", "pair"): ["--m", m, "--s", s, "--coloring", f],
        ("filter", "simple"): ["--s", s, "--r", "2", "--h", "0", "--i", "1", "--j", "2"],
        ("filter", "two-color"): ["--r", "4", "--h", "2", "--b", "1", "--c", "1"],
        ("filter", "power"): ["--m", m, "--s", s, "--l", "2", "--coloring", f],
        ("filter", "drg"): ["--graph", graph, "--s", s, "--radius", "1", "--coloring", f],
        ("circulant", "h"): ["--d", "1,2,4", "--t", "3"],
        ("circulant", "period-filter"): ["--d", "1,2,4", "--b", "3", "--c", "3", "--t-max", "6"],
        ("circulant", "quotient"): ["--d", "1,2,4", "--T", "3"],
        ("circulant", "enumerate"): ["--d", "1,2,4", "--T", "3", "--k", "2"],
        ("grid", "h"): ["--grid", "square", "--delta", "1,1"],
        ("grid", "reject"): ["--grid", "square", "--b", "4", "--c", "3"],
        ("grid", "torus-search"): ["--grid", "triangular", "--p", "4", "--q", "1", "--b", "2", "--c", "2"],
        ("grid", "patch-search"): ["--grid", "square", "--b", "4", "--c", "3", "--width", "5", "--height", "5"],
        ("repro",): ["--patch-max", "3"],
    }
    parser = cli.build_parser()
    leaves = dict(_leaves(parser))
    assert set(leaves) == set(samples)  # a new subcommand needs a sample here
    for path, sub in leaves.items():
        args = parser.parse_args([*path, *samples[path]], namespace=_ReadRecorder())
        run_leaf = args.run
        args.reads.clear()
        run_leaf(args)
        capsys.readouterr()
        declared = "--node-budget" in sub._option_string_actions
        assert declared == ("node_budget" in args.reads), path


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


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_main_reuses_one_parser_and_matches_a_fresh_one(tmp_path, capsys):
    g = petersen()
    spheres = distance_matrices(g)
    f = Coloring(tuple(next(r + 1 for r, a in enumerate(spheres) if a[0, v] == 1) for v in range(g.n)), 3)
    graph = write(tmp_path, "g.json", g.to_json())
    m = write(tmp_path, "m.json", g.adjacency.to_json())
    s = write(tmp_path, "s.json", induced_parameters(g, f).to_json())
    coloring = write(tmp_path, "f.json", f.to_json())
    argvs = [
        ["filter", "drg", "--graph", graph, "--s", s, "--radius", "2", "--coloring", coloring, "--format", "json"],
        ["filter", "drg", "--graph", graph, "--radius", "two"],
        ["verify", "--graph", graph, "--coloring", coloring],
        ["filter", "power", "--m", m, "--s", s, "--l", "2", "--coloring", coloring],
    ]
    cli._parser.cache_clear()
    shared = [outcome(capsys, argv) for argv in argvs]
    parser = cli._parser()
    assert [code for code, _, _ in shared] == [0, 64, 0, 0]
    for argv, seen in zip(argvs, shared):
        cli._parser.cache_clear()
        assert outcome(capsys, argv) == seen
    assert cli._parser() is not parser
    assert outcome(capsys, argvs[0]) == shared[0]
    assert cli._parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["circulant", "h", "--d", "1,2,4", "--t", "3", "--format", "json"],
        ["circulant", "period-filter", "--d", "1,2,3", "--b", "1", "--c", "5", "--t-max", "8"],
        ["filter", "unknown-subcommand"],
    ],
)
def test_python_m_perfcolor_runs_the_cli(argv, capsys):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "perfcolor", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == outcome(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["grid", "reject", "--grid", "square", "--b", "4", "--c", "3"],
        ["grid", "reject", "--grid", "square", "--b", "4", "--c", "3", "--format", "json"],
        ["grid", "reject", "--grid", "square", "--b", "2", "--c", "2"],
    ],
)
def test_closed_stdout_keeps_the_verdict_exit_code(argv, capsys):
    # a reader that closes the pipe before the command writes ends the output, not the verdict
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfcolor", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (outcome(capsys, argv)[0], b"")
