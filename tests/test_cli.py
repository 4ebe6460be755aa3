import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import grid_h_by_counting
from perfcolor import cli, periodic
from perfcolor.cli import main
from perfcolor.coloring import Coloring, TwoColorParams, induced_parameters
from perfcolor.filters import (
    PairContext, Side, distance_power_check, drg_check, drg_sides, row_distance_scan, two_color_check,
)
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
        dict(u=u, v=v, i=i, j=j, **row_distance_scan([Side(m, s)], [(u, v, i, j)])[0].to_json())
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


@pytest.mark.parametrize("name", ["petersen", "C7"])
def test_scan_rows_equal_single_pair_queries(tmp_path, capsys, name):
    # a scan keeps each S-side distance per color pair; every row must still be the one-pair query
    g = petersen() if name == "petersen" else cycle(7)
    spheres = distance_matrices(g)
    k, r = len(spheres), int(g.adjacency.row_sums()[0])
    colors = [next(t + 1 for t, a in enumerate(spheres) if a[0, v] == 1) for v in range(g.n)]
    Random(7).shuffle(colors)
    # r times a cyclic shift: rows of S are 2r apart, so pairs with a common neighbor are refuted
    wrong_s = [[r if j == (i + 1) % k else 0 for j in range(k)] for i in range(k)]
    files = {
        "graph": write(tmp_path, "g.json", g.to_json()),
        "m": write(tmp_path, "m.json", g.adjacency.to_json()),
        "s": write(tmp_path, "s.json", {"data": wrong_s}),
        "coloring": write(tmp_path, "f.json", {"k": k, "colors": colors}),
    }
    commands = [
        ["filter", "pair", "--m", files["m"], "--s", files["s"]],
        ["filter", "power", "--m", files["m"], "--s", files["s"], "--l", "2"],
    ] + [
        ["filter", "drg", "--graph", files["graph"], "--s", files["s"], "--radius", str(radius)]
        for radius in range(1, k)
    ]
    for argv in commands:
        code, out = run(capsys, [*argv, "--coloring", files["coloring"], "--format", "json"])
        scan = json.loads(out)
        assert {row["status"] for row in scan} == {"feasible", "infeasible"}, argv
        assert code == 1
        singles = []
        for u, v in combinations(range(g.n), 2):
            pair = ["--u", str(u), "--v", str(v), "--i", str(colors[u]), "--j", str(colors[v])]
            _, single = run(capsys, [*argv, *pair, "--format", "json"])
            singles += json.loads(single)
        assert scan == singles, argv


def c6_scan_inputs(tmp_path, which):
    """The C6 graph or matrix files of `filter <which>`, with a 2x2 S."""
    graph = write(tmp_path, "c6.json", cycle(6).to_json())
    m = write(tmp_path, "m.json", cycle(6).adjacency.to_json())
    s = write(tmp_path, "s.json", {"rows": 2, "cols": 2, "data": [[0, 2], [2, 0]]})
    return {
        "pair": ["--m", m, "--s", s],
        "power": ["--m", m, "--s", s, "--l", "2"],
        "drg": ["--graph", graph, "--s", s, "--radius", "1"],
    }[which]


@pytest.mark.parametrize("length", [9, 3])
@pytest.mark.parametrize("which", ["pair", "power", "drg"])
def test_filter_scan_rejects_coloring_of_wrong_length(tmp_path, capsys, which, length):
    coloring = write(tmp_path, "f.json", {"k": 2, "colors": [1 + x % 2 for x in range(length)]})
    code = main(["filter", which, *c6_scan_inputs(tmp_path, which), "--coloring", coloring, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert f"coloring has {length} entries but the graph has 6 vertices" in captured.err


@pytest.mark.parametrize(
    "colors, message",
    [
        (["--u", "0", "--v", "1", "--i", "0", "--j", "1"], "--i 0: color outside 1..2 for S with 2 rows"),
        (["--u", "0", "--v", "1", "--i", "1", "--j", "3"], "--j 3: color outside 1..2 for S with 2 rows"),
        (["--coloring", "THREE"], "coloring uses color 3, outside 1..2 for S with 2 rows"),
    ],
)
@pytest.mark.parametrize("which", ["pair", "power", "drg"])
def test_filter_color_outside_the_rows_of_s_is_malformed(tmp_path, capsys, which, colors, message):
    # --i 0 was reported as row -1 of S, and color 3 of a scan as row 2
    three = write(tmp_path, "f.json", {"k": 3, "colors": [1, 2, 3, 1, 2, 3]})
    code = main(["filter", which, *c6_scan_inputs(tmp_path, which), *(three if a == "THREE" else a for a in colors)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (65, "")
    assert captured.err == f"error: {message}\n"


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
        # lines are encoded once per (key, type, value): True == 1 and False == 0 must not share one
        [{"x": 1, "y": 0}, {"x": True, "y": False}, {"x": 1, "y": False}, {"x": True, "y": 0}],
        [{"x": True}, {"x": 1}, {"x": False}, {"x": 0}, {"x": None}],
        [{"a": "s", "b": "s"}, {"b": "s", "a": "s"}, {"a": "t", "b": "s"}],
        # the fallback after lines were encoded
        [{"u": 0, "s": "x"}, {"u": 0, "s": "x"}, {"u": 0, "s": [1, 2]}],
        [{"u": 0, "s": "x"}, {"u": 0, "s": "x"}, {"u": 0, 1: "x"}],
    ],
)
def test_json_row_writer_matches_json_dumps(rows, capsys):
    # every JSON result but the filter scans is written by _emit; the text form is ignored in JSON
    cli._emit(rows, argparse.Namespace(format="json"), "the text form")
    assert capsys.readouterr().out == json.dumps(rows, indent=2) + "\n"


def scan_rows(sides, keys, pairs):
    """The rows a scan prints, built from row_distance_scan itself."""
    verdicts = iter(row_distance_scan(sides, pairs))
    return [dict(u=u, v=v, i=i, j=j, **key, **next(verdicts).to_json()) for u, v, i, j in pairs for key in keys]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("which", ["pair", "power", "drg"])
def test_scan_output_is_json_dumps_or_text_of_the_scan(tmp_path, capsys, which, fmt):
    # a perfect and an imperfect coloring (INFEASIBLE rows), an S with denominators, one-pair
    # queries, and for `pair` and `power` a one-vertex scan with no rows
    g = cycle(6)
    m = g.adjacency
    files = {"graph": write(tmp_path, "g.json", g.to_json()), "m": write(tmp_path, "m.json", m.to_json())}
    matrices = [
        RationalMatrix([[0, 2], [2, 0]]),
        RationalMatrix([[Fraction(1, 2), Fraction(3, 2)], [1, Fraction(4, 3)]]),
    ]
    cases = []  # (argv, sides, keys, pairs)
    for n, s in enumerate(matrices):
        s_file = write(tmp_path, f"s{n}.json", s.to_json())
        if which == "pair":
            leaves = [(["--m", files["m"], "--s", s_file], [Side(m, s)], [{}])]
        elif which == "power":
            leaves = [
                (["--m", files["m"], "--s", s_file, "--l", str(l)], [Side(m**l, s**l)], [{"l": l}])
                for l in (1, 2, 3)
            ]
        else:
            leaves = [
                (["--graph", files["graph"], "--s", s_file, "--radius", str(r)], drg_sides(g, s, r),
                 [{"radius": r, "kind": kind} for kind in ("ball", "sphere")])
                for r in (1, 2, 3)
            ]
        for colors in ((1, 2, 1, 2, 1, 2), (1, 2, 2, 1, 2, 1)):
            f = Coloring(colors, 2)
            coloring = ["--coloring", write(tmp_path, f"f{''.join(map(str, colors))}.json", f.to_json())]
            cases += [(argv + coloring, sides, keys, scan_pairs(f)) for argv, sides, keys in leaves]
        for u, v, i, j in ((0, 3, 1, 2), (2, 2, 2, 2), (5, 1, 2, 1)):
            one = ["--u", str(u), "--v", str(v), "--i", str(i), "--j", str(j)]
            cases += [(argv + one, sides, keys, [(u, v, i, j)]) for argv, sides, keys in leaves]
    if which != "drg":
        point = write(tmp_path, "point.json", {"data": [[0]]})
        lone = ["--coloring", write(tmp_path, "f1.json", {"k": 1, "colors": [1]})]
        argv = ["--m", point, "--s", point, *(["--l", "2"] if which == "power" else []), *lone]
        cases.append((argv, [], [], []))
    seen = set()
    for argv, sides, keys, pairs in cases:
        rows = scan_rows(sides, keys, pairs)
        code, out = run(capsys, ["filter", which, *argv, "--format", fmt])
        assert out == (json_rows(rows) if fmt == "json" else text_rows(rows)), argv
        assert code == (1 if any(row["status"] == "infeasible" for row in rows) else 0), argv
        seen.update(row["status"] for row in rows)
        seen.update("fraction" for row in rows if "/" in row["rhs"])
        seen.add(len(pairs))
    assert {"feasible", "infeasible", "fraction", 1} <= seen
    assert (0 in seen) == (which != "drg")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_scan_prints_row_distances_past_the_int_digit_limit(tmp_path, capsys, fmt):
    # M^2 has 10^6000 on its diagonal: more digits than Python's default int-to-str limit of 4300
    big = 10**3000
    m = write(tmp_path, "m.json", {"data": [[0, big], [big, 0]]})
    s = write(tmp_path, "s.json", {"data": [[0, 2], [2, 0]]})
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = run(capsys, ["filter", "power", "--m", m, "--s", s, "--l", "2", "--coloring",
                             write(tmp_path, "f.json", {"k": 2, "colors": [1, 2]}), "--format", fmt])
    lhs = "2" + "0" * 6000
    row = dict(u=0, v=1, i=1, j=2, l=2, status="feasible", lhs=lhs, rhs="8", violated=None)
    assert (code, out) == (0, json_rows([row]) if fmt == "json" else text_rows([row]))
    code, out = run(capsys, ["filter", "power", "--m", s, "--s", m, "--l", "2",
                             "--u", "0", "--v", "1", "--i", "1", "--j", "2", "--format", fmt])
    violated = f"d(M rows 0,1) = 8 < {lhs} = d(S rows 1,2)"
    row = dict(u=0, v=1, i=1, j=2, l=2, status="infeasible", lhs="8", rhs=lhs, violated=violated)
    assert (code, out) == (1, json_rows([row]) if fmt == "json" else text_rows([row]))
    code, out, err = outcome(capsys, ["filter", "power", "--m", m, "--s", s, "--l", "2",
                                      "--u", "0", "--v", "2", "--i", "1", "--j", "2", "--format", fmt])
    assert (code, out, err) == (65, "", "invalid input: row index 2 out of range for 2x2 matrix\n")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


needs_digit_cap = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no cap on int to str digits"
)


@needs_digit_cap
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_one_row_filter_prints_results_past_the_int_digit_limit(tmp_path, capsys, fmt):
    # R has as many digits as the cap allows on input; lhs = rhs = 2R has one more
    limit = sys.get_int_max_str_digits()
    r = "6" + "0" * (limit - 1)
    s = tmp_path / "s.json"
    s.write_text(f'{{"data": [[{r}, 0], [0, {r}]]}}')
    code, out = run(capsys, ["filter", "simple", "--s", str(s), "--r", r, "--h", "0",
                             "--i", "1", "--j", "2", "--format", fmt])
    two_r = "12" + "0" * (limit - 1)
    row = dict(i=1, j=2, h=0, status="feasible", lhs=two_r, rhs=two_r, violated=None)
    assert (code, out) == (0, json_rows([row]) if fmt == "json" else text_rows([row]))
    assert sys.get_int_max_str_digits() == limit


@needs_digit_cap
@pytest.mark.parametrize("entry", ["1{}", '"1{}/3"'])
def test_input_files_past_the_int_digit_limit_stay_malformed(tmp_path, capsys, entry):
    limit = sys.get_int_max_str_digits()
    s = tmp_path / "s.json"
    big = entry.format("0" * limit)  # one digit past the cap, as an int or in a "p/q" string
    s.write_text(f'{{"data": [[{big}, 0], [0, {big}]]}}')
    code, out, err = outcome(capsys, ["filter", "simple", "--s", str(s), "--r", "1", "--h", "0",
                                      "--i", "1", "--j", "2"])
    assert (code, out) == (65, "")
    assert err.startswith(f"error: bad matrix in {s}: Exceeds the limit ({limit} digits)")
    assert sys.get_int_max_str_digits() == limit


@needs_digit_cap
def test_int_digit_limit_is_back_after_main_returns(tmp_path, capsys, monkeypatch):
    limit = sys.get_int_max_str_digits()
    s = write(tmp_path, "s.json", {"data": [[0, 2], [2, 0]]})
    argv = ["filter", "simple", "--s", s, "--r", "2", "--h", "0", "--i", "1", "--j", "2"]
    assert outcome(capsys, argv)[0] == 0
    assert outcome(capsys, [*argv[:-1], "3"])[0] == 65  # a color outside S
    assert outcome(capsys, [*argv, "--no-such-flag"])[0] == 64

    def fails(*_):
        raise RuntimeError("a fault in the handler")

    monkeypatch.setattr(cli, "simple_pair_bound", fails)
    with pytest.raises(RuntimeError):
        main(argv)
    assert (sys.get_int_max_str_digits(), cli._input_digits) == (limit, None)


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
def test_out_of_memory_exits_66_not_rejected(argv, handler, capfd, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, handler, exhausted)
    assert main(argv) == 66
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("out of memory: ")


def run_capped(argv: list[str], cap: int, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``perfcolor argv`` in a child process with ``cap`` bytes of address space."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "perfcolor", *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env, preexec_fn=limit, timeout=120)


def test_out_of_memory_under_an_address_space_cap_exits_66():
    # the message was printed, which allocates: MemoryError again, and exit 1, the code of a rejection;
    # the dense 3000-vertex cycle needs several hundred MB
    proc = run_capped(["graph", "cycle", "--n", "3000"], 100 * 10**6)
    assert proc.returncode == 66, proc.stderr
    assert "out of memory: " in proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_grid_reject_wide_window_under_an_address_space_cap(fmt):
    # the kept table holds only the differences within twice the offsets' radius, and the rows of
    # a window of 1500 (4.5 million, about 850 MB of JSON) are written as they are derived; a table
    # of every row needed over 400 MB
    argv = ["grid", "reject", "--grid", "square", "--b", "1", "--c", "1", "--window", "1500", "--format", fmt]
    proc = run_capped(argv, 60_000 * 1024, stdout=subprocess.PIPE if fmt == "text" else subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert fmt == "json" or proc.stdout == "overall: feasible\n"


def test_scan_under_an_address_space_cap_is_written_whole(tmp_path, capsys):
    # the C300 scan writes 16 MB of JSON; holding it whole before printing exhausted 80 MB
    argv = ["filter", "drg", "--graph", write(tmp_path, "c300.json", cycle(300).to_json()),
            "--s", write(tmp_path, "s.json", {"data": [[0, 2], [2, 0]]}), "--radius", "1",
            "--coloring", write(tmp_path, "f.json", {"k": 2, "colors": [1, 1, 2, 2] * 75}), "--format", "json"]
    code, out, _ = outcome(capsys, argv)
    assert code == 1
    proc = run_capped(argv, 80 * 10**6)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stdout == out


def test_census_with_a_long_connection_under_an_address_space_cap():
    # reach 10,000 makes the census band 20,001 vertices (60 kbit) wide: one band
    # kept per depth needed about 225 MB at T = 30,000, one band undone on backtrack fits
    proc = run_capped(["circulant", "enumerate", "--d", "1,10000", "--T", "30000", "--k", "1", "--format", "json"],
                      100 * 10**6)
    assert proc.returncode == 0, proc.stderr
    assert [e["coloring"]["colors"] for e in json.loads(proc.stdout)] == [[1] * 30000]


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


@pytest.mark.parametrize(
    "grid, b, c, budget",
    [
        (["--grid", "square"], 2, 2, None),  # feasible
        (["--grid", "square"], 4, 3, None),  # infeasible through the index-2 quotient
        (["--grid", "square"], 4, 3, 1),  # that quotient over the budget: inconclusive
        (["--grid", "square"], 4, 4, None),  # feasible, with a witness on the quotient
        (["--grid", "triangular"], 1, 1, None),
        (["--grid", "triangular"], 6, 6, None),
        (["--offsets", "1,0;0,1;1,2"], 1, 2, None),  # infeasible by rank 1
        (["--offsets", "1,0;0,1;1,2"], 0, 3, None),  # rank 1, inconclusive
        (["--offsets", "1,0;0,1;1,2"], 1, 1, 1),
    ],
)
def test_grid_reject_output_is_json_dumps_or_text_of_the_report(capsys, grid, b, c, budget):
    # the rows are rebuilt one difference at a time, with h and adjacency counted on the grid;
    # the overall verdict and note come from the report
    spec = periodic.GridSpec.parse(grid[1]) if grid[0] == "--offsets" else (
        periodic.GridSpec.square() if grid[1] == "square" else periodic.GridSpec.triangular())
    params = TwoColorParams(Fraction(b), Fraction(c), Fraction(spec.valency))
    budget_argv = [] if budget is None else ["--node-budget", str(budget)]
    budget_kw = {} if budget is None else {"node_budget": budget}
    for window in (None, 1, 2, 3, 4):
        w = 2 * spec.radius if window is None else window
        rows = []
        for delta in [(dx, dy) for dx in range(w + 1) for dy in range(-w, w + 1) if dx > 0 or dy > 0]:
            h, adjacent = grid_h_by_counting(spec.offsets, delta)
            rows.append((delta, h, adjacent, two_color_check(PairContext(params.r, h, adjacent), params)))
        report = periodic.grid_reject_2color(spec, params, window=window, **budget_kw)
        verdict = report.verdict
        obj = {
            "status": verdict.status.value, "violated": verdict.violated, "note": report.note,
            "monochromatic": [list(delta) for delta, _, _, v in rows if v.infeasible],
            "deltas": [{"delta": list(delta), "h": h, "adjacent": adjacent, **v.to_json()}
                       for delta, h, adjacent, v in rows],
        }
        lines = [f"overall: {verdict.status.value}", *filter(None, [verdict.violated, report.note])]
        lines += [f"delta {delta}: INFEASIBLE ({v.violated}); pairs forced monochromatic"
                  for delta, _, _, v in rows if v.infeasible]
        code = {"feasible": 0, "infeasible": 1, "inconclusive": 2}[verdict.status.value]
        argv = ["grid", "reject", *grid, "--b", str(b), "--c", str(c), *budget_argv,
                *([] if window is None else ["--window", str(window)])]
        assert run(capsys, [*argv, "--format", "json"]) == (code, json.dumps(obj, indent=2) + "\n"), argv
        assert run(capsys, argv) == (code, "\n".join(lines) + "\n"), argv


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
        # the single-pair window printed status=feasible for (5, 0) and exited 0, and
        # infeasible for (-1, 0) and exited 1, the code of a rejection
        (["filter", "two-color", "--r", "4", "--h", "1", "--b", "5", "--c", "0"],
         "target entry -1 in row 1, column 1 is negative"),
        (["filter", "two-color", "--r", "4", "--h", "1", "--b", "-1", "--c", "0"],
         "target entry -1 in row 1, column 2 is negative"),
    ],
)
def test_window_scan_target_outside_0_to_r_is_malformed(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (65, "")
    assert message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["filter", "simple", "--s", "S", "--r", "1/0", "--h", "1", "--i", "1", "--j", "2"],
        ["filter", "two-color", "--r", "1/0", "--h", "1", "--b", "1", "--c", "1"],
        ["filter", "two-color", "--r", "4", "--h", "1", "--b", "0/0", "--c", "1"],
        ["filter", "two-color", "--r", "4", "--h", "1", "--b", "1", "--c", "2/0"],
        ["circulant", "period-filter", "--d", "1,2,4", "--b", "1/0", "--c", "1", "--t-max", "8"],
        ["circulant", "period-filter", "--d", "1,2,4", "--b", "1", "--c", "1/0", "--t-max", "8"],
        ["grid", "reject", "--grid", "square", "--b", "1/0", "--c", "1"],
        ["grid", "reject", "--grid", "square", "--b", "1", "--c", "0/0"],
        ["grid", "torus-search", "--grid", "square", "--p", "2", "--q", "2", "--b", "1/0", "--c", "1"],
        ["grid", "torus-search", "--grid", "square", "--p", "2", "--q", "2", "--b", "1", "--c", "1/0"],
        ["grid", "patch-search", "--grid", "square", "--width", "3", "--height", "3",
         "--b", "1/0", "--c", "1"],
        ["grid", "patch-search", "--grid", "square", "--width", "3", "--height", "3",
         "--b", "1", "--c", "1/0"],
    ],
)
def test_zero_denominator_option_is_malformed(c4_files, capsys, argv):
    # Fraction("1/0") raised ZeroDivisionError: a traceback and exit 1, the code of a rejection
    argv = [c4_files[2] if a == "S" else a for a in argv]
    assert main(argv) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "zero denominator in" in captured.err


def test_zero_denominator_in_a_matrix_file_is_malformed(c4_files, tmp_path, capsys):
    graph, alt, s = c4_files
    bad = write(tmp_path, "bad.json", {"rows": 2, "cols": 2, "data": [[0, "2/0"], [2, 0]]})
    for argv in (
        ["verify", "--graph", graph, "--coloring", alt, "--s", bad],
        ["filter", "pair", "--m", bad, "--s", s, "--u", "0", "--v", "1", "--i", "1", "--j", "2"],
        ["filter", "drg", "--graph", graph, "--s", bad, "--radius", "1", "--coloring", alt],
        ["grid", "torus-search", "--grid", "square", "--p", "2", "--q", "2", "--s", bad],
    ):
        assert main(argv) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad matrix in {bad}: zero denominator in '2/0'" in captured.err


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"data": [[0, True], [True, 0]]}, "not an exact rational: True"),
        ({"rows": True, "data": [[0, 1]]}, "declared rows must be an integer, not True"),
    ],
)
def test_booleans_in_a_matrix_file_are_malformed(tmp_path, capsys, obj, message):
    # bool is an int: the first was read as [[0, 1], [1, 0]], the second as one declared row
    bad = write(tmp_path, "bool.json", obj)
    argv = ["filter", "pair", "--m", bad, "--s", bad, "--u", "0", "--v", "0", "--i", "1", "--j", "1"]
    assert main(argv) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: bad matrix in {bad}: {message}" in captured.err


@pytest.mark.parametrize("kind", ["matrix --s", "matrix --m", "graph", "coloring"])
def test_input_files_nested_too_deeply_are_malformed(c4_files, tmp_path, capsys, kind):
    # json raised RecursionError past ~1,000 levels, and it escaped as a traceback with exit 1
    graph, alt, s = c4_files
    deep = tmp_path / "deep.json"
    deep.write_text('{"data": ' + "[" * 1100 + "]" * 1100 + "}")
    argv = {
        "matrix --s": ["filter", "simple", "--s", str(deep), "--r", "2", "--h", "0", "--i", "1", "--j", "2"],
        "matrix --m": ["filter", "pair", "--m", str(deep), "--s", s, "--u", "0", "--v", "1", "--i", "1", "--j", "2"],
        "graph": ["verify", "--graph", str(deep), "--coloring", alt],
        "coloring": ["verify", "--graph", graph, "--coloring", str(deep)],
    }[kind]
    assert main(argv) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    # the json module's depth limit differs between Python versions: past it, the file cannot be read
    assert captured.err.startswith("error: ") and str(deep) in captured.err


def test_verify_float_colors_are_malformed(c4_files, tmp_path, capsys):
    # float colors passed Coloring's checks, and verify died indexing by one
    graph, _, _ = c4_files
    floats = write(tmp_path, "floats.json", {"k": 2, "colors": [1.0, 2.0, 1.0, 2.0]})
    assert main(["verify", "--graph", graph, "--coloring", floats]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad coloring in {floats}: colors must be integers" in captured.err


def test_boolean_k_is_malformed(tmp_path, capsys):
    # k = true passed Coloring's checks as k = 1
    graph = write(tmp_path, "c5.json", cycle(5).to_json())
    mono = write(tmp_path, "mono.json", {"k": True, "colors": [1, 1, 1, 1, 1]})
    assert main(["verify", "--graph", graph, "--coloring", mono]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad coloring in {mono}: k must be an integer, not True" in captured.err


@pytest.mark.parametrize(
    "simple, shown",
    [("false", "'false'"), (0, "0"), (1, "1"), ("true", "'true'")],
)
def test_non_boolean_simple_flag_is_malformed(tmp_path, capsys, simple, shown):
    # any truthy "simple" read as simple, and "simple": 0 made C5 "not distance-regular"
    s = write(tmp_path, "s.json", {"data": [[2]]})
    for name, obj in (
        ("adjacency.json", {**cycle(5).to_json(), "simple": simple}),
        ("edges.json", {"n": 5, "edges": [[v, (v + 1) % 5] for v in range(5)], "simple": simple}),
    ):
        graph = write(tmp_path, name, obj)
        assert main(["filter", "drg", "--graph", graph, "--s", s, "--radius", "1",
                     "--u", "0", "--v", "1", "--i", "1", "--j", "1"]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad graph in {graph}: simple must be true or false, not {shown}" in captured.err


@pytest.mark.parametrize("l", ["0", "-2"])
def test_filter_power_l_below_one_is_a_usage_error(c4_files, capsys, l):
    # the scan refused it as malformed input (65) after loading its files
    graph, alt, s = c4_files
    m = write_matrix_from_graph(graph)
    with pytest.raises(SystemExit) as err:
        main(["filter", "power", "--m", m, "--s", s, "--l", l, "--coloring", alt])
    assert err.value.code == 64
    assert f"--l: must be at least 1, not {l}" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["0", "-1"])
def test_filter_drg_radius_below_one_is_a_usage_error(c4_files, capsys, radius):
    # the scan refused it as malformed input (65) after loading its files
    graph, alt, s = c4_files
    with pytest.raises(SystemExit) as err:
        main(["filter", "drg", "--graph", graph, "--s", s, "--radius", radius, "--coloring", alt])
    assert err.value.code == 64
    assert f"--radius: must be at least 1, not {radius}" in capsys.readouterr().err


def test_filter_drg_radius_above_the_diameter_is_malformed_input(c4_files, capsys):
    # the diameter comes from the graph file, so a radius past it is refused with the input
    graph, alt, s = c4_files
    assert main(["filter", "drg", "--graph", graph, "--s", s, "--radius", "3", "--coloring", alt]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: radius must be in 1..2\n"


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


@pytest.mark.parametrize("patch_max", ["0", "-1"])
def test_repro_patch_max_below_one_is_a_usage_error(capsys, patch_max):
    # no patch at all printed FAIL rows and "8/10 checks passed", and exited 1 as a rejection
    with pytest.raises(SystemExit) as err:
        main(["repro", "--patch-max", patch_max])
    assert err.value.code == 64
    assert f"--patch-max: must be at least 1, not {patch_max}" in capsys.readouterr().err


@pytest.mark.parametrize("t_max", ["0", "-3"])
def test_period_filter_t_max_below_one_is_a_usage_error(capsys, t_max):
    # an empty range of shifts printed "no period constraint in range" and exited 0
    with pytest.raises(SystemExit) as err:
        main(["circulant", "period-filter", "--d", "1,2,4", "--b", "1", "--c", "1", "--t-max", t_max])
    assert err.value.code == 64
    assert f"--t-max: must be at least 1, not {t_max}" in capsys.readouterr().err


SIZE_OPTIONS = [
    (["grid", "torus-search", "--grid", "square", "--b", "1", "--c", "1", "--q", "3"], "--p"),
    (["grid", "torus-search", "--grid", "square", "--b", "1", "--c", "1", "--p", "3"], "--q"),
    (["grid", "patch-search", "--grid", "square", "--b", "1", "--c", "1", "--height", "3"], "--width"),
    (["grid", "patch-search", "--grid", "square", "--b", "1", "--c", "1", "--width", "3"], "--height"),
    (["circulant", "quotient", "--d", "1"], "--T"),
    (["circulant", "enumerate", "--d", "1", "--k", "2"], "--T"),
    (["circulant", "enumerate", "--d", "1", "--T", "4"], "--k"),
    (["circulant", "h", "--d", "1"], "--t"),
]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "argv, option", SIZE_OPTIONS, ids=[f"{argv[1]}{option}" for argv, option in SIZE_OPTIONS]
)
def test_sizes_below_one_are_usage_errors(capsys, argv, option, value):
    # each was refused as malformed input (65) by the library's ValueError
    with pytest.raises(SystemExit) as err:
        main([*argv, option, value])
    assert err.value.code == 64
    assert f"{option}: must be at least 1, not {value}" in capsys.readouterr().err


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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_during_a_scan_keeps_the_verdict_exit_code(tmp_path, capsys, fmt):
    # `filter drg --coloring ... | head -n 1`: the scan writes more than a pipe holds, and its
    # reader leaves after the first line
    argv = ["filter", "drg", "--graph", write(tmp_path, "c40.json", cycle(40).to_json()),
            "--s", write(tmp_path, "s.json", {"data": [[0, 2], [2, 0]]}), "--radius", "1",
            "--coloring", write(tmp_path, "f.json", {"k": 2, "colors": [1, 1, 2, 2] * 10}), "--format", fmt]
    code, out, _ = outcome(capsys, argv)
    assert code == 1 and len(out) > 2**16  # a pipe holds 64 KiB by default
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfcolor", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert proc.stdout.readline().decode() == out.splitlines(keepends=True)[0]
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


# --- the exit-code contract, over every leaf and option of the parser --------------

_EDGE_VALUES = ["0", "-1", "1/2", "1/0", "x"]
_SIZES = [*_EDGE_VALUES, "1", "2", "3", "4", "5", "6"]  # small: `graph complete --n 100000` alone exhausts memory
_OPTION_VALUES = {
    **dict.fromkeys(("n", "T", "p", "q", "width", "height", "k", "t", "radius", "l", "t_max", "patch_max"), _SIZES),
    "window": [*_EDGE_VALUES, "1", "2", "3"],
    # 5 and 7 exceed the valencies of the square and triangular grids
    **dict.fromkeys(("b", "c", "r", "h", "u", "v", "i", "j"), [*_EDGE_VALUES, "1", "2", "3", "5", "7"]),
    "d": ["1", "1,2,4", "2,3", "1,1", "0", "-1", "1/2", "x"],
    "delta": ["1,1", "2,0", "0,0", "1", "x"],
    "offsets": ["1,0;0,1", "1,0;0,1;1,-1", "0,0", "1,0", "x"],
    "node_budget": ["0", "1", "50"],
}
_FILE_OPTIONS = ("graph", "coloring", "s", "m")
_CONTRACT_LEAVES = dict(_leaves(cli.build_parser()))


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """Graph, coloring and matrix files: valid ones, then mistyped, ragged, malformed and missing ones."""
    root = tmp_path_factory.mktemp("inputs")
    c5 = cycle(5).to_json()
    objects = [
        c5,
        petersen().to_json(),
        cycle(4).to_json(),
        {"k": 1, "colors": [1] * 5},
        {"k": 2, "colors": [1, 2, 1, 2]},
        {"k": 2, "colors": [1, 2, 2, 1, 1, 2, 2, 1, 1, 2]},
        {"rows": 1, "cols": 1, "data": [[2]]},
        {"data": [[0, 2], [2, 0]]},
        {"data": [[0, 3, 0], [1, 0, 2], [0, 1, 2]]},
        {"data": [["1/2", "3/2"], [1, 1]]},
        cycle(5).adjacency.to_json(),
        {"adjacency": {"data": [[0, "1/2"], ["1/2", 0]]}, "simple": False},
        {"adjacency": {"data": [[0, -1], [-1, 0]]}},
        # mistyped
        {"k": True, "colors": [1] * 5},
        {"k": "2", "colors": [1, 2, 1, 2]},
        {"k": 2, "colors": [1.0, 2.0, 1.0, 2.0]},
        {**c5, "simple": "false"},
        {**c5, "simple": 0},
        {"n": 5, "edges": [[0, 1]], "simple": "yes"},
        {"n": "3", "edges": []},
        {"data": [[1.5]]},
        {"data": "x"},
        {"data": [["1/0"]]},
        None,
        [],
        "x",
        5,
        # ragged
        {"data": [[1, 2], [3]]},
        {"rows": 3, "cols": 2, "data": [[1, 2], [3, 4]]},
        {"adjacency": {"data": [[0, 1], [1]]}},
        {"n": 3, "edges": [[0]]},
        {"k": 2, "colors": []},
    ]
    paths = [write(root, f"{n}.json", obj) for n, obj in enumerate(objects)]
    for name, text in (("truncated.json", '{"k": 2, "colors": [1,'), ("empty.json", "")):
        (root / name).write_text(text)
        paths.append(str(root / name))
    return [*paths, str(root / "missing.json")]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_leaf_keeps_the_exit_code_contract(input_files, capsys, data):  # capsys is read out per example
    path = data.draw(st.sampled_from(sorted(_CONTRACT_LEAVES)))
    argv = list(path)
    for action in _CONTRACT_LEAVES[path]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._StoreTrueAction):
            if data.draw(st.booleans()):
                argv.append(action.option_strings[0])
            continue
        if action.choices is not None:
            values = list(action.choices)
        elif action.dest in _FILE_OPTIONS:
            values = input_files
        else:
            values = _OPTION_VALUES[action.dest]  # a new option needs its edge values here
        given_always = action.required or not action.option_strings or action.dest in ("format", "node_budget")
        if given_always or data.draw(st.booleans()):
            argv += [*action.option_strings[:1], data.draw(st.sampled_from(values))]
    code, out, err = outcome(capsys, argv)
    assert code in {0, 1, 2, 64, 65, 66}, (argv, code)
    assert "Traceback" not in err, argv
    if code in (1, 2):  # a rejection or an inconclusive search prints its verdict
        assert out.strip(), argv
