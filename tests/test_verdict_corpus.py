"""The verdict corpora: every search in data/verdicts-2color.txt and verdicts-3color.txt, run again.

A two-color line is one search of a (b, c) target on the square or triangular grid, for
every integer b and c in 0..r: a window (patch search) or a p x q torus (torus search).
A three-color line is one window search of an explicit, so unpinned, 3x3 target S (see
``three_color_targets``) on a 4x4, 5x5 or 6x6 window.  Both run at a budget of 10**6
nodes.  A line holds the status and whether the search completed, and no node count, so
the files stand while pruning or the order of the cells changes and no verdict moves.
To write a file from the engine, for a change that means to move a verdict, and so
shows it as a diff:

    PYTHONPATH=src python tests/test_verdict_corpus.py 2 > tests/data/verdicts-2color.txt
    PYTHONPATH=src python tests/test_verdict_corpus.py 3 > tests/data/verdicts-3color.txt
"""

import sys
from collections import Counter
from itertools import permutations, product
from pathlib import Path

from helpers import window_by_coordinates

from perfcolor.coloring import make_triple, two_color_matrix, verify_perfect
from perfcolor.periodic import (
    GridSpec,
    SearchStatus,
    _backtrack,
    _window,
    patch_search,
    torus_quotient,
    torus_search,
)
from perfcolor.ratmat import RationalMatrix

CORPUS = Path(__file__).parent / "data" / "verdicts-2color.txt"
CORPUS_3 = Path(__file__).parent / "data" / "verdicts-3color.txt"
BUDGET = 10**6
GRIDS = {"square": GridSpec.square(), "triangular": GridSpec.triangular()}
WINDOWS = [(n, n) for n in range(3, 9)] + [(4, 6), (6, 4), (5, 8), (8, 5)]
WINDOWS_3 = [(n, n) for n in range(4, 7)]
TORI = list(product(range(1, 6), repeat=2))


def searches():
    """(grid, (b, c), kind, size, outcome) for each line of the corpus, in its order."""
    for grid, spec in GRIDS.items():
        for bc in product(range(spec.valency + 1), repeat=2):
            for size in WINDOWS:
                yield grid, bc, "window", size, patch_search(spec, bc, size, node_budget=BUDGET)
            for size in TORI:
                yield grid, bc, "torus", size, torus_search(spec, size, bc, node_budget=BUDGET)


def line(grid, bc, kind, size, outcome) -> str:
    completed = "complete" if outcome.stats.complete else "incomplete"
    return f"{grid} {bc[0]} {bc[1]} {kind} {size[0]}x{size[1]} {outcome.status.value} {completed}"


def three_color_targets(r):
    """Each 3x3 S of non-negative integers with rows summing to r that a perfect coloring
    of a connected grid could have, one per renaming of the colors (the least of its six).

    s_ij > 0 exactly when s_ji > 0, the graph of colors joined by a positive entry is
    connected, and s12 s23 s31 = s13 s32 s21, as color densities d_i s_ij = d_j s_ji force.
    """
    rows = [row for row in product(range(r + 1), repeat=3) if sum(row) == r]
    for s in product(rows, repeat=3):
        support = {(i, j) for i, j in product(range(3), repeat=2) if i != j and s[i][j]}
        if any((j, i) not in support for i, j in support) or len(support) < 4:
            continue  # on three colors a symmetric support is connected when it joins two pairs
        if s[0][1] * s[1][2] * s[2][0] != s[0][2] * s[2][1] * s[1][0]:
            continue
        if s == min(tuple(tuple(s[i][j] for j in p) for i in p) for p in permutations(range(3))):
            yield s


def searches_3():
    """(grid, S, size, outcome) for each line of the three-color corpus, in its order."""
    for grid, spec in GRIDS.items():
        for s in three_color_targets(spec.valency):
            for size in WINDOWS_3:
                yield grid, s, size, patch_search(spec, RationalMatrix(s), size, node_budget=BUDGET)


def line_3(grid, s, size, outcome) -> str:
    completed = "complete" if outcome.stats.complete else "incomplete"
    matrix = ";".join(",".join(map(str, row)) for row in s)
    return f"{grid} {matrix} {size[0]}x{size[1]} {outcome.status.value} {completed}"


def window_coloring_recounts(spec, size, s) -> bool:
    """Whether the engine's first unpinned coloring of the window meets S, counted cell by cell.

    Cell (x, y) is y*width + x, as in ``_window``.  The offsets are closed under negation, so
    the constrained cells a cell sees are those that see it.
    """
    found, _, complete, _ = _backtrack(s, _window(spec, *size), node_budget=BUDGET)
    assert complete and found
    colors = found[0]
    _, interior, targets = window_by_coordinates(spec.offsets, *size)
    seen = [Counter() for _ in colors]
    for u, sees in enumerate(targets):
        for w, weight in sees:
            seen[w][colors[u]] += weight
    js = range(1, s.rows + 1)
    return all([seen[w][j] for j in js] == [s[colors[w] - 1, j - 1] for j in js] for w in interior)


def test_every_verdict_of_the_corpus_holds():
    got = []
    for grid, bc, kind, size, outcome in searches():
        got.append(line(grid, bc, kind, size, outcome))
        spec = GRIDS[grid]
        s = two_color_matrix(*bc, spec.valency)
        if outcome.witness is not None:  # a torus witness, checked on the quotient's dense graph
            assert verify_perfect(make_triple(torus_quotient(spec, size), outcome.witness, s)).ok
        elif kind == "window" and outcome.status is SearchStatus.INCONCLUSIVE:
            assert window_coloring_recounts(spec, size, s), got[-1]
    assert got == CORPUS.read_text().splitlines()


def test_every_three_color_verdict_of_the_corpus_holds():
    got = []
    for grid, s, size, outcome in searches_3():
        got.append(line_3(grid, s, size, outcome))
        if outcome.status is SearchStatus.INCONCLUSIVE:
            assert window_coloring_recounts(GRIDS[grid], size, RationalMatrix(s)), got[-1]
    assert got == CORPUS_3.read_text().splitlines()


if __name__ == "__main__":
    if sys.argv[1:] == ["3"]:
        for search in searches_3():
            print(line_3(*search))
    else:
        for search in searches():
            print(line(*search))
