"""The two-color verdict corpus: every search in data/verdicts-2color.txt, run again.

A line is one search of a (b, c) target on the square or triangular grid, for every
integer b and c in 0..r: a window (patch search) or a p x q torus (torus search), at a
budget of 10**6 nodes.  It holds the status and whether the search completed, and no
node count, so the file stands while pruning or the order of the cells changes and no
verdict moves.  To write the file from the engine, for a change that means to move a
verdict, and so shows it as a diff:

    PYTHONPATH=src python tests/test_verdict_corpus.py > tests/data/verdicts-2color.txt
"""

from collections import Counter
from itertools import product
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

CORPUS = Path(__file__).parent / "data" / "verdicts-2color.txt"
BUDGET = 10**6
GRIDS = {"square": GridSpec.square(), "triangular": GridSpec.triangular()}
WINDOWS = [(n, n) for n in range(3, 9)] + [(4, 6), (6, 4), (5, 8), (8, 5)]
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
    return all(
        [seen[w][j] for j in (1, 2)] == [s[colors[w] - 1, j - 1] for j in (1, 2)] for w in interior
    )


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


if __name__ == "__main__":
    for search in searches():
        print(line(*search))
