#!/usr/bin/env python3
"""Sweep (b,c) targets on the square and triangular grids for patch rejections.

For every parameter pair inside the basic valency bounds, reports the
smallest square patch (up to --max-side) on which the exhaustive window
search proves nonexistence, or '-' when no patch that small rejects.
Pairs the window filter already kills are marked 'window'.  Useful for
seeing how far the patch argument reaches beyond the closed-form bounds.

Usage: python scripts/minimal_patches.py [--grid square|triangular] [--max-side 8]
"""

import argparse
from fractions import Fraction

from perfcolor.coloring import TwoColorParams
from perfcolor.periodic import GridSpec, grid_reject_2color
from perfcolor.repro import minimal_rejecting_patch


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", choices=("square", "triangular"), default="triangular")
    parser.add_argument("--max-side", type=int, default=8)
    args = parser.parse_args()

    spec = GridSpec.square() if args.grid == "square" else GridSpec.triangular()
    r = spec.valency
    print(f"{args.grid} grid (valency {r}); smallest rejecting patch per (b,c), b >= c")
    for b in range(1, r + 1):
        for c in range(1, b + 1):
            params = TwoColorParams(Fraction(b), Fraction(c), Fraction(r))
            window = grid_reject_2color(spec, params)
            if window.verdict.infeasible:
                verdict = "window"
            else:
                patch = minimal_rejecting_patch(spec, b, c, args.max_side)
                verdict = f"{patch[0]}x{patch[1]}" if patch else "-"
            print(f"  ({b},{c}): {verdict}")


if __name__ == "__main__":
    main()
