"""Bundled end-to-end suite over the square grid, triangular grid, and C(1,2,4).

Each item re-derives one published existence or nonexistence statement
with the package's own machinery and reports pass/fail plus a short
explanation of what was computed.  The CLI exposes this as ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .coloring import TwoColorParams, induced_parameters
from .filters import PairContext, two_color_check
from .periodic import (
    CirculantSpec,
    EnumeratedColoring,
    GridSpec,
    SearchStatus,
    circulant_enumerate,
    circulant_h,
    circulant_period_filter,
    grid_reject_2color,
    patch_search,
    periodic_coloring_canonical,
    torus_quotient,
    torus_search,
)

__all__ = ["ReproItem", "run_suite", "minimal_rejecting_patch"]

SEVEN_ABSENT_PAIRS = ((1, 1), (2, 1), (5, 4), (5, 5), (6, 4), (6, 5), (6, 6))


@dataclass(frozen=True)
class ReproItem:
    name: str
    passed: bool
    detail: str


def _params(b: int, c: int, r: int) -> TwoColorParams:
    return TwoColorParams(Fraction(b), Fraction(c), Fraction(r))


def minimal_rejecting_patch(
    spec: GridSpec, b: int, c: int, max_side: int = 8
) -> tuple[int, int] | None:
    """Smallest square patch (side by side) whose search comes back REJECTED."""
    for side in range(3, max_side + 1):
        outcome = patch_search(spec, (b, c), (side, side))
        if outcome.status is SearchStatus.REJECTED:
            return (side, side)
    return None


def square_grid_diagonal_rejection() -> ReproItem:
    spec = GridSpec.square()
    report = grid_reject_2color(spec, _params(4, 3, 4))
    diag = next(d for d in report.per_delta if d.delta == (1, 1))
    ok = (
        diag.verdict.infeasible
        and diag.verdict.lhs == 7
        and diag.verdict.rhs == 6
        and report.verdict.infeasible
    )
    return ReproItem(
        "square grid: no (4,3)-coloring (window scan)",
        ok,
        f"delta (1,1): h={diag.h}, b+c={diag.verdict.lhs} > {diag.verdict.rhs}=2r-h; "
        f"overall: {report.verdict.status.value}",
    )


def square_grid_patch_rejection(max_side: int = 8) -> ReproItem:
    patch = minimal_rejecting_patch(GridSpec.square(), 4, 3, max_side)
    return ReproItem(
        "square grid: no (4,3)-coloring (patch search)",
        patch is not None,
        f"minimal rejecting patch: {patch[0]}x{patch[1]}" if patch else "no rejection found",
    )


def triangular_window() -> ReproItem:
    ctx = PairContext(Fraction(6), 2, adjacent=True)
    rejected = set()
    for b in range(1, 7):
        for c in range(1, 7):
            if two_color_check(ctx, _params(b, c, 6)).infeasible:
                rejected.add((b, c))
    expected = {(b, c) for b in range(1, 7) for c in range(1, 7) if b + c < 4 or b + c > 10}
    named = {(1, 1), (2, 1), (6, 5), (6, 6)}
    ok = rejected == expected and named <= rejected
    return ReproItem(
        "triangular grid: window 4 <= b+c <= 10 for adjacent pairs",
        ok,
        f"{len(rejected)} pairs rejected, including {sorted(named)}",
    )


def triangular_boundary_rejections(max_side: int = 8) -> ReproItem:
    spec = GridSpec.triangular()
    patches = {}
    for b, c in ((3, 1), (5, 5), (6, 4)):
        patches[(b, c)] = minimal_rejecting_patch(spec, b, c, max_side)
    ok = all(p is not None for p in patches.values())
    detail = "; ".join(
        f"({b},{c}): " + (f"{p[0]}x{p[1]}" if p else "not rejected")
        for (b, c), p in patches.items()
    )
    return ReproItem("triangular grid: no (3,1)-, (5,5)-, (6,4)-colorings", ok, detail)


def triangular_22_witness() -> ReproItem:
    spec = GridSpec.triangular()
    outcome = torus_search(spec, (4, 1), (2, 2), find_all=True)
    ok = outcome.status is SearchStatus.WITNESS
    if ok:
        quotient = torus_quotient(spec, (4, 1))
        target = _params(2, 2, 6).matrix()
        ok = all(induced_parameters(quotient, w) == target for w in outcome.witnesses)
    return ReproItem(
        "triangular grid: a (2,2)-coloring exists with periods (4,1)",
        ok,
        f"{len(outcome.witnesses)} verified witness(es) on the 4x1 torus",
    )


def triangular_22_uniqueness() -> ReproItem:
    """All small-period (2,2)-colorings are one pattern up to lattice motions.

    Equivalence used: translations, color renaming, and the point
    symmetries of the lattice (the linear maps permuting the offset set).
    The point symmetries are necessary: the stripe pattern along x found at
    periods (4,1) and the stripe along y found at (1,4) are genuinely not
    translates of one another.
    """
    spec = GridSpec.triangular()
    periods = range(1, 5)
    modulus = lcm(*periods)
    forms = set()
    count = 0
    for p in periods:
        for q in periods:
            outcome = torus_search(spec, (p, q), (2, 2), find_all=True)
            for w in outcome.witnesses:
                count += 1
                forms.add(
                    periodic_coloring_canonical(spec, (p, q), w, modulus=modulus)
                )
    ok = count > 0 and len(forms) == 1
    return ReproItem(
        "triangular grid: the (2,2)-coloring is unique for periods up to 4",
        ok,
        f"{count} witnesses across all period pairs, {len(forms)} pattern class(es)",
    )


def circulant_common_neighbors() -> ReproItem:
    h = circulant_h(CirculantSpec((1, 2, 4)), 3)
    return ReproItem("C(1,2,4): pairs at distance 3 share 4 common neighbors", h == 4, f"h = {h}")


def circulant_period_constraints() -> ReproItem:
    spec = CirculantSpec((1, 2, 4))
    bad = []
    for b in range(1, 7):
        for c in range(1, 7):
            if not (b + c < 4 or b + c > 8):
                continue
            constraint = circulant_period_filter(spec, _params(b, c, 6), t_max=3)
            if 3 not in constraint.fired or constraint.divides == 0 or 3 % constraint.divides:
                bad.append((b, c))
    return ReproItem(
        "C(1,2,4): b+c outside [4,8] forces the period to divide 3",
        not bad,
        "all such (b,c) constrained" if not bad else f"unconstrained: {bad}",
    )


def _period3_census() -> tuple[tuple[EnumeratedColoring, ...], set[tuple[Fraction, Fraction]]]:
    """The period-3 census of C(1,2,4) in at most two colors, and its two-color (b, c), larger first."""
    found = circulant_enumerate(CirculantSpec((1, 2, 4)), 3, 2)
    pairs = {tuple(sorted((e.s[0, 1], e.s[1, 0]), reverse=True)) for e in found if e.coloring.k == 2}
    return found, pairs


def circulant_period3_census(
    found: tuple[EnumeratedColoring, ...], pairs: set[tuple[Fraction, Fraction]]
) -> ReproItem:
    mono = [e for e in found if e.coloring.k == 1]
    ok = len(found) == 2 and len(mono) == 1 and pairs == {(Fraction(6), Fraction(3))}
    return ReproItem(
        "C(1,2,4): period-3 colorings are the monochromatic one and a (6,3)-coloring",
        ok,
        f"{len(found)} colorings; two-color parameter pairs {sorted(pairs)}",
    )


def circulant_seven_nonexistent(census: set[tuple[Fraction, Fraction]]) -> ReproItem:
    """Combine the period constraint with the period-3 census's two-color (b, c).

    A (b,c)-coloring with b+c < 4 or b+c > 8 must have period dividing 3,
    hence be 3-periodic, hence appear in the period-3 census.  None of the
    seven pairs does, so none of those colorings exists in C(1,2,4).
    """
    spec = CirculantSpec((1, 2, 4))
    failures = []
    for b, c in SEVEN_ABSENT_PAIRS:
        constraint = circulant_period_filter(spec, _params(b, c, 6), t_max=3)
        constrained = 3 in constraint.fired
        present = tuple(sorted((Fraction(b), Fraction(c)), reverse=True)) in census
        if not constrained or present:
            failures.append((b, c))
    return ReproItem(
        "C(1,2,4): the seven excluded (b,c) pairs have no perfect coloring",
        not failures,
        "all seven ruled out" if not failures else f"not ruled out: {failures}",
    )


def run_suite(max_patch_side: int = 8) -> list[ReproItem]:
    found, pairs = _period3_census()
    return [
        square_grid_diagonal_rejection(),
        square_grid_patch_rejection(max_patch_side),
        triangular_window(),
        triangular_boundary_rejections(max_patch_side),
        triangular_22_witness(),
        triangular_22_uniqueness(),
        circulant_common_neighbors(),
        circulant_period_constraints(),
        circulant_period3_census(found, pairs),
        circulant_seven_nonexistent(pairs),
    ]
