"""Rejection filters for putative parameter matrices.

Every check here is a *necessary* condition: INFEASIBLE rules the
configuration out, FEASIBLE only means "not rejected" and never proves
that a coloring exists.  The core inequality is that the L1 distance
between two adjacency rows bounds the L1 distance between the matching
parameter rows from above:

    d([M]^u, [M]^v) >= d([S]^{f(u)}, [S]^{f(v)}).

For a simple r-regular graph the left side equals 2(r - h), where h is the
number of common neighbors of u and v, which gives the simple-graph bound
d([S]^i, [S]^j) <= 2(r - h).  For two colors this becomes the window
h <= b + c <= 2r - h, sharpened to h + 2 <= b + c when u and v are
adjacent.

Since M P = P S gives p(M) P = P p(S) for every polynomial p, the bound
holds for rows of p(M) against rows of p(S) too: the power (p = x^l) and
distance-regular (ball and sphere polynomials) checks are that one
inequality on other matrix pairs, each a ``Side`` of ``row_distance_scan``.

Vertex indices are 0-based, color indices 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import sub
from typing import Iterable, NamedTuple, Sequence

from .coloring import TwoColorParams
from .graphs import Graph, distance_polynomials, distance_table, intersection_array
from .ratmat import RationalMatrix, l1_row_distance, rat

__all__ = [
    "FilterVerdict",
    "ForcedSets",
    "PairContext",
    "Side",
    "VerdictStatus",
    "drg_check",
    "drg_sides",
    "distance_power_check",
    "row_distance_scan",
    "simple_pair_bound",
    "two_color_check",
    "two_color_forced_sets",
]


class VerdictStatus(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class FilterVerdict:
    """Outcome of one rejection test, with both sides kept as exact rationals."""

    status: VerdictStatus
    lhs: Fraction | None = None
    rhs: Fraction | None = None
    violated: str | None = None

    def __post_init__(self) -> None:
        if self.status is VerdictStatus.INFEASIBLE and not self.violated:
            raise ValueError("an INFEASIBLE verdict must name the violated inequality")

    @property
    def feasible(self) -> bool:
        return self.status is VerdictStatus.FEASIBLE

    @property
    def infeasible(self) -> bool:
        return self.status is VerdictStatus.INFEASIBLE

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "lhs": None if self.lhs is None else str(self.lhs),
            "rhs": None if self.rhs is None else str(self.rhs),
            "violated": self.violated,
        }


@dataclass(frozen=True)
class PairContext:
    """Valency r, common-neighbor count h, and adjacency of a vertex pair.

    The bounds of the pair's two-color window on b+c are prepared with it:
    ``low`` (h), ``low_adjacent`` (h+2, the lower bound of an adjacent pair)
    and ``high`` (2r-h).
    """

    r: Fraction
    h: int
    adjacent: bool
    low: Fraction = field(init=False, repr=False, compare=False)
    low_adjacent: Fraction = field(init=False, repr=False, compare=False)
    high: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", rat(self.r))
        if self.h < 0 or self.h > self.r:
            raise ValueError("h must satisfy 0 <= h <= r")
        if self.adjacent and self.h > self.r - 1:
            raise ValueError("an adjacent pair has at most r - 1 common neighbors")
        object.__setattr__(self, "low", Fraction(self.h))
        object.__setattr__(self, "low_adjacent", Fraction(self.h + 2))
        object.__setattr__(self, "high", 2 * self.r - self.h)


class Side(NamedTuple):
    """One matrix pair of the row-distance bound d(X_u, X_v) >= d(Y_i, Y_j).

    ``graph`` is X, indexed by vertices; ``params`` is Y, indexed by colors;
    ``wording`` is the violated inequality, a format string over u, v, i, j,
    lhs and rhs.  The default wording is that of M against S.
    """

    graph: RationalMatrix
    params: RationalMatrix
    wording: str = "d(M rows {u},{v}) = {lhs} < {rhs} = d(S rows {i},{j})"


def row_distance_scan(
    sides: Sequence[Side], pairs: Iterable[tuple[int, int, int, int]]
) -> list[FilterVerdict]:
    """The row-distance verdict of every side for every (u, v, i, j), pair-major, side-minor.

    d(X_u, X_v) is one integer sum over the integer rows of X, with no
    ``Fraction``; d(Y_i, Y_j) is computed once per side and color pair of
    this call, and one that raises stores nothing.  A bad vertex is named
    before a bad color.  On each side, FEASIBLE verdicts with equal (lhs, rhs)
    are one object; an INFEASIBLE verdict names its pair, so each is its own.
    """
    # per side: X, its integer rows over d, Y, the wording, (rhs, rhs * d as p / q) by color
    # pair, and FEASIBLE verdicts by (lhs * d, p, q)
    scans = [(x, *x.integer_form(), y, wording, {}, {}) for x, y, wording in sides]
    verdicts = []
    for u, v, i, j in pairs:
        for x, ints, d, y, wording, rhs_of, feasible in scans:
            if not (0 <= u < len(ints) and 0 <= v < len(ints)):
                x.row(u), x.row(v)  # raises the IndexError that names the vertex
            known = rhs_of.get((i, j))
            if known is None:
                rhs = l1_row_distance(y, i - 1, j - 1)
                known = rhs_of[i, j] = (rhs, rhs.numerator * d, rhs.denominator)
            rhs, p, q = known
            lhs = sum(map(abs, map(sub, ints[u], ints[v])))
            if lhs * q < p:
                lhs = Fraction(lhs, d)
                verdicts.append(FilterVerdict(
                    VerdictStatus.INFEASIBLE, lhs, rhs,
                    wording.format(u=u, v=v, i=i, j=j, lhs=lhs, rhs=rhs),
                ))
            else:
                verdict = feasible.get((lhs, p, q))
                if verdict is None:
                    verdict = feasible[lhs, p, q] = FilterVerdict(VerdictStatus.FEASIBLE, Fraction(lhs, d), rhs)
                verdicts.append(verdict)
    return verdicts


def simple_pair_bound(ctx: PairContext, s: RationalMatrix, i: int, j: int) -> FilterVerdict:
    """Simple-graph form: d([S]^i, [S]^j) must be at most 2(r - h)."""
    for idx, total in enumerate(s.row_sums()):
        if total != ctx.r:
            raise ValueError(f"row {idx} of S sums to {total}, expected r = {ctx.r}")
    lhs = l1_row_distance(s, i - 1, j - 1)
    rhs = 2 * (ctx.r - ctx.h)
    if lhs > rhs:
        return FilterVerdict(
            VerdictStatus.INFEASIBLE,
            lhs,
            rhs,
            f"d(S rows {i},{j}) = {lhs} > {rhs} = 2(r - h)",
        )
    return FilterVerdict(VerdictStatus.FEASIBLE, lhs, rhs)


def two_color_check(ctx: PairContext, params: TwoColorParams) -> FilterVerdict:
    """Window check h <= b+c <= 2r-h, with h+2 <= b+c for adjacent pairs.

    Applies to a pair of *differently colored* vertices; INFEASIBLE means
    such a pair cannot exist, i.e. the two endpoints are forced to share a
    color in every perfect coloring with these parameters.  The bounds come
    prepared with ``ctx`` and b+c with ``params``, and each comparison is
    made on cross-multiplied integers.
    """
    if params.r != ctx.r:
        raise ValueError(f"parameter valency {params.r} differs from pair valency {ctx.r}")
    bc = params.b_plus_c
    p, q = bc.numerator, bc.denominator
    if p < ctx.h * q:
        return FilterVerdict(
            VerdictStatus.INFEASIBLE, bc, ctx.low, f"b+c = {bc} < {ctx.low} = h"
        )
    if ctx.adjacent and p < (ctx.h + 2) * q:
        low = ctx.low_adjacent
        return FilterVerdict(
            VerdictStatus.INFEASIBLE, bc, low, f"b+c = {bc} < {low} = h+2 (adjacent pair)"
        )
    high = ctx.high
    if p * high.denominator > high.numerator * q:
        return FilterVerdict(
            VerdictStatus.INFEASIBLE, bc, high, f"b+c = {bc} > {high} = 2r-h"
        )
    return FilterVerdict(VerdictStatus.FEASIBLE, bc, high)


@dataclass(frozen=True)
class ForcedSets:
    """Monochromatic side sets at a window boundary, for u of color 1, v of color 2.

    ``excludes_endpoints`` marks the adjacent lower boundary, where the
    forcing applies to N(u) \\ (N(v) + {v}) and N(v) \\ (N(u) + {u}); at the
    other boundaries the endpoints already carry the forced color.
    """

    only_u_color: int
    only_v_color: int
    excludes_endpoints: bool
    bound: str  # "lower" | "adjacent-lower" | "upper"


def two_color_forced_sets(ctx: PairContext, params: TwoColorParams) -> ForcedSets | None:
    """Forced side-set colors when b+c sits on a boundary of its window.

    At b+c = h the sets N(u) \\ N(v) and N(v) \\ N(u) take the colors of u
    and v respectively; at b+c = 2r-h the colors swap.  For adjacent pairs
    the effective lower boundary is b+c = h+2, and the forcing then applies
    to the side sets with the opposite endpoint removed.
    """
    if params.r != ctx.r:
        raise ValueError(f"parameter valency {params.r} differs from pair valency {ctx.r}")
    bc = params.b + params.c
    if bc == 2 * ctx.r - ctx.h:
        return ForcedSets(2, 1, excludes_endpoints=False, bound="upper")
    if ctx.adjacent:
        if bc == ctx.h + 2:
            return ForcedSets(1, 2, excludes_endpoints=True, bound="adjacent-lower")
        return None
    if bc == ctx.h:
        return ForcedSets(1, 2, excludes_endpoints=False, bound="lower")
    return None


# perfbench/spans.py wraps this by name; it can go only with ROADMAP item 1, step A.
def distance_power_check(
    m: RationalMatrix, s: RationalMatrix, l: int, u: int, v: int, i: int, j: int
) -> FilterVerdict:
    """Row-distance bound applied to the walk-counting matrices M^l and S^l."""
    if l < 1:
        raise ValueError("power must be a positive integer")
    return row_distance_scan([Side(m**l, s**l)], [(u, v, i, j)])[0]


def drg_sides(g: Graph, s: RationalMatrix, radius: int) -> tuple[Side, Side]:
    """The ball and sphere sides of a distance-regular graph at ``radius``.

    The ball side is B, with B[u, v] = 1 iff dist(u, v) <= radius, against
    ball[radius](S); the sphere side is A_radius against sphere[radius](S),
    for the graph's distance polynomials ball and sphere.  One BFS gives the
    distance-regularity check and both indicators; nothing is kept between
    calls.  Raises unless g is distance-regular and radius is in 1..diameter.
    """
    dist = distance_table(g) if g.simple else None
    ia = intersection_array(g, dist)
    if ia is None:
        raise ValueError("graph is not distance-regular")
    if not 1 <= radius <= ia.d:
        raise ValueError(f"radius must be in 1..{ia.d}")
    polynomials = distance_polynomials(ia)
    ball = RationalMatrix.from_integer_form(tuple(tuple(int(x <= radius) for x in row) for row in dist))
    sphere = RationalMatrix.from_integer_form(tuple(tuple(int(x == radius) for x in row) for row in dist))
    ball_wording, sphere_wording = (
        f"|{kind}_{radius}({{u}}) symdiff {kind}_{radius}({{v}})| = {{lhs}} < {{rhs}}" for kind in "BW"
    )
    return (
        Side(ball, polynomials.ball[radius](s), ball_wording),
        Side(sphere, polynomials.sphere[radius](s), sphere_wording),
    )


# perfbench/spans.py wraps this by name; it can go only with ROADMAP item 1, step A.
def drg_check(
    g: Graph, s: RationalMatrix, radius: int, u: int, v: int, i: int, j: int
) -> tuple[FilterVerdict, FilterVerdict]:
    """Ball and sphere bounds in a distance-regular graph.

    |B_r(u) symdiff B_r(v)| must dominate the distance between rows i, j of
    the ball polynomial image of S, and likewise for spheres.  Returns the
    (ball, sphere) verdicts of ``row_distance_scan`` over ``drg_sides``.
    Each call runs the graph's BFS and evaluates both polynomials at S
    again, so a caller with many pairs should scan ``drg_sides`` once.
    """
    return tuple(row_distance_scan(drg_sides(g, s, radius), [(u, v, i, j)]))
