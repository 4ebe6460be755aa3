"""Infinite periodic graphs handled through exact finite quotients.

Two families are covered:

* circulant (multi)graphs on the integers with connection multiset D,
  where x ~ y iff |x - y| is in D (2m-regular counting multiplicity);
* plane grids on Z^2 given by a finite offset set closed under negation
  (square grid: the four unit offsets; triangular grid: those plus
  +-(1,-1), the standard coordinatization of the 6-regular lattice in
  which adjacent vertices share exactly two common neighbors).

A coloring with period T (resp. doubly periodic with periods dividing a
full-rank lattice L) factors through the quotient Z_T (resp. Z^2/L).  The
quotient is a *multigraph* whose integer entry at (x, y) counts the
connection offsets that land on y from x, including loops when an offset
reduces to zero.  With that convention a periodic coloring of the infinite
graph is perfect if and only if its quotient coloring is perfect on the
quotient multigraph, with the same parameter matrix, so finite searches
below are exact and need no "period large enough" caveats.  Searches read
the quotient as neighbor lists of (y, multiplicity) pairs ordered by y;
only ``circulant_quotient`` and ``torus_quotient`` build a dense ``Graph``.

Multiset conventions: when D has repeated elements the common-neighbor
count of the pair (x, x+t) intersects {+-d_i} with {t +- d_i} counting
each value with the minimum of its two multiplicities.

Searches report REJECTED / WITNESS / INCONCLUSIVE.  REJECTED is a proof of
nonexistence on the infinite graph (an empty patch search, or an empty
search of a quotient that every coloring is forced onto); a failed witness
search at fixed periods is only INCONCLUSIVE.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import le

from .coloring import Coloring, Neighbors, TwoColorParams, _class_sums, two_color_matrix
from .filters import FilterVerdict, PairContext, VerdictStatus, two_color_check
from .graphs import Graph, from_edges
from .ratmat import RationalMatrix

__all__ = [
    "BudgetExceededError",
    "CirculantSpec",
    "DEFAULT_NODE_BUDGET",
    "DeltaVerdict",
    "EnumeratedColoring",
    "GridRejectReport",
    "GridSpec",
    "PeriodConstraint",
    "SearchOutcome",
    "SearchStats",
    "SearchStatus",
    "circulant_enumerate",
    "circulant_h",
    "circulant_period_filter",
    "circulant_quotient",
    "grid_h",
    "grid_reject_2color",
    "offset_automorphisms",
    "patch_search",
    "periodic_coloring_canonical",
    "torus_quotient",
    "torus_search",
]

DEFAULT_NODE_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """Raised when a search or enumeration would exceed its node budget."""


def _check_node_budget(node_budget: int) -> None:
    if node_budget < 0:
        raise ValueError(f"node budget must be non-negative, not {node_budget}")


def _dense_graph(nbrs: Neighbors, labels: tuple[str, ...]) -> Graph:
    """The multigraph of neighbor lists as a dense Graph, simple when it has no loop or repeat."""
    simple = all(w != v and a == 1 for v, row in enumerate(nbrs) for w, a in row)
    edges = [(v, w, a) for v, row in enumerate(nbrs) for w, a in row]
    return from_edges(len(nbrs), edges, simple=simple, labels=labels)


# ---------------------------------------------------------------------------
# circulants


@dataclass(frozen=True)
class CirculantSpec:
    """Connection multiset D = {d_1..d_m}; repeats are kept and give multigraphs."""

    ds: tuple[int, ...]

    def __post_init__(self) -> None:
        ds = tuple(sorted(self.ds))
        if not ds or any(d < 1 for d in ds):
            raise ValueError("connection multiset must be non-empty positive integers")
        object.__setattr__(self, "ds", ds)

    @property
    def m(self) -> int:
        return len(self.ds)

    @property
    def valency(self) -> int:
        return 2 * self.m

    @classmethod
    def parse(cls, text: str) -> "CirculantSpec":
        return cls(tuple(int(part) for part in text.split(",") if part.strip()))


@lru_cache(maxsize=4096)
def circulant_h(spec: CirculantSpec, t: int) -> int:
    """Common neighbors of x and x+t: |{+-d_i} multiset-cap {t +- d_i}|.

    Memoized: a sweep over many (b, c) pairs asks for the same shifts again.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    left = Counter()
    right = Counter()
    for d in spec.ds:
        left[d] += 1
        left[-d] += 1
        right[t + d] += 1
        right[t - d] += 1
    return sum(min(n, right[v]) for v, n in left.items())


@dataclass(frozen=True)
class PeriodConstraint:
    """Shifts t whose window condition fired; the period must divide each of them."""

    fired: tuple[int, ...]
    divides: int  # gcd of fired, 0 when nothing fired

    def satisfied_by(self, period: int) -> bool:
        return self.divides == 0 or self.divides % period == 0


def circulant_period_filter(
    spec: CirculantSpec, params: TwoColorParams, t_max: int
) -> PeriodConstraint:
    """Collect every t in 1..t_max that forces x and x+t monochromatic.

    The condition at shift t with h = circulant_h(spec, t) is
    b+c > 4m - h, or b+c < h, or b+c < h+2 when t is itself a connection
    length.  Any of these contradicts a differently colored pair at
    distance t, so the coloring's period must divide every fired t, hence
    their gcd.  As in the searches (``_target_matrix``), r is 2m and b, c lie in 0..r.
    """
    b, c, r = params.b, params.c, spec.valency
    # 0 <= b, c <= r, compared as integers as two_color_check compares: every scan runs this
    if params.r != r or not (0 <= b.numerator <= r * b.denominator and 0 <= c.numerator <= r * c.denominator):
        _target_matrix(params, r)
    bc = b + c
    fired = []
    for t in range(1, t_max + 1):
        h = circulant_h(spec, t)
        if bc > 4 * spec.m - h or bc < h or (t in spec.ds and bc < h + 2):
            fired.append(t)
    divides = 0
    for t in fired:
        divides = gcd(divides, t)
    return PeriodConstraint(tuple(fired), divides)


def _circulant_neighbors(spec: CirculantSpec, period: int) -> Neighbors:
    """Neighbor lists of the quotient on Z_period: (y, offsets +-d taking x to y), by y."""
    if period < 1:
        raise ValueError("period must be a positive integer")
    return [
        sorted(Counter((x + o) % period for d in spec.ds for o in (d, -d)).items())
        for x in range(period)
    ]


def circulant_quotient(spec: CirculantSpec, period: int) -> Graph:
    """Quotient multigraph on Z_period; entry (x, y) counts offsets +-d landing on y."""
    return _dense_graph(
        _circulant_neighbors(spec, period), tuple(str(x) for x in range(period))
    )


def _cyclic_canonical(t: tuple[int, ...], limit: int) -> tuple[bool, int]:
    """Whether t, a restricted-growth string, is least in its orbit under rotation and
    color renaming, and the positions compared, giving up past ``limit``.  Once a
    rotation renames to t itself, each later one renames as an earlier one did.
    """
    n = len(t)
    steps = 0
    for s in range(1, n):
        relabel: dict[int, int] = {}
        for i in range(n):
            steps += 1
            c = relabel.setdefault(t[(s + i) % n], len(relabel) + 1)
            if c < t[i] or steps > limit:
                return False, steps
            if c > t[i]:
                break
        else:
            return True, steps
    return True, steps


@dataclass(frozen=True)
class EnumeratedColoring:
    coloring: Coloring
    s: RationalMatrix


def circulant_enumerate(
    spec: CirculantSpec, period: int, k: int, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[EnumeratedColoring, ...]:
    """All perfect colorings of the period quotient in at most k colors.

    A coloring of Z_period is perfect on the quotient multigraph exactly
    when its periodic extension is perfect on the infinite circulant, so
    this is a complete census at that period, up to rotation of Z_period and
    renaming of colors.  Each orbit is stored as its lexicographically least
    member, a restricted-growth string (position 0 has color 1, each later
    one at most one more than the highest before it), and positions are
    colored in that form, smallest color first, so entries come out in
    order.  A vertex is checked once it and its neighbors are colored: its
    color-wise neighbor counts must equal those of the first checked vertex
    of its color.  A complete string is kept when it is its own canonical
    form and its class sums give its S.  Each color tried at a position is
    one node, and so is each position the canonical check compares; past
    ``node_budget`` of them the census raises ``BudgetExceededError``, never
    returning part of its entries.  Coloring every position 1 takes
    ``period`` nodes, so a longer period is refused before anything is built.
    """
    if k < 1:
        raise ValueError("k must be positive")
    _check_node_budget(node_budget)
    if period > node_budget:
        raise BudgetExceededError(f"the census needs more than {node_budget} nodes")
    neighbors = _circulant_neighbors(spec, period)
    ready: list[list[int]] = [[] for _ in range(period)]  # vertices complete at a position
    for x in range(period):
        ready[max(x, neighbors[x][-1][0])].append(x)
    color = [0] * period
    top = [0] * (period + 1)  # top[p]: highest color at positions before p
    next_color = [1] * period
    row: list[list[int] | None] = [None] * (k + 1)  # counts of a color's first checked vertex
    recorded: list[list[int]] = [[] for _ in range(period)]  # colors whose row position p set
    found = []
    nodes = 0
    p = 0
    while True:
        if nodes > node_budget:
            raise BudgetExceededError(f"the census needs more than {node_budget} nodes")
        if p == period:
            t = tuple(color)
            canonical, steps = _cyclic_canonical(t, node_budget - nodes)
            nodes += steps
            if canonical:
                rows, mismatch, _ = _class_sums(neighbors, 1, t, top[period])  # exact re-check
                if mismatch is None:
                    found.append(EnumeratedColoring(Coloring(t, top[period]), RationalMatrix(rows)))
            p -= 1
        elif next_color[p] <= min(k, top[p] + 1):
            nodes += 1
            c = next_color[p]
            next_color[p] += 1
            color[p] = c
            top[p + 1] = max(top[p], c)
            for x in ready[p]:
                counts = [0] * (k + 1)
                for w, a in neighbors[x]:
                    counts[color[w]] += a
                cx = color[x]
                if row[cx] is None:
                    row[cx] = counts
                    recorded[p].append(cx)
                elif row[cx] != counts:
                    break
            else:
                p += 1
                continue
        else:
            next_color[p] = 1
            p -= 1
            if p < 0:
                return tuple(found)
        for c in recorded[p]:  # undo position p before its next color
            row[c] = None
        recorded[p].clear()


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class GridSpec:
    """Neighbor offsets of a plane lattice graph; closed under negation, no origin."""

    offsets: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        offs = frozenset((int(x), int(y)) for x, y in self.offsets)
        if not offs:
            raise ValueError("offset set must be non-empty")
        if (0, 0) in offs:
            raise ValueError("offsets must exclude the origin")
        if any((-x, -y) not in offs for x, y in offs):
            raise ValueError("offset set must be closed under negation")
        object.__setattr__(self, "offsets", offs)

    @classmethod
    def square(cls) -> "GridSpec":
        return cls(frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)}))

    @classmethod
    def triangular(cls) -> "GridSpec":
        """Six offsets +-(1,0), +-(0,1), +-(1,-1); see the module notes."""
        return cls(frozenset({(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}))

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """Parse "1,0;0,1;1,-1"; negations are added automatically."""
        offs = set()
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            x, y = (int(p) for p in part.split(","))
            offs.add((x, y))
            offs.add((-x, -y))
        return cls(frozenset(offs))

    @property
    def valency(self) -> int:
        return len(self.offsets)

    @property
    def radius(self) -> int:
        return max(max(abs(x), abs(y)) for x, y in self.offsets)


def grid_h(spec: GridSpec, delta: tuple[int, int]) -> tuple[int, bool]:
    """Common-neighbor count of x and x+delta, plus whether the pair is adjacent."""
    if delta == (0, 0):
        raise ValueError("delta must be nonzero")
    dx, dy = delta
    shifted = {(dx + x, dy + y) for x, y in spec.offsets}
    return len(spec.offsets & shifted), delta in spec.offsets


# --- integer lattice helpers ------------------------------------------------


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


def _lattice_basis(vectors: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Row-style Hermite basis of the sublattice of Z^2 generated by the vectors.

    Returns [] (rank 0), [(a, b)] (rank 1), or [(a, b), (0, d)] with a, d > 0.
    """
    pivot: tuple[int, int] | None = None
    tail = 0  # generator of the y-only rows
    for vec in vectors:
        x, y = vec
        if x == 0 and y == 0:
            continue
        if x == 0:
            tail = gcd(tail, abs(y))
            continue
        if pivot is None:
            pivot = (x, y)
            continue
        px, py = pivot
        g, s, t = _ext_gcd(px, x)
        new_pivot = (g, s * py + t * y)
        leftover_y = (px // g) * y - (x // g) * py
        tail = gcd(tail, abs(leftover_y))
        pivot = new_pivot
    basis: list[tuple[int, int]] = []
    if pivot is not None:
        a, b = pivot
        if a < 0:
            a, b = -a, -b
        if tail:
            b %= tail
        basis.append((a, b))
    if tail:
        basis.append((0, tail))
    return basis


def _lattice_neighbors(spec: GridSpec, basis: list[tuple[int, int]]) -> Neighbors:
    """Neighbor lists of the grid's quotient by a sublattice with Hermite basis [(a, b), (0, d)].

    Residue (x, y), 0 <= x < a and 0 <= y < d, is vertex x*d + y; it lists (w, offsets to w), by w.
    """
    (a, b), (_, d) = basis

    def vertex(x: int, y: int) -> int:
        q = x // a
        return (x - q * a) * d + (y - q * b) % d

    return [
        sorted(Counter(vertex(x + ox, y + oy) for ox, oy in spec.offsets).items())
        for x in range(a)
        for y in range(d)
    ]


def _window(
    spec: GridSpec, width: int, height: int, cells: int
) -> tuple[list[bool], list[int], Neighbors, frozenset[int]]:
    """A width x height window prepared for ``_backtrack``, for its first ``cells`` cells.

    Returns the constrained flag of each cell, the constrained (interior)
    cells in index order, for each cell u the pairs (w, 1) of the
    constrained cells w that see u, by w, and the set of total weights the
    constrained cells see.  Built by index arithmetic: cell (x, y) is
    u = y*width + x, and offset (ox, oy) leads to u + oy*width + ox.  A cell
    is constrained when it lies at least the offsets' x and y reach from
    each side, and then every cell it sees is inside.  The lists cover only
    cells 0..cells-1, and the flags only those and the constrained cells that
    see them; the totals are those of the whole window.
    """
    reach_x = max(abs(ox) for ox, _ in spec.offsets)
    reach_y = max(abs(oy) for _, oy in spec.offsets)
    size = width * height
    cells = min(cells, size)
    steps = [oy * width + ox for ox, oy in spec.offsets]
    tracked = min(size, cells + max(steps))  # the last cell that sees one of the first cells, plus 1
    inner = [reach_x <= x < width - reach_x for x in range(width)]
    outer = [False] * width
    constrained = [
        flag
        for y in range((tracked + width - 1) // width)
        for flag in (inner if reach_y <= y < height - reach_y else outer)
    ][:tracked]
    interior = [u for u, inside in enumerate(constrained) if inside]
    affected: list[list[tuple[int, int]]] = [[] for _ in range(cells)]
    for w in interior:  # w sees w + step, so coloring w + step moves w's counts
        entry = (w, 1)
        for step in steps:
            if w + step < cells:
                affected[w + step].append(entry)
    has_interior = width > 2 * reach_x and height > 2 * reach_y
    return constrained, interior, affected, frozenset({spec.valency} if has_interior else ())


def torus_quotient(spec: GridSpec, periods: tuple[int, int]) -> Graph:
    """Quotient of the grid on Z_p x Z_q; vertex (x, y) sits at index x*q + y."""
    p, q = periods
    if p < 1 or q < 1:
        raise ValueError("periods must be positive")
    return _dense_graph(
        _lattice_neighbors(spec, [(p, 0), (0, q)]),
        tuple(f"({x},{y})" for x in range(p) for y in range(q)),
    )


# --- the backtracking search engine ------------------------------------------


class SearchStatus(str, Enum):
    REJECTED = "rejected"
    WITNESS = "witness"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    complete: bool
    detail: str


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    witnesses: tuple[Coloring, ...] = ()
    stats: SearchStats = field(default=SearchStats(0, True, ""))

    @property
    def witness(self) -> Coloring | None:
        return self.witnesses[0] if self.witnesses else None

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "witness": self.witness.to_json() if self.witness else None,
            "witnesses": [w.to_json() for w in self.witnesses],
            "certificate": {
                "nodes": self.stats.nodes,
                "complete": self.stats.complete,
                "detail": self.stats.detail,
            },
        }


def _backtrack(
    s: RationalMatrix,
    affected: Neighbors,
    constrained: list[bool],
    totals: frozenset[int],
    allowed: list[tuple[int, ...]],
    *,
    all_colors: bool,
    find_all: bool,
    node_budget: int,
) -> tuple[list[tuple[int, ...]], int, bool]:
    """Color cells 0..n-1 in index order so that every constrained cell meets its row of S.

    ``affected[u]`` lists (w, weight) for each constrained cell w that sees
    cell u, one pair per w, and ``totals`` holds the total weights the
    constrained cells see.  ``constrained`` flags every cell the lists name;
    ``allowed`` gives the n cells to color, which may be a prefix of them
    when not ``all_colors`` (a patch search whose budget cannot reach the
    rest colors only that prefix).  The engine reads this geometry as given and never changes it,
    so one prepared shape serves several searches.  A constrained cell of
    color i must see exactly s[i-1, j-1] weight of color j; a colored one
    ends the branch when it sees too much of some color.  Every total must
    equal each row sum of S; then a complete coloring with no color over its
    target meets every row exactly, so colors short of their target need no
    cut.  Cell u tries the colors ``allowed[u]`` in order.  With
    ``all_colors`` a branch ends once the unused colors outnumber the cells
    left.  Complete colorings are collected, only the first unless
    ``find_all``.  Each color tried at a cell is one node; the search stops
    after ``node_budget`` of them.  The rows of S are scaled to integers by
    its denominator, and the weights with them when it is not 1; one
    iterator of untried colors per cell stands in for recursion, so no
    window is too deep for the interpreter stack.

    Each cell w holds a cap row: its row of S while it is colored, and an
    uncapped row of the common total while it is not.  The invariant is that
    no cell sees more of any color than its cap; an uncolored cell meets it
    for free, since no cell sees more than the total.  So "a colored
    constrained cell sees too much" is the one compare
    ``seen[w][c] > cap[w][c]``.  Coloring u with c raises its cap and the
    color-c entries of the cells that see u, and nothing else: u's own row
    and the unused-color cut are checked before the color is committed, then
    the updates stop at the first cell over its cap, and only the updates
    already applied are undone.

    Returns (colorings, nodes expanded, search completed).
    """
    n, k = len(allowed), s.rows
    ints, denom = s.integer_form()
    rows = [[]] + [[0, *row] for row in ints]  # rows[c]: color c's row, indexed by color
    if totals and len({total * denom for total in totals} | {sum(row) for row in ints}) != 1:
        raise ValueError("every constrained cell must see a total weight equal to each row sum of S")
    if denom != 1:
        affected = [[(w, wt * denom) for w, wt in column] for column in affected]
    uncapped = [max(totals, default=0) * denom] * (k + 1)
    color = [0] * n
    seen = [[0] * (k + 1) for _ in constrained]  # seen[w][j]: weight w sees on color j
    cap = [uncapped] * len(constrained)
    used = [0] * (k + 1)
    unused = k  # colors with used[c] == 0
    found: list[tuple[int, ...]] = []
    nodes = 0
    if all_colors and k > n:
        return found, nodes, True
    tries = [iter(())] * n  # tries[u]: the colors cell u has still to try
    tries[0] = iter(allowed[0])
    last = n - 1
    u = 0
    while True:
        c = next(tries[u], 0)
        if c:
            nodes += 1
            if nodes > node_budget:
                return found, nodes, False
            row = rows[c]
            if constrained[u] and not all(map(le, seen[u], row)):
                continue
            if all_colors and unused - (not used[c]) > last - u:
                continue
            cap[u] = row
            updates = affected[u]
            for w, wt in updates:
                seen_w = seen[w]
                x = seen_w[c] + wt
                seen_w[c] = x
                if x > cap[w][c]:
                    break
            else:
                color[u] = c
                if u < last:
                    if all_colors:
                        if not used[c]:
                            unused -= 1
                        used[c] += 1
                    u += 1
                    tries[u] = iter(allowed[u])
                    continue
                found.append(tuple(color))
                if not find_all:
                    return found, nodes, True
            for v, wt in updates:  # undo the updates applied, the last one at w
                seen[v][c] -= wt
                if v == w:
                    break
            cap[u] = uncapped
            continue
        u -= 1
        if u < 0:
            return found, nodes, True
        c = color[u]  # uncolor cell u before its next choice
        for w, wt in affected[u]:
            seen[w][c] -= wt
        if all_colors:
            used[c] -= 1
            if not used[c]:
                unused += 1
        cap[u] = uncapped


def _quotient_colorings(
    nbrs: Neighbors, s: RationalMatrix, *, find_all: bool, node_budget: int
) -> tuple[list[Coloring], int, bool]:
    """Colorings of a symmetric quotient (u's list is who sees u) in all k colors meeting S."""
    n, k = len(nbrs), s.rows
    totals = frozenset(sum(a for _, a in row) for row in nbrs)
    found, nodes, complete = _backtrack(
        s, nbrs, [True] * n, totals, [tuple(range(1, k + 1))] * n,
        all_colors=True, find_all=find_all, node_budget=node_budget,
    )
    for colors in found:  # the engine's colorings meet S; a mismatch here is a fault in it
        if _class_sums(nbrs, 1, colors, k, s)[1] is not None:
            raise AssertionError(f"search returned a coloring that misses S: {colors}")
    return [Coloring(colors, k) for colors in found], nodes, complete


def _target_matrix(
    target: RationalMatrix | tuple | TwoColorParams, valency: int
) -> RationalMatrix:
    if isinstance(target, RationalMatrix):
        s = target
    elif isinstance(target, TwoColorParams):
        s = target.matrix()
    else:
        b, c = target
        s = two_color_matrix(b, c, valency)
    if any(total != valency for total in s.row_sums()):
        raise ValueError(f"target rows must sum to the valency {valency}")
    for i in range(s.rows):  # rows summing to the valency and no entry below 0: all in 0..valency
        for j in range(s.cols):
            if s[i, j] < 0:
                raise ValueError(
                    f"target entry {s[i, j]} in row {i + 1}, column {j + 1} is negative"
                )
    return s


def torus_search(
    spec: GridSpec,
    periods: tuple[int, int],
    target: RationalMatrix | tuple | TwoColorParams,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    find_all: bool = False,
) -> SearchOutcome:
    """Search doubly periodic colorings with the exact target parameter matrix.

    WITNESS carries quotient colorings that re-verify; no witness is only
    INCONCLUSIVE for the infinite grid, since other periods might work.
    ``node_budget`` caps the nodes the search expands; a witness takes one
    per cell, so a torus with more cells is refused before it is built.
    """
    p, q = periods
    if p < 1 or q < 1:
        raise ValueError("periods must be positive")
    _check_node_budget(node_budget)
    s = _target_matrix(target, spec.valency)
    if p * q > node_budget:
        raise BudgetExceededError(
            f"a {p}x{q} torus has {p * q} cells, over the node budget of {node_budget}"
        )
    witnesses, nodes, complete = _quotient_colorings(
        _lattice_neighbors(spec, [(p, 0), (0, q)]), s, find_all=find_all, node_budget=node_budget
    )
    detail = f"torus {periods[0]}x{periods[1]}, {len(witnesses)} witness(es)"
    if not complete:
        detail += ", node budget exhausted"
    status = SearchStatus.WITNESS if witnesses else SearchStatus.INCONCLUSIVE
    return SearchOutcome(status, tuple(witnesses), SearchStats(nodes, complete, detail))


# --- two-color rejection over a window of differences -------------------------


@dataclass(frozen=True)
class DeltaVerdict:
    delta: tuple[int, int]
    h: int
    adjacent: bool
    verdict: FilterVerdict


@dataclass(frozen=True)
class GridRejectReport:
    verdict: FilterVerdict
    per_delta: tuple[DeltaVerdict, ...]
    monochromatic: tuple[tuple[int, int], ...]
    note: str | None = None


def _coset_sizes(offsets: frozenset[tuple[int, int]], g: tuple[int, int]) -> list[int]:
    """Sizes of offset classes modulo the rank-1 lattice Z*g, g = (a, b), by least residue:
    (x mod a, y - (x // a)*b) as in ``_lattice_neighbors``, or (x, y mod b) when a = 0."""
    a, b = g
    if a:
        residues = ((x % a, y - x // a * b) for x, y in offsets)
    else:
        residues = ((x, y % b) for x, y in offsets)
    return list(Counter(residues).values())


def _subset_sums(sizes: list[int]) -> set[int]:
    sums = {0}
    for s in sizes:
        sums |= {x + s for x in sums}
    return sums


_DeltaTable = tuple[tuple[tuple[int, int], int, bool, PairContext], ...]


@lru_cache(maxsize=8)
def _delta_table(spec: GridSpec, window: int) -> _DeltaTable:
    """(delta, h, adjacent, pair context) for one delta of each +-pair within the window.

    Every (b, c) asked about on one grid and window reads the same table of
    2*window*(window + 1) rows, so the tables of the last eight grids and
    windows are kept.
    """
    r = Fraction(spec.valency)
    table = []
    for dx in range(0, window + 1):
        for dy in range(-window, window + 1):
            if dx == 0 and dy <= 0:
                continue  # one representative per +-delta pair
            h, adjacent = grid_h(spec, (dx, dy))
            table.append(((dx, dy), h, adjacent, PairContext(r, h, adjacent)))
    return tuple(table)


def grid_reject_2color(
    spec: GridSpec,
    params: TwoColorParams,
    *,
    window: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> GridRejectReport:
    """Scan pair differences, derive monochromatic directions, and try to reject.

    Every difference delta in the window gets the two-color window check;
    an INFEASIBLE delta means x and x+delta share a color in every perfect
    (b,c)-coloring, i.e. the coloring is invariant under translation by
    delta.  Consequences drawn from the invariant directions:

    * full-rank direction lattice: the coloring factors through the finite
      quotient, which is searched outright, unpinned, for the parameters;
      renaming colors maps (c, b)-colorings onto (b, c)-colorings, so an
      empty search is a proof of nonexistence in both orientations;
    * rank one: neighbors of a vertex fall into classes that are forced
      monochromatic, so b and c must each be a subset sum of the class
      sizes; otherwise nonexistence again.

    INFEASIBLE verdicts here are proofs; FEASIBLE only means no bound in
    the window fired, and INCONCLUSIVE means directions fired without a
    contradiction within ``node_budget``, which caps the quotient search;
    a quotient with more vertices is not built.  As in the searches
    (``_target_matrix``), r is the valency and b, c lie in 0..r.
    ``window`` (default twice the offsets' radius) must be at least 1.  The
    tables of differences of the last eight grids and windows asked about
    are kept, so the calls for every (b, c) on one grid read one table.
    """
    b, c, r = params.b, params.c, spec.valency
    # 0 <= b, c <= r, compared as integers as two_color_check compares: every scan runs this
    if params.r != r or not (0 <= b.numerator <= r * b.denominator and 0 <= c.numerator <= r * c.denominator):
        _target_matrix(params, r)
    _check_node_budget(node_budget)
    if window is None:
        window = 2 * spec.radius
    if window < 1:
        raise ValueError(f"the window must be at least 1, not {window}")
    per_delta = []
    mono = []
    table = _delta_table(spec, window)
    for delta, h, adjacent, ctx in table:
        verdict = two_color_check(ctx, params)
        per_delta.append(DeltaVerdict(delta, h, adjacent, verdict))
        if verdict.infeasible:
            mono.append(delta)

    def report(verdict: FilterVerdict, note: str | None = None) -> GridRejectReport:
        return GridRejectReport(verdict, tuple(per_delta), tuple(mono), note)

    if not mono:
        return report(FilterVerdict(VerdictStatus.FEASIBLE))

    basis = _lattice_basis(mono)
    directions = ", ".join(str(d) for d in mono)
    if len(basis) == 2:
        index = basis[0][0] * basis[1][1]
        if index > node_budget:
            return report(
                FilterVerdict(VerdictStatus.INCONCLUSIVE),
                f"monochromatic directions give an index-{index} quotient, "
                f"over the node budget of {node_budget}",
            )
        witnesses, _, complete = _quotient_colorings(
            _lattice_neighbors(spec, basis), params.matrix(), find_all=False, node_budget=node_budget
        )
        if witnesses:
            return report(
                FilterVerdict(VerdictStatus.FEASIBLE),
                f"forced directions [{directions}] admit a periodic witness "
                f"on the index-{index} quotient",
            )
        if not complete:
            return report(
                FilterVerdict(VerdictStatus.INCONCLUSIVE),
                f"the search of the index-{index} quotient ran out of its node budget",
            )
        return report(
            FilterVerdict(
                VerdictStatus.INFEASIBLE,
                violated=(
                    f"directions [{directions}] are forced monochromatic, so any "
                    f"coloring factors through the index-{index} quotient, which "
                    f"admits no ({b},{c})-coloring in either orientation"
                ),
            )
        )

    # rank 1: per-vertex neighbor classes along the invariant direction
    g = basis[0]
    sizes = _coset_sizes(spec.offsets, g)
    sums = _subset_sums(sizes)
    for name, value in (("b", b), ("c", c)):
        if value.denominator != 1 or int(value) not in sums:
            return report(
                FilterVerdict(
                    VerdictStatus.INFEASIBLE,
                    violated=(
                        f"direction {g} is forced monochromatic; neighbor classes "
                        f"have sizes {sorted(sizes)}, and {name} = {value} is not a "
                        f"sum of class sizes"
                    ),
                )
            )
    return report(
        FilterVerdict(VerdictStatus.INCONCLUSIVE),
        f"directions [{directions}] are forced monochromatic but no contradiction follows",
    )


# --- patch search -------------------------------------------------------------


def patch_search(
    spec: GridSpec,
    target: RationalMatrix | tuple | TwoColorParams,
    size: tuple[int, int],
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchOutcome:
    """Exhaust colorings of a finite window with exact constraints inside.

    Interior cells are those whose whole neighborhood lies in the window;
    each must match its row of the target matrix exactly.  Any perfect
    coloring of the plane restricts to a valid window coloring, so an empty
    search is a proof of nonexistence (REJECTED).  A non-empty search says
    nothing about the plane and is reported INCONCLUSIVE.

    For a (b, c) target the first interior cell's color is pinned to 1 and,
    when b != c, the swapped orientation (c, b) is searched as well; a plane
    coloring whose restriction colors that cell 2 turns into a valid
    pinned coloring of the swapped orientation, so the pair of runs is
    still exhaustive.  Explicit matrix targets are searched unpinned.
    """
    width, height = size
    if width < 1 or height < 1:
        raise ValueError("patch dimensions must be positive")
    _check_node_budget(node_budget)
    # a search reaches cell u only after a node at each of cells 0..u, so the
    # budget reaches cells 0..node_budget and the window is prepared for those
    constrained, interior, affected, totals = _window(spec, width, height, node_budget + 1)
    if not totals:
        raise ValueError("patch too small: no cell has its whole neighborhood inside")

    s = _target_matrix(target, spec.valency)
    if isinstance(target, RationalMatrix):
        runs = [(s, False)]
    else:
        b, c = s[0, 1], s[1, 0]
        runs = [(s, True)]
        if b != c:
            runs.append((two_color_matrix(c, b, spec.valency), True))

    total_nodes = 0
    for s, pin_first in runs:
        allowed = [tuple(range(1, s.rows + 1))] * len(affected)
        if pin_first and interior and interior[0] < len(allowed):
            allowed[interior[0]] = (1,)
        found, nodes, complete = _backtrack(
            s, affected, constrained, totals, allowed,
            all_colors=False, find_all=False, node_budget=node_budget - total_nodes,
        )
        total_nodes += nodes
        if found or not complete:
            what = "a valid window coloring exists" if found else "node budget exhausted"
            return SearchOutcome(
                SearchStatus.INCONCLUSIVE,
                (),
                SearchStats(total_nodes, complete, f"patch {width}x{height}: {what}"),
            )
    return SearchOutcome(
        SearchStatus.REJECTED,
        (),
        SearchStats(
            total_nodes,
            True,
            f"patch {width}x{height}: no valid window coloring in any orientation",
        ),
    )


# --- symmetry helpers for uniqueness checks -----------------------------------


def offset_automorphisms(spec: GridSpec) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    """Integer-linear maps with determinant +-1 permuting the offset set.

    These are the point symmetries of the lattice graph (rotations and
    reflections fixing the origin).  Requires the offsets to span the
    plane; the identity alone is returned otherwise.
    """
    offs = sorted(spec.offsets)
    basis_pair = None
    for e1, e2 in combinations(offs, 2):
        if e1[0] * e2[1] - e1[1] * e2[0] != 0:
            basis_pair = (e1, e2)
            break
    identity = ((1, 0), (0, 1))
    if basis_pair is None:
        return (identity,)
    e1, e2 = basis_pair
    det_e = e1[0] * e2[1] - e1[1] * e2[0]
    autos = set()
    for f1 in offs:
        for f2 in offs:
            # solve A e1 = f1, A e2 = f2 over the rationals
            num_a = f1[0] * e2[1] - f2[0] * e1[1]
            num_b = f2[0] * e1[0] - f1[0] * e2[0]
            num_c = f1[1] * e2[1] - f2[1] * e1[1]
            num_d = f2[1] * e1[0] - f1[1] * e2[0]
            if any(v % det_e for v in (num_a, num_b, num_c, num_d)):
                continue
            a, b, c, d = (v // det_e for v in (num_a, num_b, num_c, num_d))
            if abs(a * d - b * c) != 1:
                continue
            image = {(a * x + b * y, c * x + d * y) for x, y in offs}
            if image == spec.offsets:
                autos.add(((a, b), (c, d)))
    autos.add(identity)
    return tuple(sorted(autos))


def periodic_coloring_canonical(
    spec: GridSpec,
    periods: tuple[int, int],
    coloring: Coloring,
    *,
    modulus: int,
    use_symmetries: bool = True,
) -> tuple[int, ...]:
    """Canonical form of the plane coloring induced by a torus coloring.

    The torus coloring extends to the plane by periodicity; its orbit under
    translations, color renamings, and (optionally) the lattice's point
    symmetries is canonicalized as the least color sequence over a
    modulus-by-modulus window.  Both periods must divide the modulus so the
    window determines the coloring.  Two witnesses are the same pattern up
    to those motions iff their canonical forms are equal.
    """
    p, q = periods
    if modulus % p or modulus % q:
        raise ValueError("modulus must be a multiple of both periods")
    colors = coloring.colors

    def at(x: int, y: int) -> int:
        return colors[(x % p) * q + (y % q)]

    transforms = offset_automorphisms(spec) if use_symmetries else (((1, 0), (0, 1)),)
    best: tuple[int, ...] | None = None
    for (a, b), (c, d) in transforms:
        for tx in range(p):
            for ty in range(q):
                relabel: dict[int, int] = {}
                seq = []
                for x in range(modulus):
                    for y in range(modulus):
                        col = at(a * x + b * y + tx, c * x + d * y + ty)
                        if col not in relabel:
                            relabel[col] = len(relabel) + 1
                        seq.append(relabel[col])
                cand = tuple(seq)
                if best is None or cand < best:
                    best = cand
    assert best is not None
    return best
