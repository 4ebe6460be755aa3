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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import gcd
from typing import NamedTuple

from .coloring import Coloring, Neighbors, TwoColorParams, _class_sums, two_color_matrix
from .filters import FilterVerdict, PairContext, VerdictStatus, two_color_check
from .graphs import Graph, from_edges
from .ratmat import RationalMatrix

__all__ = [
    "BudgetExceededError",
    "CirculantSpec",
    "DEFAULT_NODE_BUDGET",
    "EnumeratedColoring",
    "GridClass",
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

# the subtree tables of one window search hold at most this many bits (4 MiB), an entry
# counting its band and 1024 bits (128 bytes) for the dict slot and the int's header
_TABLE_BITS = 1 << 25


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


def circulant_h(spec: CirculantSpec, t: int) -> int:
    """Common neighbors of x and x+t: |{+-d_i} multiset-cap {t +- d_i}|, 0 unless t is in (D + D) | |D - D|."""
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


@lru_cache(maxsize=8)
def _shift_table(spec: CirculantSpec) -> tuple[tuple[int, int, int], ...]:
    """(t, low, high) for each t in D | (D + D) | |D - D|, ascending, where the window of
    x and x+t is low <= b+c <= high.  The tables of the last eight sets are kept."""
    ds = set(spec.ds)
    shifts = ds | {d + e for d in ds for e in ds} | {abs(d - e) for d in ds for e in ds if d != e}
    hs = {t: circulant_h(spec, t) for t in sorted(shifts)}
    return tuple((t, h + 2 if t in ds else h, 4 * spec.m - h) for t, h in hs.items())


def circulant_period_filter(
    spec: CirculantSpec, params: TwoColorParams, t_max: int
) -> PeriodConstraint:
    """Collect every t in 1..t_max that forces x and x+t monochromatic.

    The condition at shift t with h = circulant_h(spec, t) is
    b+c > 4m - h, or b+c < h, or b+c < h+2 when t is itself a connection
    length.  Any of these contradicts a differently colored pair at
    distance t, so the coloring's period must divide every fired t, hence
    their gcd.  As in the searches (``_target_matrix``), r is 2m and b, c lie in
    0..r; t_max is at least 1.  A shift outside ``_shift_table`` (m(m+1) at most) has h = 0 and
    is no connection length, and 0 <= b+c <= 4m, so it never fires, however large t_max or D.
    b+c is read once as num/den, den > 0, and each bound x is compared as
    x * den with num, in integers.
    """
    if t_max < 1:
        raise ValueError("t_max must be a positive integer")
    _check_two_color_target(params, spec.valency)
    bc = params.b_plus_c
    num, den = bc.numerator, bc.denominator
    fired = [t for t, low, high in _shift_table(spec) if t <= t_max and not low * den <= num <= high * den]
    return PeriodConstraint(tuple(fired), gcd(*fired))


def _circulant_neighbors(spec: CirculantSpec, period: int) -> Neighbors:
    """Neighbor lists of the quotient on Z_period: (y, offsets +-d taking x to y), by y.

    Vertex x sees x + r, with multiplicity a, for each residue r of the
    offsets, so the lists are translates of one: the pairs (y, a) rotated
    left by r hold x's pair for r at index x.  Each pair is one object,
    shared by every list that holds it.
    """
    if period < 1:
        raise ValueError("period must be a positive integer")
    base = Counter(o % period for d in spec.ds for o in (d, -d)).items()
    pairs = {a: [(y, a) for y in range(period)] for a in {a for _, a in base}}
    return [sorted(seen) for seen in zip(*(pairs[a][r:] + pairs[a][:r] for r, a in base))]


def circulant_quotient(spec: CirculantSpec, period: int) -> Graph:
    """Quotient multigraph on Z_period; entry (x, y) counts offsets +-d landing on y."""
    return _dense_graph(
        _circulant_neighbors(spec, period), tuple(str(x) for x in range(period))
    )


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
    of its color, that color's row.

    The counts of the vertices near position p are one integer, the band,
    as in ``_backtrack``: each neighbor of a vertex lies within ``reach``,
    the largest min(r, period - r) over the residues r of the offsets, so
    the band holds the vertices p - reach .. p + reach, cyclically, and the
    whole cycle when period <= 2 reach + 1.  A vertex takes one field of
    ``width = valency.bit_length()`` bits per color.  A count is at most the
    valency, so no field carries into the next, and counts are only
    compared for equality, never subtracted, so unlike ``_backtrack``'s
    fields they need no guard bit.  The circulant is translation-invariant,
    so coloring p with c adds one pattern, whatever p is: a unit in field c
    of each vertex that sees p.  Each position holds (x - p, the place of
    x's fields) for each vertex x it completes, and a check is ``band >>
    place & mask`` compared with a row; equal tuples of checks are one
    object, shared by the positions in mid-cycle.  Moving on to p + 1
    shifts the back vertex out and takes p + 1 + reach in at the front,
    with no counts on its first entry.  A vertex whose neighbors wrap past
    position 0 enters again: it is parked when it leaves the back and read
    back at the front, as ``_backtrack`` parks a quotient's cells, with no
    undo of its own, since no color moves it while it is out and every path
    to its re-entry parked it.  Going back from p + 1 to p undoes the move:
    the front field is dropped, the band shifted back, the back vertex's
    parked field put in again and the color's pattern subtracted, so the
    census holds one band and one parked field per position, never a band
    per depth.  Every add, shift and mask runs over the whole band, (2 reach +
    1) k width bits, so a node's cost grows with reach: at period 10^5 and
    k = 1, C(1, 2, 4) takes about 0.25 s and C(1, 30000), a band of 60,001
    vertices, about 3 s.  The rows set at a position go on one stack of
    (position, color) pairs, popped when the position is undone.

    A prefix that passes is also compared with each rotation s that starts
    at a run start (color[s-1] != color[s]) and has so far renamed, by first
    appearance, to the prefix itself.  At p, rotation s names color[p] as at
    its last position q in s..p-1 (color[q-s]) or, if new, one above the
    colors before p-s; below color[p-s], every completion has a smaller
    rotation and the branch is cut; above it, s is dropped.  A complete
    string carries the rotations still followed, least first, on through
    the wrap positions 0..s-1 by the same rule: one naming below the string
    rejects it, and one renaming to the string itself accepts it, since
    every later rotation repeats an earlier one.  A rotation starting
    mid-run loses to the one a step earlier, which has the longer leading
    run, so the least rotation starts at a run start, even when its run
    wraps past position 0, and is followed.  The integer class sums of a
    kept string, checked again by the kernel behind ``induced_parameters``,
    are its S, taken without coercion, and its ``Coloring`` is not validated
    again.  Each color tried at a position is one node, and so is each
    rotation compared at a position or across the wrap; past
    ``node_budget`` of them the census raises ``BudgetExceededError``,
    never returning part of its entries.  Coloring every position 1 takes
    ``period`` nodes, so a longer period is refused before anything is
    built.
    """
    if k < 1:
        raise ValueError("k must be positive")
    k = min(k, period)  # period positions use at most period colors: the same census
    _check_node_budget(node_budget)
    if period > node_budget:
        raise BudgetExceededError(f"the census needs more than {node_budget} nodes")
    neighbors = _circulant_neighbors(spec, period)
    reach = max(min(r, period - r) for r, _ in neighbors[0])
    length = min(2 * reach + 1, period)  # the band's vertices: p - reach .. p + reach
    width = spec.valency.bit_length()  # a field holds one color's count, at most the valency
    span = k * width  # the bits of one vertex
    mask = (1 << span) - 1
    head = (length - 1) * span  # the front vertex's place
    behind = (1 << head) - 1  # every field but the front vertex's
    reenter = period - length  # the first depth whose next vertex comes back in
    # coloring p adds a unit in field c of p - r, at (reach - r) % period in the band, per residue r
    unit = sum(a << (reach - r) % period * span for r, a in neighbors[0])
    add = [0] + [unit << c * width for c in range(k)]
    # checks[p]: (x - p, place) for each vertex x completed at p, its neighbors
    # and itself colored, interned once all of its vertices x <= p are in
    checks: list[tuple[tuple[int, int], ...]] = [()] * period
    shared: dict = {}
    for x, seen_by in enumerate(neighbors):
        q = seen_by[-1][0]
        p = x if x > q else q
        checks[p] += ((x - p, (x - p + reach) % period * span),)
        checks[x] = shared.setdefault(checks[x], checks[x])
    band = 0  # the band on entering p
    parked = [0] * period  # parked[p]: the fields of vertex p - reach, shifted out on leaving p
    color = [0] * period  # color[p]: the color position p holds or tried last, 0 once it is left
    top = [0] * (period + 1)  # top[p]: highest color at positions before p
    row: list[int | None] = [None] * (k + 1)  # packed counts of a color's first checked vertex
    rows_set = [(-1, 0)]  # (position, color) of each row set, on a sentinel that never pops
    follow: list[tuple[int, ...]] = [()] * (period + 1)  # rotations s renaming s..p-1 as 0..p-s-1
    last = [-1] * (k + 1)  # last[c]: the latest position of color c before p
    before = [0] * period  # before[p]: last[color[p]] when position p was colored
    found = []
    nodes = 0
    p = 0
    while True:
        if nodes > node_budget:
            raise BudgetExceededError(f"the census needs more than {node_budget} nodes")
        if p == period:
            name = c = 0  # the last name compared with the string's color c: none yet
            for s in follow[p]:  # finish rotation s through the wrap, positions q = 0..s-1
                for q in range(s):
                    nodes += 1
                    seen = p + before[q] if before[q] >= 0 else last[color[q]]
                    name = color[seen - s] if seen >= s else top[p - s + q] + 1
                    c = color[p - s + q]
                    if name != c:
                        break
                else:
                    break  # s renames to the string: every later rotation repeats an earlier one
                if name < c:
                    break
            if name >= c:
                rows, mismatch, d = _class_sums(neighbors, 1, color, top[p])
                if mismatch is not None:  # the vertex checks passed this string
                    raise AssertionError(f"census kept a coloring with unequal class sums: {color}")
                matrix = RationalMatrix.from_integer_form(tuple(map(tuple, rows)), d)
                found.append(EnumeratedColoring(Coloring._unchecked(tuple(color), top[p]), matrix))
            p -= 1
            band = ((band & behind) << span | parked[p]) - add[color[p]]
        elif color[p] < k and color[p] <= top[p]:  # color[p] + 1 is at most k and top[p] + 1
            nodes += 1
            c = color[p] + 1
            color[p] = c
            x = band + add[c]
            before[p] = seen = last[c]
            top[p + 1] = c if c > top[p] else top[p]
            for rel, place in checks[p]:
                counts = x >> place & mask
                i = color[p + rel]
                if row[i] != counts:
                    if row[i] is not None:
                        break
                    row[i] = counts
                    rows_set.append((p, i))
            else:
                kept = []
                for s in follow[p]:  # rotation s names c as at its last position, or anew
                    nodes += 1
                    name = color[seen - s] if seen >= s else top[p - s] + 1
                    if name < color[p - s]:
                        break  # every completion has a smaller rotation
                    if name == color[p - s]:
                        kept.append(s)
                else:
                    if p and color[p - 1] != c:  # a run start: follow rotation p from here
                        kept.append(p)
                    follow[p + 1] = tuple(kept)
                    last[c] = p
                    parked[p] = x & mask
                    if p < reenter:
                        band = x >> span
                    else:
                        band = x >> span | parked[p - reenter] << head
                    p += 1
                    continue
        else:
            color[p] = 0
            p -= 1
            if p < 0:
                return tuple(found)
            band = ((band & behind) << span | parked[p]) - add[color[p]]
        while rows_set[-1][0] == p:  # undo position p before its next color
            row[rows_set.pop()[1]] = None
        last[color[p]] = before[p]


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

    @cached_property  # read by every grid_reject_2color call at the default window
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


def _lattice_basis(vectors: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Row-style Hermite basis of the sublattice of Z^2 generated by the vectors.

    One Euclidean row reduction: a pivot (a, b) and a tail d, both 0 at first.
    Each vector (x, y) runs Euclid with the pivot on first coordinates,
    carrying second coordinates along, until x is 0; the pivot is then the
    gcd row and the y left over joins d by gcd.  Each step is unimodular, so
    (a, b) and (0, d) span the lattice of the vectors read.  At the end a is
    made positive and b is reduced mod d.  Returns [] (rank 0), [(a, b)] or
    [(0, d)] (rank 1), or [(a, b), (0, d)] with a, d > 0 and 0 <= b < d:
    the normal form, so equal lattices give equal bases.
    """
    a = b = d = 0
    for x, y in vectors:
        while x:
            q = a // x
            a, b, x, y = x, y, a - q * x, b - q * y
        d = gcd(d, y)
    if a < 0:
        a, b = -a, -b
    if d:
        b %= d
    return ([(a, b)] if a else []) + ([(0, d)] if d else [])


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


# a cell for ``_backtrack``: (constrained, ((w - u, weight) for each constrained w that sees u))
Cell = tuple[bool, tuple[tuple[int, int], ...]]

# the window and quotient caches each keep this many shapes, a shape keeps the engine's
# plans for this many targets S, and a quotient is kept only up to this many cells
_KEPT_SHAPES = 64
_KEPT_PLANS = 8
_KEPT_QUOTIENT_CELLS = 256


@dataclass(frozen=True, eq=False)
class _Shape:
    """The geometry of one window or quotient, prepared for ``_backtrack``.

    The cells are laid down in runs of one line: ``order`` lists (line,
    count) pairs, each putting the cells of ``lines[line]`` down count
    times, so a window keeps one line per class of rows and never a list
    of its cells.  Equal cells are one shared tuple.  ``top`` is the total
    weight every constrained cell sees, and ``first`` is the first
    constrained cell; they are 0 and None when no cell is constrained.  On
    a quotient ``cycle`` is its number of cells, and the engine reads
    offsets modulo it.
    ``plans`` keeps the engine's packing of the shape for each S it was
    searched with (``_plan``), at most ``_KEPT_PLANS`` of them, the oldest
    dropped first.  A shape is hashed and compared by identity.
    """

    lines: tuple[tuple[Cell, ...], ...]
    order: tuple[tuple[int, int], ...]
    top: int
    first: int | None
    cycle: int = 0
    plans: dict = field(default_factory=dict, repr=False)


def _laid(lines: Sequence[Sequence], order: tuple[tuple[int, int], ...], n: int) -> list:
    """The first n entries of ``lines`` laid down in ``order``, as ``_Shape`` lays its cells."""
    run = len(lines[0])
    laid: list = []
    for line, count in order:  # as many runs as reach n, none once it is reached
        laid += lines[line] * min(count, -(-(n - len(laid)) // run))
    del laid[n:]
    return laid


@lru_cache(maxsize=_KEPT_SHAPES)
def _window(spec: GridSpec, width: int, height: int) -> _Shape:
    """A width x height window prepared for ``_backtrack``.

    Each cell u says whether it is constrained and lists the pairs (w - u,
    1) of the constrained cells w that see it.  Cell (x, y) is
    u = y*width + x, and offset (ox, oy) leads to u + oy*width + ox.  A
    cell is constrained when it lies at least the offsets' x and y reach
    from each side; then every cell it sees is inside, so the shape's top
    is the valency.  Which seers are constrained depends only on how near
    each border the cell lies, so a cell's entry is built once per class of
    columns and of rows, and a row is a line of the shape, one per class of
    rows.  Rows at least twice the reach from both borders form one class,
    laid down as one run, so a tall window costs no more than a short one.
    The last ``_KEPT_SHAPES`` windows are kept: the searches of every S on
    one window, in both orientations, read one shape.
    """
    reach_x = max(abs(ox) for ox, _ in spec.offsets)
    reach_y = max(abs(oy) for _, oy in spec.offsets)
    offsets = sorted(spec.offsets)
    seers = [-(oy * width + ox) for ox, oy in offsets]  # w - u for the w that sees u through each offset

    def inside(z: int, reach: int, length: int, shifts: list[int]) -> tuple[bool, tuple[bool, ...]]:
        """Whether coordinate z, and z minus each shift (a seer's), lies in the constrained range."""
        return reach <= z < length - reach, tuple(reach <= z - o < length - reach for o in shifts)

    xs, ys = [ox for ox, _ in offsets], [oy for _, oy in offsets]
    kinds: dict = {}  # the distinct column classes, numbered
    column_kind = [kinds.setdefault(inside(x, reach_x, width, xs), len(kinds)) for x in range(width)]
    near = 2 * reach_y  # rows near..height-near-1 see no border: one run
    runs = [(y, 1) for y in range(min(near, height))]
    if height > 2 * near:
        runs.append((near, height - 2 * near))
    runs += [(y, 1) for y in range(max(near, height - near), height)]
    shared: dict = {}
    numbers: dict = {}  # row class -> line
    lines: list[tuple[Cell, ...]] = []
    order = []
    for y, count in runs:
        row = inside(y, reach_y, height, ys)
        if row not in numbers:
            by_kind = []
            for column in kinds:
                sees = zip(seers, column[1], row[1])
                cell = (column[0] and row[0], tuple((d, 1) for d, in_x, in_y in sees if in_x and in_y))
                by_kind.append(shared.setdefault(cell, cell))
            numbers[row] = len(lines)
            lines.append(tuple(map(by_kind.__getitem__, column_kind)))
        order.append((numbers[row], count))
    if width > 2 * reach_x and height > 2 * reach_y:  # (reach_x, reach_y) is the first constrained cell
        return _Shape(tuple(lines), tuple(order), spec.valency, reach_y * width + reach_x)
    return _Shape(tuple(lines), tuple(order), 0, None)


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
    skipped: int = 0  # of the nodes, those counted from a table of failed subtrees rather than walked


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


def _plan(shape: _Shape, ints: tuple[tuple[int, ...], ...], denom: int) -> tuple:
    """The engine's packing of ``shape`` for S = ints / denom: see ``_backtrack``.

    Returns the lines of rows ([k, delta of color 1, ..., delta of color k]
    for each cell of each line: a row starts with the highest color the cell
    tries), the band's length in cells, the bits of a cell, the guard bits
    of the band, the band before any color, one cell's mask, the front
    cell's place and a fresh cell there.  Every row of a distinct cell is
    packed once, and the lines of rows share them as the shape's lines share
    cells.  The band holds the offsets of the whole shape, so a window laid
    down only up to a budget is packed as the whole window and searched in
    the same bands.
    """
    k, cycle = len(ints), shape.cycle
    top = shape.top * denom
    width = top.bit_length() + 1
    guard = 1 << width - 1
    span = k * width  # the bits of one cell
    cut = [sum((top - x) << j * width for j, x in enumerate(row)) for row in ints]  # top minus each row
    distinct = {id(cell): cell for line in shape.lines for cell in line}
    offsets = [d for _, seers in distinct.values() for d, _ in seers]
    back, front = -min([0, *offsets]), max([0, *offsets])
    length = back + front + 1
    if cycle and length > cycle:
        length = cycle
    own = back * span  # the current cell's place in the band

    def deltas(cell: Cell) -> list[int]:  # [k, delta of color 1, ..., delta of color k]
        constrained, seers = cell
        unit = 0
        for d, weight in seers:
            unit += weight * denom << (d + back) % (cycle or length) * span
        cuts = cut if constrained else [0] * k
        return [k] + [(low << own) + (unit << c * width) for c, low in enumerate(cuts)]

    prepared = {key: deltas(cell) for key, cell in distinct.items()}
    repunit = ((1 << length * span) - 1) // ((1 << span) - 1)  # bit 0 of every cell
    unseen = sum((guard + top) << j * width for j in range(k))  # a cell no colored cell moved
    head = (length - 1) * span
    guards = repunit * sum(guard << j * width for j in range(k))
    lines = [list(map(prepared.__getitem__, map(id, line))) for line in shape.lines]
    return lines, length, span, guards, repunit * unseen, (1 << span) - 1, head, unseen << head


def _backtrack(
    s: RationalMatrix,
    shape: _Shape,
    *,
    pin_first: bool = False,
    find_all: bool = False,
    node_budget: int,
) -> tuple[list[tuple[int, ...]], int, bool, int]:
    """Color the cells of ``shape`` in index order so that every constrained cell meets its row of S.

    Cell u says whether it is constrained and lists (w - u, weight) for
    each constrained cell w that sees u, one pair per w; on a quotient's
    ``cycle`` of cells the offsets are read modulo it, and in a window
    (``cycle`` 0) as they are.  Cells with equal entries may share one
    object, which is then prepared once.  The shape's ``top`` is the total
    weight every constrained cell sees.  The engine never changes the
    shape: what it derives from the shape and S, each distinct cell's row
    of packed deltas and the band's layout below, is the shape's plan for S
    (``_plan``), built on the first search of that S and kept on the shape.
    A window search reaches cell u only after a node at each of cells
    0..u, so only the rows of its first ``node_budget + 1`` cells are laid
    down; the band is that of the whole window, so a search cut short by
    its budget walks the first nodes of the whole search, table for table.

    A constrained cell of color i must see exactly s[i-1, j-1] weight of
    color j; a colored one ends the branch when it sees too much of some
    color.  ``top`` must equal each row sum of S; then a complete coloring
    with no color over its target meets every row exactly, so colors short
    of their target need no cut.  Each cell tries the colors 1..k in order;
    ``pin_first`` gives the first constrained cell a copy of its row that
    tries color 1 alone (nothing is pinned if the cells stop before one).
    On a quotient (``cycle`` > 0) every coloring uses all k colors: a branch
    ends once the unused colors outnumber the cells left.  Complete
    colorings are collected, only the first unless ``find_all``.  Each color
    tried at a cell is one node; the search stops after ``node_budget`` of
    them.  The rows of S are scaled to integers by its denominator, and the
    weights with them; a color counter per cell stands in for recursion, so
    no window is too deep for the interpreter stack.

    The slack of every cell near the current one is packed into one
    integer, the band (broadword arithmetic, Knuth, TAOCP 7.1.3).  A cell
    takes ``k * width`` bits, one field of ``width = top.bit_length() + 1``
    bits per color, where ``top`` is the total every constrained cell sees,
    scaled with S.  Field j holds guard + cap - seen: guard = 2**(width-1)
    is the field's top bit, seen is the weight of color j the cell sees, and
    the cap is its row of S while it is colored and ``top`` while it is not.
    A cell sees at most ``top`` in all and a cap lies in 0..top, so a field
    stays within guard - top >= 1 and guard + top < 2*guard however far
    past its cap it is, and packed sums and differences act field by field.
    A guard bit is clear exactly when that cell sees more of that color
    than its cap.

    The band holds the cells at offsets -B..F from the current cell u, B
    and F the largest offsets back and forward in ``cells``, so it holds
    every cell u's color moves.  A node reads u's row: the highest color u
    tries, then a delta per color, the cut of u's own row of S (top minus
    the row, field by field) at u's place and the color's weight at each
    seer's place.  Trying color c is ``x = band - delta``; the branch lives
    iff every guard bit of ``x`` is set, and a cleared one's position names
    the cell and color that failed.  The unused-color cut comes next.  A
    color that passes, but for u's last, keeps the band for u, and it goes
    on: ``x`` drops the cell at the back, shifts by one cell and takes the
    next cell in at the front, fresh (guard + top in every field) on its
    first entry.  Going back restores the kept band.

    On a quotient the offsets are read modulo the cycle, so seers across
    the wrap are near cyclically: on a p x q torus the band is 2q + 1 cells
    of the square grid and 4q - 1 of the triangular, not the whole torus.
    The band then runs round the cycle (cut to it if longer), and a cell
    that left the back comes in again at the front, read from the ``x``
    that dropped it, parked at that depth.  Parked values need no undo: a
    cell leaves the back at most once on a path, nothing moves it while it
    is out since a color moves only cells in the band, and every path that
    reaches its re-entry passed the depth that parks it and parked it there.

    A node's subtraction and mask test run over the band, about 2W + 1
    cells on a window W cells wide.  On the square (2, 2) window at 200,000
    nodes (Python 3.11, one Xeon core) a node took 0.31 us at 32 cells
    wide, 0.4 us at 100, 0.5 us at 150, 0.6 us at 200 and 0.8 us at 300.

    Nothing prunes before the first constrained cell, so every coloring of
    the cells before it is walked, and many leave one band.  A window search
    (no ``cycle``) in two or more colors that stops at its first coloring
    (no ``find_all``) keeps tables of failed subtrees at depths
    1..``prefix``, up to that cell.  There the band before cell d determines
    the whole subtree below d: the cells that left the back are never read
    again, the band holds all that later colors read of cells 0..d-1, and no
    other state carries the prefix, as a quotient's parked cells and its
    all-colors cut would.  Two prefixes that leave
    one band walk the same subtree node for node, and a subtree walked to its
    end failed, or the search would have returned.  So when a path enters
    depth d with a band already in d's table, the search adds the nodes of
    that subtree instead of walking it again, and when they take it past the
    budget it stops at ``node_budget + 1`` nodes, incomplete, as the walk
    would have.  Nodes, colorings and the point where the budget stops the
    search are those of the full walk; the nodes added from tables are
    returned apart as skipped.  The table work runs only where a path enters
    or leaves those depths: ``descend`` is 0 while the path is in them, so
    each descent there takes the slower branch, and the backtrack test
    ``u < prefix`` is ``u < 0`` when there are none.  The tables hold at
    most ``_TABLE_BITS``; once they are full the search walks on without
    them.  On a wide window few prefixes repeat (on the square grid only the
    corners are unseen) and failures come soon after the prefix, so most
    entries are subtrees of a few nodes: without the bound, square (4, 3) at
    100x100 stored 416,620 entries, 110 MB, in its first 10**6 nodes.

    Returns (colorings, nodes expanded, search completed, nodes skipped).
    """
    k = s.rows
    ints, denom = s.integer_form()
    cycle = shape.cycle
    if shape.top and any(sum(row) != shape.top * denom for row in ints):
        raise ValueError("every constrained cell must see a total weight equal to each row sum of S")
    if min(min(row) for row in ints) < 0:
        raise ValueError("every entry of S must be non-negative")
    plan = shape.plans.get((ints, denom))
    if plan is None:
        if len(shape.plans) == _KEPT_PLANS:
            del shape.plans[next(iter(shape.plans))]
        plan = shape.plans[ints, denom] = _plan(shape, ints, denom)
    lines, length, span, guards, band, cellmask, head, fresh = plan
    n = len(lines[0]) * sum(count for _, count in shape.order)
    if not cycle:
        n = min(n, node_budget + 1)
    delta = _laid(lines, shape.order, n)
    reenter = cycle - length if cycle else n  # the first depth whose next cell comes back in
    park_below = n - 1 - reenter  # the depths whose parked x a later depth reads
    kept = [0] * n  # kept[u]: the band before u's color, while u has colors left
    parked = [0] * max(park_below, 0)
    color = [0] * n  # color[u]: the color cell u holds or tries last
    used = [0] * (k + 1)
    unused = k  # colors with used[c] == 0
    found: list[tuple[int, ...]] = []
    nodes = 0
    all_colors = cycle > 0
    if all_colors and k > n:
        return found, nodes, True, 0
    first = shape.first if shape.first is not None and shape.first < n else None  # if laid down
    if pin_first and first is not None:  # a row of its own, trying color 1 alone
        delta[first] = [1] + delta[first][1:]
    last = n - 1
    room = _TABLE_BITS // (length * span + 1024)  # table entries left
    # the depths 1..prefix keep tables of failed subtrees
    prefix = first if first and room and k > 1 and not (cycle or find_all) else 0
    tables: list[dict[int, int]] = [{} for _ in range(prefix)]  # tables[u]: band at depth u + 1 -> nodes
    entered: list[tuple[int, int]] = [(0, 0)] * prefix  # entered[u]: (band, nodes) on entering depth u + 1
    skipped = 0
    descend = last if prefix == 0 else 0  # a descent from u < descend needs no table
    u = 0
    while True:
        c = color[u] + 1
        row = delta[u]
        if c > row[0]:  # back up; this branch comes first so that the loop's hot jumps stay short
            u -= 1
            if u < prefix:  # leaving depth u + 1, whose subtree failed
                if u < 0:
                    return found, nodes, True, skipped
                after, start = entered[u]
                tables[u][after] = nodes - start
                room -= 1
                if room:
                    descend = 0
                else:  # the tables are full: walk on without them
                    prefix, descend = 0, last
            band = kept[u]
            if all_colors:
                c = color[u]
                used[c] -= 1
                if not used[c]:
                    unused += 1
            continue
        color[u] = c
        nodes += 1
        if nodes > node_budget:
            return found, nodes, False, skipped
        x = band - row[c]
        if x & guards != guards:
            continue
        if all_colors and unused - (not used[c]) > last - u:
            continue
        if c < row[0]:  # a last color's band is never searched from: a one-color path keeps none
            kept[u] = band
        if u < descend:
            if all_colors:
                if not used[c]:
                    unused -= 1
                used[c] += 1
            if u < park_below:
                parked[u] = x
            if u < reenter:
                band = x >> span | fresh
            else:
                band = x >> span | (parked[u - reenter] & cellmask) << head
            u += 1
            color[u] = 0
            continue
        if u == last:
            found.append(tuple(color))
            if not find_all:
                return found, nodes, True, skipped
            continue
        # u < prefix, in a window: depth u + 1 has a table
        after = x >> span | fresh
        seen = tables[u].get(after)
        if seen is not None:
            nodes += seen
            skipped += seen
            if nodes > node_budget:  # the walk would have stopped in that subtree, one node past the budget
                return found, node_budget + 1, False, skipped - (nodes - node_budget - 1)
            continue
        entered[u] = (after, nodes)
        if u + 1 == prefix:
            descend = last
        band = after
        u += 1
        color[u] = 0


@lru_cache(maxsize=_KEPT_SHAPES)
def _quotient(spec: GridSpec, basis: tuple[tuple[int, int], ...]) -> tuple[Neighbors, _Shape]:
    """The grid's quotient by the lattice with Hermite basis ``basis``: neighbor lists and shape.

    Vertex u's list is who sees u, as the quotient is symmetric.  The shape
    is one line of every cell; each offset w - u is the residue modulo the
    cycle nearest to zero, and equal cells are one shared tuple.  A list
    counts the offsets, so every cell sees the valency.
    """
    nbrs = _lattice_neighbors(spec, basis)
    n = len(nbrs)
    half = n // 2
    shared: dict[Cell, Cell] = {}
    cells = ((True, tuple(((w - u + half) % n - half, a) for w, a in row)) for u, row in enumerate(nbrs))
    line = tuple(shared.setdefault(cell, cell) for cell in cells)
    return nbrs, _Shape((line,), ((0, 1),), spec.valency, 0, n)


def _quotient_colorings(
    spec: GridSpec, basis: tuple[tuple[int, int], ...], s: RationalMatrix, *, find_all: bool, node_budget: int
) -> tuple[list[Coloring], int, bool]:
    """Colorings in all k colors meeting S of the grid's quotient by the lattice with Hermite basis ``basis``.

    Unless ``find_all``, cell 0 is pinned to color 1, since some translate of
    any coloring puts color 1 there; the first coloring and its nodes are
    the unpinned search's, which tries color 1 first.  The last
    ``_KEPT_SHAPES`` quotients of at most ``_KEPT_QUOTIENT_CELLS`` cells are
    kept, neighbor lists and shape; those grow with the cells, so a larger
    quotient is built for its search alone.
    """
    (a, _), (_, d) = basis
    nbrs, shape = (_quotient if a * d <= _KEPT_QUOTIENT_CELLS else _quotient.__wrapped__)(spec, basis)
    k = s.rows
    found, nodes, complete, _ = _backtrack(
        s, shape, pin_first=not find_all, find_all=find_all, node_budget=node_budget
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
    ints, d = s.integer_form()
    if any(sum(row) != valency * d for row in ints):
        raise ValueError(f"target rows must sum to the valency {valency}")
    for i, row in enumerate(ints):  # rows summing to the valency and no entry below 0: all in 0..valency
        for j, x in enumerate(row):
            if x < 0:
                raise ValueError(f"target entry {s[i, j]} in row {i + 1}, column {j + 1} is negative")
    return s


def _check_two_color_target(params: TwoColorParams, r: int | Fraction) -> None:
    """Raise as ``_target_matrix`` does unless params.r == r and 0 <= b, c <= r; every scan runs this."""
    b, c = params.b, params.c
    if params.r != r or not (0 <= b.numerator <= r * b.denominator and 0 <= c.numerator <= r * c.denominator):
        _target_matrix(params, r)


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
    Unless ``find_all``, it is pinned by translation.  ``node_budget`` caps
    its nodes, one per cell for a witness, so a larger torus is not built.
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
        spec, ((p, 0), (0, q)), s, find_all=find_all, node_budget=node_budget
    )
    detail = f"torus {periods[0]}x{periods[1]}, {len(witnesses)} witness(es)"
    if not complete:
        detail += ", node budget exhausted"
    status = SearchStatus.WITNESS if witnesses else SearchStatus.INCONCLUSIVE
    return SearchOutcome(status, tuple(witnesses), SearchStats(nodes, complete, detail))


# --- two-color rejection over a window of differences -------------------------


class GridClass(NamedTuple):
    """One (h, adjacent) class of differences and the window verdict all its differences share."""

    h: int
    adjacent: bool
    verdict: FilterVerdict


@dataclass(frozen=True)
class GridRejectReport:
    verdict: FilterVerdict
    classes: tuple[GridClass, ...]  # the kept table's, the class (0, False) first
    window: int
    kept: dict[tuple[int, int], int]  # the kept table, delta -> class index, shared by every report on the grid
    monochromatic: tuple[tuple[int, int], ...]
    note: str | None = None

    def rows(self) -> Iterator[tuple[tuple[int, int], int]]:
        """(delta, class index) for each delta > (0, 0) with max(|dx|, |dy|) <= window, in sorted order."""
        w = self.window
        for delta in product(range(w + 1), range(-w, w + 1)):
            if delta > (0, 0):
                yield delta, self.kept.get(delta, 0)  # class 0 is (0, False), outside the kept table


def _coset_sizes(offsets: frozenset[tuple[int, int]], g: tuple[int, int]) -> list[int]:
    """Sizes of offset classes modulo the rank-1 lattice Z*g, g = (a, b), by least residue:
    (x mod a, y - (x // a)*b) as in ``_lattice_neighbors``, or (x, y mod b) when a = 0."""
    a, b = g
    if a:
        residues = ((x % a, y - x // a * b) for x, y in offsets)
    else:
        residues = ((x, y % b) for x, y in offsets)
    return list(Counter(residues).values())


@lru_cache(maxsize=8)
def _delta_table(spec: GridSpec) -> tuple[tuple[PairContext, ...], dict[tuple[int, int], int]]:
    """(pair contexts, kept table): one context per (h, adjacent) class, and the class
    index of each delta > (0, 0) in offsets | (offsets - offsets), in sorted order.

    Any other difference has no common neighbor and is no offset, so its class (0, False),
    put first, never fires: its window 0 <= b+c <= 2r holds for every b, c in 0..r.  The
    tables of the last eight grids are kept.
    """
    offsets = spec.offsets
    deltas = {d for d in offsets | {(x - u, y - v) for x, y in offsets for u, v in offsets} if d > (0, 0)}
    classes = {(0, False): 0}
    kept = {delta: classes.setdefault(grid_h(spec, delta), len(classes)) for delta in sorted(deltas)}
    return tuple(PairContext(Fraction(spec.valency), h, adjacent) for h, adjacent in classes), kept


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
    delta.  The check reads delta only through its (h, adjacent) class, so it
    runs once per class of the grid's kept table, which holds the only
    differences that can fire; the report holds one verdict per class and
    derives the window's rows.  Consequences drawn from the invariant directions:

    * full-rank direction lattice: the coloring factors through the finite
      quotient, which is searched outright, pinned by translation, for the
      parameters; renaming colors maps (c, b)-colorings onto (b, c)-colorings,
      so an empty search is a proof of nonexistence in both orientations;
    * rank one: neighbors of a vertex fall into classes that are forced
      monochromatic, so b and c must each be a subset sum of the class
      sizes; otherwise nonexistence again.

    INFEASIBLE verdicts here are proofs; FEASIBLE only means no bound in
    the window fired, and INCONCLUSIVE means directions fired without a
    contradiction within ``node_budget``, which caps the quotient search;
    a quotient with more vertices is not built.  As in the searches
    (``_target_matrix``), r is the valency and b, c lie in 0..r.
    ``window`` (default twice the offsets' radius) must be at least 1.
    """
    _check_two_color_target(params, spec.valency)
    _check_node_budget(node_budget)
    b, c = params.b, params.c
    if window is not None and window < 1:
        raise ValueError(f"the window must be at least 1, not {window}")
    contexts, kept = _delta_table(spec)
    w = 2 * spec.radius if window is None else window
    classes = tuple([GridClass(ctx.h, ctx.adjacent, two_color_check(ctx, params)) for ctx in contexts])
    forced = [cls.verdict.infeasible for cls in classes]
    mono = tuple([delta for delta, k in kept.items() if forced[k] and max(delta[0], abs(delta[1])) <= w])

    def report(verdict: FilterVerdict, note: str | None = None) -> GridRejectReport:
        return GridRejectReport(verdict, classes, w, kept, mono, note)

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
            spec, tuple(basis), params.matrix(), find_all=False, node_budget=node_budget
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
    sums = {0}  # the sums of subsets of the classes
    for size in sizes:
        sums |= {x + size for x in sums}
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

    The node count is that of the whole tree, including the failed subtrees
    before the first interior cell that the engine counts from its tables
    rather than walks again (see ``_backtrack``).

    For a (b, c) target the first interior cell's color is pinned to 1 and,
    when b != c, the swapped orientation (c, b) is searched as well; a plane
    coloring whose restriction colors that cell 2 turns into a valid
    pinned coloring of the swapped orientation, so the pair of runs is
    still exhaustive.  The swapped matrix is S with its rows and columns
    swapped.  Explicit matrix targets are searched unpinned.

    Both runs read one window shape, kept between calls with the engine's
    plan for each S (see ``_window`` and ``_backtrack``), and each lays
    down only the cells its budget reaches.
    """
    width, height = size
    if width < 1 or height < 1:
        raise ValueError("patch dimensions must be positive")
    _check_node_budget(node_budget)
    shape = _window(spec, width, height)
    if shape.first is None:
        raise ValueError("patch too small: no cell has its whole neighborhood inside")

    s = _target_matrix(target, spec.valency)
    runs = [(s, not isinstance(target, RationalMatrix))]
    ints, d = s.integer_form()
    if runs[0][1] and ints[0][1] != ints[1][0]:  # b != c: (c, b) is S with rows and columns swapped
        runs.append((RationalMatrix.from_integer_form(tuple(row[::-1] for row in ints[::-1]), d), True))

    total_nodes = total_skipped = 0
    for s, pin_first in runs:
        found, nodes, complete, skipped = _backtrack(
            s, shape, pin_first=pin_first, node_budget=node_budget - total_nodes
        )
        total_nodes += nodes
        total_skipped += skipped
        if found or not complete:
            what = "a valid window coloring exists" if found else "node budget exhausted"
            return SearchOutcome(
                SearchStatus.INCONCLUSIVE,
                (),
                SearchStats(total_nodes, complete, f"patch {width}x{height}: {what}", total_skipped),
            )
    return SearchOutcome(
        SearchStatus.REJECTED,
        (),
        SearchStats(
            total_nodes,
            True,
            f"patch {width}x{height}: no valid window coloring in any orientation",
            total_skipped,
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
    identity = ((1, 0), (0, 1))
    spanning = [(e1, e2) for e1, e2 in combinations(offs, 2) if e1[0] * e2[1] - e1[1] * e2[0]]
    if not spanning:
        return (identity,)
    e1, e2 = spanning[0]
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
) -> tuple[int, ...]:
    """Canonical form of the plane coloring induced by a torus coloring.

    The torus coloring extends to the plane by periodicity; its orbit under
    translations, color renamings and the lattice's point symmetries is
    canonicalized as the least color sequence over a modulus-by-modulus
    window.  Both periods must divide the modulus so the window determines
    the coloring.  Two witnesses are the same pattern up to those motions
    iff their canonical forms are equal.
    """
    p, q = periods
    if modulus % p or modulus % q:
        raise ValueError("modulus must be a multiple of both periods")
    colors = coloring.colors

    def at(x: int, y: int) -> int:
        return colors[(x % p) * q + (y % q)]

    best: tuple[int, ...] | None = None
    for (a, b), (c, d) in offset_automorphisms(spec):
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
