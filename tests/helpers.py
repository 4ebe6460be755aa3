"""Shared test oracles: direct neighbor counting on explicit patches/segments.

These deliberately avoid the quotient machinery and the search engine, and
import nothing from ``perfcolor.periodic``, so that quotient-based parameter
computations and searches can be checked against an independent route.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm

from perfcolor.coloring import Coloring
from perfcolor.ratmat import RationalMatrix


def grid_params_by_patch_count(
    spec, periods: tuple[int, int], coloring: Coloring, patch: int = 20
) -> RationalMatrix | None:
    """Parameters of a doubly periodic grid coloring via explicit patch counting.

    ``spec`` gives the grid's ``offsets`` and their ``radius``.  Lays out a
    patch x patch window colored by periodic extension and counts neighbor
    colors directly at every cell whose neighbors stay inside.  Returns
    None when some class has inconsistent counts.
    """
    p, q = periods
    k = coloring.k
    window = [
        [coloring.colors[(x % p) * q + (y % q)] for y in range(patch)] for x in range(patch)
    ]
    rad = spec.radius
    rows: list[list[Fraction] | None] = [None] * k
    for x in range(rad, patch - rad):
        for y in range(rad, patch - rad):
            sums = [Fraction(0)] * k
            for ox, oy in spec.offsets:
                sums[window[x + ox][y + oy] - 1] += 1
            i = window[x][y] - 1
            if rows[i] is None:
                rows[i] = sums
            elif rows[i] != sums:
                return None
    if any(r is None for r in rows):
        return None
    return RationalMatrix(rows)  # type: ignore[arg-type]


def circulant_params_by_segment_count(
    spec, period: int, coloring: Coloring, segment: int = 100
) -> RationalMatrix | None:
    """Parameters of a periodic circulant coloring via counting on a segment.

    ``spec.ds`` is the connection multiset.
    """
    k = coloring.k
    line = [coloring.colors[x % period] for x in range(segment)]
    rad = max(spec.ds)
    rows: list[list[Fraction] | None] = [None] * k
    for x in range(rad, segment - rad):
        sums = [Fraction(0)] * k
        for d in spec.ds:
            sums[line[x + d] - 1] += 1
            sums[line[x - d] - 1] += 1
        i = line[x] - 1
        if rows[i] is None:
            rows[i] = sums
        elif rows[i] != sums:
            return None
    if any(r is None for r in rows):
        return None
    return RationalMatrix(rows)  # type: ignore[arg-type]


def normalized_coloring(colors: tuple[int, ...]) -> Coloring:
    """Relabel arbitrary positive color values to 1..k by first appearance."""
    relabel: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in relabel:
            relabel[c] = len(relabel) + 1
        out.append(relabel[c])
    return Coloring(tuple(out), len(relabel))


def _brute_force_colorings(neighbors, checked, rows):
    """Yield every coloring in which each checked cell sees exactly its row.

    ``neighbors[u]`` lists the cells u sees, with repeats for multiple edges;
    colors run 1..len(rows) and all k^n colorings are tried.
    """
    k = len(rows)
    for colors in product(range(1, k + 1), repeat=len(neighbors)):
        if all(
            [sum(colors[w] == j for w in neighbors[u]) for j in range(1, k + 1)]
            == list(rows[colors[u] - 1])
            for u in checked
        ):
            yield colors


def brute_force_torus_colorings(offsets, periods, rows) -> set[tuple[int, ...]]:
    """All colorings of the p x q torus using every color whose cells all see their rows.

    Cell (x, y) has index x*q + y, and its neighbors are reached through the
    offsets modulo the periods.
    """
    p, q = periods
    neighbors = [
        [((x + ox) % p) * q + (y + oy) % q for ox, oy in offsets]
        for x in range(p)
        for y in range(q)
    ]
    k = len(rows)
    return {
        colors
        for colors in _brute_force_colorings(neighbors, range(p * q), rows)
        if len(set(colors)) == k
    }


def brute_force_window_colorable(offsets, size, rows) -> bool:
    """Whether some coloring of the window has every interior cell seeing its row.

    Interior cells are those whose neighbors all lie in the width x height
    window.
    """
    width, height = size
    cells = [(x, y) for y in range(height) for x in range(width)]
    index = {cell: u for u, cell in enumerate(cells)}
    neighbors = [
        [index[(x + ox, y + oy)] for ox, oy in offsets if (x + ox, y + oy) in index]
        for x, y in cells
    ]
    interior = [u for u, nbrs in enumerate(neighbors) if len(nbrs) == len(offsets)]
    return next(_brute_force_colorings(neighbors, interior, rows), None) is not None


def window_by_coordinates(offsets, width, height):
    """Constrained flags, interior cells and constrained targets of a width x height window.

    Cells are found through a dict from coordinates to indices: cell (x, y) is
    y*width + x, and it is constrained when every offset keeps it inside.  Cell
    u's targets are (w, 1) for each constrained cell w that u sees, in offset
    order; with offsets closed under negation those are the cells that see u.
    """
    cells = [(x, y) for y in range(height) for x in range(width)]
    index = {cell: u for u, cell in enumerate(cells)}
    constrained = [all((x + ox, y + oy) in index for ox, oy in offsets) for x, y in cells]
    interior = [u for u, inside in enumerate(constrained) if inside]
    targets = [
        [
            (index[(x + ox, y + oy)], 1)
            for ox, oy in offsets
            if (x + ox, y + oy) in index and constrained[index[(x + ox, y + oy)]]
        ]
        for x, y in cells
    ]
    return constrained, interior, targets


def circulant_class_rows(ds, colors) -> list[list[int]] | None:
    """Color-wise neighbor counts per color on Z_T, or None if a class disagrees.

    Vertex x sees x + d and x - d modulo T = len(colors) for each d in ds,
    counted with multiplicity; the row of a color is that of its lowest vertex.
    """
    period, k = len(colors), max(colors)
    rows: list[list[int] | None] = [None] * k
    for x, c in enumerate(colors):
        sums = [0] * k
        for d in ds:
            sums[colors[(x + d) % period] - 1] += 1
            sums[colors[(x - d) % period] - 1] += 1
        if rows[c - 1] is None:
            rows[c - 1] = sums
        elif rows[c - 1] != sums:
            return None
    return rows  # type: ignore[return-value]


def rotation_renaming_canonical(colors: tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation of the colors, each rotation renamed 1, 2, ... by first appearance."""
    return min(
        normalized_coloring(colors[s:] + colors[:s]).colors for s in range(len(colors))
    )


def translates_onto(first, second) -> bool:
    """Whether a translation followed by a color renaming maps one doubly periodic coloring onto another.

    Each is (periods, colors) of a p x q torus coloring extended to the
    plane, cell (x, y) taking colors[(x % p) * q + y % q].  Both are periodic
    on the lcm of their periods, so that window decides.
    """
    (p, q), colors = first
    (pp, qq), others = second
    cells = list(product(range(lcm(p, pp)), range(lcm(q, qq))))
    for tx, ty in product(range(p), range(q)):
        pairs = {(colors[(x + tx) % p * q + (y + ty) % q], others[x % pp * qq + y % qq]) for x, y in cells}
        if len(pairs) == len(dict(pairs)) == len({b for _, b in pairs}):  # a renaming, one-to-one
            return True
    return False


def brute_force_circulant_census(ds, period, k) -> list[tuple[tuple[int, ...], list[list[int]]]]:
    """(canonical colors, class rows) of every perfect coloring of Z_period in at most k colors.

    Tries all k^period colorings, keeps the perfect ones, and lists their
    canonical forms once each in lexicographic order.
    """
    canonical = {
        rotation_renaming_canonical(colors)
        for colors in product(range(1, k + 1), repeat=period)
        if circulant_class_rows(ds, colors) is not None
    }
    return [(colors, circulant_class_rows(ds, colors)) for colors in sorted(canonical)]


def reference_census(ds, period, k) -> tuple[list[tuple[tuple[int, ...], list[list[int]]]], int]:
    """(entries, nodes) of a census of Z_period that breaks rotation only at its leaves.

    Positions are colored in turn as a restricted-growth string, smallest
    color first.  Vertex x sees x + d and x - d for each d in ``ds``; once x
    and all it sees are colored, its color-wise counts must equal those of
    the first vertex of its color so checked.  A complete string is kept when
    no rotation, renamed by first appearance, is smaller; rotations are
    compared in turn, position by position, until one is smaller or one
    renames to the string itself.  Each color tried is one node, and so is
    each position compared.  Entries are (colors, class rows) in the order
    found.
    """
    sees = [Counter((x + o) % period for d in ds for o in (d, -d)) for x in range(period)]
    ready = [[] for _ in range(period)]  # vertices whose last neighbor is colored at a position
    for x in range(period):
        ready[max(x, *sees[x])].append(x)
    colors = [0] * period
    row: list[list[int] | None] = [None] * (k + 1)
    found = []
    nodes = 0

    def least(t):
        nonlocal nodes
        for s in range(1, period):
            relabel: dict[int, int] = {}
            for i in range(period):
                nodes += 1
                c = relabel.setdefault(t[(s + i) % period], len(relabel) + 1)
                if c != t[i]:
                    if c < t[i]:
                        return False
                    break
            else:
                return True
        return True

    def check(x, set_here):
        counts = [0] * (k + 1)
        for w, a in sees[x].items():
            counts[colors[w]] += a
        if row[colors[x]] is None:
            row[colors[x]] = counts
            set_here.append(colors[x])
        return row[colors[x]] == counts

    def extend(p, top):
        nonlocal nodes
        if p == period:
            t = tuple(colors)
            rows = circulant_class_rows(ds, t) if least(t) else None
            if rows is not None:
                found.append((t, rows))
            return
        for c in range(1, min(k, top + 1) + 1):
            nodes += 1
            colors[p] = c
            set_here: list[int] = []
            if all(check(x, set_here) for x in ready[p]):
                extend(p + 1, max(top, c))
            for j in set_here:
                row[j] = None

    extend(0, 0)
    return found, nodes


def product_witness(m, p, s) -> tuple[int, int] | None:
    """First (vertex, 1-based color) where M P and P S differ, by explicit Fraction products.

    ``m``, ``p`` and ``s`` are lists of rows; None when M P = P S.
    """
    def times(a, b):
        return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]

    mp, ps = times(m, p), times(p, s)
    for v, (left, right) in enumerate(zip(mp, ps)):
        for j, (x, y) in enumerate(zip(left, right)):
            if x != y:
                return v, j + 1
    return None


def circulant_h_by_counting(ds, t: int) -> int:
    """Common neighbors of 0 and t in the circulant multigraph, as a multiset intersection."""
    around_0 = Counter(x for d in ds for x in (d, -d))
    around_t = Counter(x for d in ds for x in (t + d, t - d))
    return sum((around_0 & around_t).values())


def lattice_neighbor_counts(offsets, basis) -> list[list[tuple[int, int]]]:
    """Neighbor lists of Z^2 modulo the lattice spanned by basis = [(a, b), (0, d)].

    The class of (x, y), 0 <= x < a and 0 <= y < d, is vertex x*d + y.  Each
    offset step from a representative is matched to the representative it
    differs from by a lattice vector, tested by solving for the coefficients
    of the basis.  Vertex v lists (w, number of offsets taking v to w), by w.
    """
    (a, b), (_, d) = basis
    reps = [(x, y) for x in range(a) for y in range(d)]

    def in_lattice(vx, vy):
        # (vx, vy) = s*(a, b) + t*(0, d) with integers s and t
        return vx % a == 0 and (vy - (vx // a) * b) % d == 0

    out = []
    for x, y in reps:
        counts = Counter()
        for ox, oy in offsets:
            hits = [w for w, (rx, ry) in enumerate(reps) if in_lattice(x + ox - rx, y + oy - ry)]
            assert len(hits) == 1
            counts[hits[0]] += 1
        out.append(sorted(counts.items()))
    return out


def lattice_points_by_walking(vectors, radius) -> set[tuple[int, int]]:
    """Points with |x|, |y| <= radius that a walk of steps +-v, v in vectors, reaches from the
    origin without leaving that box: each is in the lattice the vectors generate.

    Conversely, a lattice point is a sum of such steps, and by the Steinitz lemma (constant 2 in
    the plane) the steps can be ordered so that every partial sum stays within 2 max|v| + 1, in
    max norm, of the segment to the point.  So every lattice point at least that far inside the
    box is found.
    """
    steps = {(sx * x, sx * y) for x, y in vectors for sx in (1, -1) if (x, y) != (0, 0)}
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x, y = frontier.pop()
        for dx, dy in steps:
            point = (x + dx, y + dy)
            if abs(point[0]) <= radius and abs(point[1]) <= radius and point not in seen:
                seen.add(point)
                frontier.append(point)
    return seen


def reference_backtrack(rows, affected, constrained, allowed, *, all_colors, find_all, node_budget):
    """(colorings, nodes, complete) of a plain recursive search by the engine's stated rule.

    ``rows`` are the rows of S (any exact numbers), ``affected[u]`` lists
    (w, weight) for each constrained cell w that sees cell u, and cells
    0..len(allowed)-1 are colored in index order, cell u trying the colors
    ``allowed[u]`` in order.  Each color tried is one node; past
    ``node_budget`` nodes the search stops, incomplete.  A branch ends when
    some colored constrained cell sees more weight of a color than its row
    allows, recounted from scratch over every colored cell, or, with
    ``all_colors``, when the colors not yet used outnumber the cells left.
    Complete colorings are collected in order, only the first unless
    ``find_all``.
    """
    n, k = len(allowed), len(rows)
    sees = [[] for _ in constrained]  # sees[w]: (u, weight) for the cells u that w sees
    for u, column in enumerate(affected):
        for w, weight in column:
            sees[w].append((u, weight))
    colors = [0] * n
    found = []
    nodes = 0

    class OutOfBudget(Exception):
        pass

    def over(w):
        counts = [0] * (k + 1)
        for u, weight in sees[w]:
            if colors[u]:
                counts[colors[u]] += weight
        return any(counts[j] > rows[colors[w] - 1][j - 1] for j in range(1, k + 1))

    def extend(u):
        """Color cells u.. in turn; True once a first coloring ends the search."""
        nonlocal nodes
        if all_colors and len(set(range(1, k + 1)) - set(colors[:u])) > n - u:
            return False
        if u == n:
            found.append(tuple(colors))
            return not find_all
        for c in allowed[u]:
            nodes += 1
            if nodes > node_budget:
                raise OutOfBudget
            colors[u] = c
            if not any(constrained[w] and colors[w] and over(w) for w in range(n)):
                if extend(u + 1):
                    return True
            colors[u] = 0
        return False

    try:
        extend(0)
    except OutOfBudget:
        return found, nodes, False
    return found, nodes, True


def grid_h_by_counting(offsets, delta) -> tuple[int, bool]:
    """Common neighbors of (0, 0) and delta, counted over the cells around both, and adjacency.

    A cell z is a neighbor of x when z - x is one of the offsets.
    """
    reach = max(max(abs(x), abs(y)) for x, y in offsets)
    dx, dy = delta
    box = product(
        range(min(0, dx) - reach, max(0, dx) + reach + 1),
        range(min(0, dy) - reach, max(0, dy) + reach + 1),
    )
    common = sum(
        (zx, zy) in offsets and (zx - dx, zy - dy) in offsets for zx, zy in box
    )
    return common, (dx, dy) in offsets


def coset_sizes_pairwise(offsets, g) -> list[int]:
    """Sizes of offset classes modulo the rank-1 lattice Z*g, grouped pair by pair.

    Two offsets share a class when their difference is an integer multiple
    of g, tested directly on the difference.
    """
    gx, gy = g
    remaining = list(offsets)
    sizes = []
    while remaining:
        o = remaining.pop()
        cls = [o]
        rest = []
        for other in remaining:
            dx, dy = o[0] - other[0], o[1] - other[1]
            if gx:
                multiple = dx % gx == 0 and dy == (dx // gx) * gy
            else:
                multiple = dx == 0 and dy % gy == 0
            (cls if multiple else rest).append(other)
        remaining = rest
        sizes.append(len(cls))
    return sizes
