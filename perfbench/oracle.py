"""Independent reference computations for checking benchmark outputs.

Nothing here imports perfcolor.  Every expected value the benchmark compares
against is either derived from the paper's facts or computed by these
functions with plain integer arithmetic: neighbour counting on a torus,
window or circulant quotient, a brute-force circulant census, and filter
rows rebuilt from BFS distances and walk counts.

Run as a script to regenerate ``expected.json``:

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, deque
from itertools import combinations, product
from math import gcd
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

SQUARE = ((1, 0), (-1, 0), (0, 1), (0, -1))
TRIANGULAR = SQUARE + ((1, -1), (-1, 1))
LATTICES = {"square": SQUARE, "triangular": TRIANGULAR}

# --- grids -------------------------------------------------------------------


def two_color_rows(b: int, c: int, r: int) -> list[list[int]]:
    return [[r - b, b], [c, r - c]]


def torus_neighbours(offsets, p: int, q: int) -> list[list[int]]:
    """Neighbour lists (with multiplicity) of Z_p x Z_q; (x, y) sits at x*q + y."""
    return [
        [((x + ox) % p) * q + (y + oy) % q for ox, oy in offsets]
        for x in range(p)
        for y in range(q)
    ]


def rows_match(nbrs, colors, target, vertices) -> bool:
    """Each listed vertex sees exactly its target row of neighbour colours."""
    k = len(target)
    for u in vertices:
        counts = [0] * k
        for w in nbrs[u]:
            counts[colors[w] - 1] += 1
        if counts != list(target[colors[u] - 1]):
            return False
    return True


def torus_recount(offsets, periods, colors, target) -> bool:
    p, q = periods
    nbrs = torus_neighbours(offsets, p, q)
    return len(colors) == p * q and rows_match(nbrs, colors, target, range(p * q))


def window_recount(offsets, size, colors, target) -> bool:
    """Interior cells of a width x height window (row-major) see their target rows."""
    width, height = size
    cells = {(x, y): y * width + x for y in range(height) for x in range(width)}
    nbrs, interior = [], []
    for (x, y), v in sorted(cells.items(), key=lambda item: item[1]):
        around = [cells.get((x + ox, y + oy)) for ox, oy in offsets]
        nbrs.append([w for w in around if w is not None])
        if None not in around:
            interior.append(v)
    return len(colors) == len(cells) and rows_match(nbrs, colors, target, interior)


def count_colorings(nbrs, target, first_only: bool = False) -> int:
    """Colourings using all k colours in which every vertex sees its target row.

    Vertices are coloured in index order; a branch dies as soon as some
    coloured vertex sees more of a colour than its row allows, and every
    vertex is checked exactly once its whole neighbourhood is coloured.
    """
    n, k = len(nbrs), len(target)
    closes = [[] for _ in range(n)]
    for u in range(n):
        closes[max(u, *nbrs[u])].append(u)
    watchers = [[] for _ in range(n)]
    for u in range(n):
        for w in nbrs[u]:
            watchers[w].append(u)
    color = [0] * n
    seen = [[0] * k for _ in range(n)]
    count = 0

    def over(u: int) -> bool:
        row = target[color[u] - 1]
        return any(s > t for s, t in zip(seen[u], row))

    def extend(v: int) -> bool:
        nonlocal count
        if v == n:
            if len(set(color)) == k:
                count += 1
                return first_only
            return False
        for c in range(1, k + 1):
            color[v] = c
            for u in watchers[v]:
                seen[u][c - 1] += 1
            if (
                not any(color[u] and over(u) for u in watchers[v])
                and not over(v)
                and rows_match(nbrs, color, target, closes[v])
                and extend(v + 1)
            ):
                return True
            for u in watchers[v]:
                seen[u][c - 1] -= 1
        color[v] = 0
        return False

    extend(0)
    return count


# --- circulants --------------------------------------------------------------


def circulant_neighbours(ds, period: int) -> list[list[int]]:
    return [[(x + s * d) % period for d in ds for s in (1, -1)] for x in range(period)]


def cyclic_canonical(colors) -> tuple[int, ...]:
    """Least sequence over rotations, colours renamed by first appearance."""
    n = len(colors)
    best = None
    for s in range(n):
        names: dict[int, int] = {}
        cand = tuple(names.setdefault(c, len(names) + 1) for c in colors[s:] + colors[:s])
        if best is None or cand < best:
            best = cand
    return best


def class_rows(nbrs, colors) -> list[list[int]] | None:
    """Colour-class rows of a perfect colouring, or None when it is not perfect."""
    k = max(colors)
    rows: list[list[int] | None] = [None] * k
    for u, ns in enumerate(nbrs):
        counts = [0] * k
        for w in ns:
            counts[colors[w] - 1] += 1
        i = colors[u] - 1
        if rows[i] is None:
            rows[i] = counts
        elif rows[i] != counts:
            return None
    return rows


def census_count(ds, period: int, k: int) -> int:
    """Perfect colourings of Z_period with at most k colours, up to rotation and renaming."""
    nbrs = circulant_neighbours(ds, period)
    total = 0
    for colors in product(range(1, k + 1), repeat=period):
        if colors[0] != 1 or len(set(colors)) != max(colors):
            continue
        if class_rows(nbrs, colors) is not None and cyclic_canonical(colors) == colors:
            total += 1
    return total


def period_sweep(ds, t_max: int) -> list:
    """For every (b, c), the shifts whose two-colour window fires, and their gcd."""
    r = 2 * len(ds)
    left = Counter(s * d for d in ds for s in (1, -1))
    out = []
    for b in range(1, r + 1):
        for c in range(1, r + 1):
            fired = []
            for t in range(1, t_max + 1):
                right = Counter(t + s * d for d in ds for s in (1, -1))
                h = sum((left & right).values())
                if b + c > 2 * r - h or b + c < h or (t in ds and b + c < h + 2):
                    fired.append(t)
            g = 0
            for t in fired:
                g = gcd(g, t)
            out.append([b, c, fired, g])
    return out


# --- small distance-regular graphs and their perfect colourings ---------------


def _from_edges(n, edges):
    adj = [[0] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = 1
    return adj


def named_graphs() -> dict[str, list[list[int]]]:
    graphs = {f"C{n}": _from_edges(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(5, 13)}
    for n in (4, 5, 6):
        graphs[f"K{n}"] = _from_edges(n, combinations(range(n), 2))
    pairs = list(combinations(range(5), 2))
    graphs["petersen"] = _from_edges(
        10, [(a, b) for a, b in combinations(range(10), 2) if not set(pairs[a]) & set(pairs[b])]
    )
    graphs["cube"] = _from_edges(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])
    return graphs


def distances(adj) -> list[list[int]]:
    n = len(adj)
    out = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in range(n):
                if adj[u][w] and dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        out.append(dist)
    return out


def distance_coloring(adj) -> tuple[int, ...]:
    """Colour each vertex by its distance from vertex 0: perfect in a distance-regular graph."""
    return tuple(d + 1 for d in distances(adj)[0])


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def poly_of(adj, coeffs):
    """sum_i coeffs[i] * A^i over the integers."""
    n = len(adj)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    total = [[0] * n for _ in range(n)]
    for idx, c in enumerate(coeffs):
        if idx:
            power = matmul(power, adj)
        total = [[t + c * p for t, p in zip(tr, pr)] for tr, pr in zip(total, power)]
    return total


def quotient_rows(mat, colors) -> list[list[int]]:
    """Rows of S with M P = P S, read off one vertex per class."""
    k = max(colors)
    rows: list[list[int] | None] = [None] * k
    for u, row in enumerate(mat):
        sums = [0] * k
        for w, x in enumerate(row):
            sums[colors[w] - 1] += x
        i = colors[u] - 1
        assert rows[i] in (None, sums), "colouring is not perfect for this matrix"
        rows[i] = sums
    return rows


def _l1(a, b) -> int:
    return sum(abs(x - y) for x, y in zip(a, b))


def _pair_rows(mat, quotient, colors, tag):
    n = len(mat)
    rows = []
    for u, v in combinations(range(n), 2):
        i, j = colors[u], colors[v]
        lhs, rhs = _l1(mat[u], mat[v]), _l1(quotient[i - 1], quotient[j - 1])
        rows.append((u, v, i, j, tag, "feasible" if lhs >= rhs else "infeasible", str(lhs), str(rhs)))
    return rows


def drg_rows(adj, colors, radius: int) -> list:
    """Rows of ``filter drg --coloring``: ball and sphere bounds per vertex pair."""
    dist = distances(adj)
    rows = []
    for kind, keep in (("ball", lambda d: d <= radius), ("sphere", lambda d: d == radius)):
        ind = [[int(keep(d)) for d in row] for row in dist]
        rows += _pair_rows(ind, quotient_rows(ind, colors), colors, kind)
    return rows


def power_rows(adj, colors, power: int) -> list:
    """Rows of ``filter power --coloring``: walk-count bound on M^l against S^l."""
    walks = poly_of(adj, [0] * power + [1])
    return _pair_rows(walks, quotient_rows(walks, colors), colors, f"l={power}")


def rows_digest(rows) -> str:
    return hashlib.sha256(json.dumps(sorted(rows)).encode()).hexdigest()[:16]


# --- expected.json -----------------------------------------------------------


def _must_be_infeasible(lattice: str, b: int, c: int) -> bool:
    """Pairs the paper rejects with the window scan alone."""
    if lattice == "square":
        return {b, c} == {3, 4}
    return b + c < 4 or b + c > 10


def build_expected(spec) -> dict:
    """Compute every stored expectation from the workload definitions in ``spec``."""
    expected: dict = {"reject": {}, "torus_witnesses": {}, "census": {}, "period_sweep": {}, "filter_rows": {}}
    for lattice, offsets in LATTICES.items():
        r = len(offsets)
        for b in range(1, r + 1):
            for c in range(1, r + 1):
                if _must_be_infeasible(lattice, b, c):
                    verdict = "infeasible"
                else:
                    witness = any(
                        count_colorings(torus_neighbours(offsets, p, q), two_color_rows(b, c, r), True)
                        for p in range(1, 5)
                        for q in range(1, 5)
                    )
                    verdict = "not-infeasible" if witness else "any"
                expected["reject"][f"{lattice} {b},{c}"] = verdict
    for lattice, (b, c), (p, q) in spec["torus_counts"]:
        nbrs = torus_neighbours(LATTICES[lattice], p, q)
        count = count_colorings(nbrs, two_color_rows(b, c, len(LATTICES[lattice])))
        expected["torus_witnesses"][f"{lattice} {b},{c} {p}x{q}"] = count
    for ds, period, k in spec["census"]:
        expected["census"][f"{','.join(map(str, ds))} T{period} k{k}"] = census_count(ds, period, k)
    for ds in spec["sweeps"]:
        expected["period_sweep"][",".join(map(str, ds))] = rows_digest(period_sweep(ds, spec["t_max"]))
    for name, adj in named_graphs().items():
        colors = distance_coloring(adj)
        for kind, arg in spec["filters"][name]:
            rows = drg_rows(adj, colors, arg) if kind == "drg" else power_rows(adj, colors, arg)
            assert all(row[5] == "feasible" for row in rows)
            expected["filter_rows"][f"{name} {kind}{arg}"] = rows_digest(rows)
    return expected


if __name__ == "__main__":
    import workloads

    EXPECTED_PATH.write_text(json.dumps(build_expected(workloads.ORACLE_SPEC), indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
