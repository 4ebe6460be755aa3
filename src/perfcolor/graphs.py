"""Finite graphs with exact rational adjacency matrices.

A graph here is just a square matrix plus optional vertex labels.  The
``simple`` flag marks the classical case (symmetric 0/1 adjacency, zero
diagonal); operations that only make sense for simple graphs guard on it
and fail loudly.  Weighted graphs and multigraphs are handled by letting
adjacency entries be arbitrary rationals / positive integers.

Distance-regularity is detected by checking the definition over all vertex
pairs rather than spectrally; at the sizes this package targets the
all-pairs check is instant and doubles as a test oracle.  The sphere
polynomials come from the standard three-term recurrence

    c_{r+1} p_{r+1}(x) = (x - a_r) p_r(x) - b_{r-1} p_{r-1}(x),
    p_0 = 1,  p_1 = x,

and ball polynomials are their prefix sums.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .ratmat import Polynomial, RationalMatrix, rat

__all__ = [
    "DistancePolynomials",
    "Graph",
    "IntersectionArray",
    "complete",
    "cycle",
    "distance_matrices",
    "distance_polynomials",
    "distance_table",
    "from_edges",
    "intersection_array",
    "petersen",
]

ZERO = Fraction(0)


@dataclass(frozen=True)
class Graph:
    adjacency: RationalMatrix
    simple: bool = False
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        m = self.adjacency
        if not m.is_square:
            raise ValueError("adjacency matrix must be square")
        if type(self.simple) is not bool:
            raise ValueError(f"simple must be true or false, not {self.simple!r}")
        if self.labels is not None and len(self.labels) != m.rows:
            raise ValueError("label count must equal the number of vertices")
        if self.simple and (defect := _simple_defect(m)):
            raise ValueError(defect)

    @property
    def n(self) -> int:
        return self.adjacency.rows

    def to_json(self) -> dict:
        obj: dict = {"adjacency": self.adjacency.to_json(), "simple": self.simple}
        if self.labels is not None:
            obj["labels"] = list(self.labels)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Graph":
        labels = tuple(obj["labels"]) if "labels" in obj else None
        if "adjacency" in obj:
            adj = RationalMatrix.from_json(obj["adjacency"])
            simple = obj.get("simple")
            if simple is None:
                simple = _simple_defect(adj) is None
            return cls(adj, simple=simple, labels=labels)
        if "edges" in obj:
            return from_edges(
                obj["n"],
                [tuple(e) for e in obj["edges"]],
                simple=obj.get("simple", True),
                labels=labels,
            )
        raise ValueError("graph JSON needs an 'adjacency' or 'edges' field")


def _simple_defect(m: RationalMatrix) -> str | None:
    """Why the square matrix m is not the adjacency of a simple graph, or None if it is."""
    ints, d = m.integer_form()
    for i, row in enumerate(ints):
        if row[i] != 0:
            return "simple graph must have a zero diagonal"
        for j in range(i + 1, len(row)):
            if row[j] != ints[j][i]:
                return "simple graph must be symmetric"
            if row[j] != 0 and row[j] != d:
                return "simple graph entries must be 0 or 1"
    return None


def from_edges(n, edges, simple=True, labels=None) -> Graph:
    """Build a graph from (u, v) or (u, v, weight) tuples.

    When ``simple`` the symmetric closure is applied and weights must stay
    0/1; otherwise entries accumulate, so repeated edges make multigraphs.
    """
    grid = [[0] * n for _ in range(n)]
    for edge in edges:
        u, v = edge[0], edge[1]
        w = rat(edge[2]) if len(edge) > 2 else 1
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {edge} out of range for n={n}")
        if simple:
            grid[u][v] = w
            grid[v][u] = w
        else:
            grid[u][v] += w
    return Graph(RationalMatrix(grid), simple=simple, labels=labels)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return from_edges(n, list(combinations(range(n), 2)))


def petersen() -> Graph:
    """Kneser construction: vertices are 2-subsets of {0..4}, disjoint sets adjacent."""
    verts = list(combinations(range(5), 2))
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[a], index[b])
        for a, b in combinations(verts, 2)
        if not (set(a) & set(b))
    ]
    labels = tuple("{%d,%d}" % v for v in verts)
    return from_edges(10, edges, labels=labels)


def distance_table(g: Graph) -> list[list[int]]:
    """All-pairs BFS distances of a simple graph; -1 marks unreachable pairs."""
    if not g.simple:
        raise ValueError("distances are defined for simple graphs only")
    ints, d = g.adjacency.integer_form()
    nbrs = [[w for w, a in enumerate(row) if a == d] for row in ints]
    out = []
    for s in range(len(nbrs)):
        dist = [-1] * len(nbrs)
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        out.append(dist)
    return out


def distance_matrices(g: Graph) -> tuple[RationalMatrix, ...]:
    """0/1 matrices A_0..A_d with A_r[u,v] = 1 iff dist(u,v) = r."""
    dist = distance_table(g)
    d = max(max(row) for row in dist)
    if any(x < 0 for row in dist for x in row):
        raise ValueError("distance matrices require a connected graph")
    return tuple(
        RationalMatrix.from_integer_form(tuple(tuple(int(x == r) for x in row) for row in dist))
        for r in range(d + 1)
    )


@dataclass(frozen=True)
class IntersectionArray:
    """Distance-regularity data: b = (b_0..b_{d-1}), c = (c_1..c_d)."""

    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.b) != len(self.c) or not self.b:
            raise ValueError("b and c sequences must have equal positive length")
        if any(x <= 0 for x in self.b) or any(x <= 0 for x in self.c):
            raise ValueError("intersection numbers must be positive")
        for i in range(self.d + 1):
            if self.a(i) < 0:
                raise ValueError(f"a_{i} = b_0 - b_{i} - c_{i} must be non-negative")

    @property
    def d(self) -> int:
        return len(self.b)

    def b_at(self, i: int) -> Fraction:
        # b_d := 0
        return self.b[i] if i < self.d else ZERO

    def c_at(self, i: int) -> Fraction:
        # c_0 := 0
        return self.c[i - 1] if i >= 1 else ZERO

    def a(self, i: int) -> Fraction:
        return self.b[0] - self.b_at(i) - self.c_at(i)


def intersection_array(g: Graph, dist: list[list[int]] | None = None) -> IntersectionArray | None:
    """Detect distance-regularity by definition-checking all vertex pairs.

    Returns None whenever the array does not exist, which covers
    non-simple, disconnected, and irregular inputs as well as genuinely
    non-distance-regular graphs.  ``dist``, when given, is
    ``distance_table(g)``, so a caller that needs both runs one BFS.
    The pair (c_r, b_r) seen first at distance r must hold for every pair
    at that distance; at r = 0 it is (0, deg u), so regularity is one case.
    """
    if not g.simple:
        return None
    if dist is None:
        dist = distance_table(g)
    if any(x < 0 for row in dist for x in row):
        return None
    nbrs = [[w for w, x in enumerate(row) if x == 1] for row in dist]
    steps: dict[int, tuple[int, int]] = {}  # r -> (c_r, b_r)
    for dist_u in dist:
        for r, nbrs_v in zip(dist_u, nbrs):
            # a neighbor w of v has dist(u, w) in r-1..r+1
            closer = farther = 0
            for w in nbrs_v:
                x = dist_u[w]
                if x < r:
                    closer += 1
                elif x > r:
                    farther += 1
            step = (closer, farther)
            if steps.setdefault(r, step) != step:
                return None
    d = len(steps) - 1  # BFS distances fill 0..d
    if d == 0:
        return None
    c, b = zip(*(steps[r] for r in range(d + 1)))  # c_0..c_d and b_0..b_d
    return IntersectionArray(tuple(map(Fraction, b[:d])), tuple(map(Fraction, c[1:])))


@dataclass(frozen=True)
class DistancePolynomials:
    """sphere[r](M) indicates distance-r pairs; ball[r] = sum of spheres 0..r."""

    sphere: tuple[Polynomial, ...]
    ball: tuple[Polynomial, ...]


def distance_polynomials(ia: IntersectionArray) -> DistancePolynomials:
    """Sphere polynomials by c_{r+1} p_{r+1} = (x - a_r) p_r - b_{r-1} p_{r-1}, and their running sums.

    The recurrence runs over integer coefficient lists: with the intersection
    numbers over one common denominator L (A_r = L a_r, and so on), p_r is
    q_r / D_r, where q_{r+1} = (L x - A_r) q_r - B_{r-1} (D_r / D_{r-1}) q_{r-1}
    and D_{r+1} = D_r C_{r+1}.  The ``Polynomial``s are built once, at the end.
    """
    scale = lcm(*(x.denominator for x in ia.b + ia.c))  # a_r = b_0 - b_r - c_r shares it

    def scaled(x: Fraction) -> int:
        return x.numerator * (scale // x.denominator)

    spheres, denominators = [[1]], [1]  # sphere r is spheres[r] / denominators[r]
    if ia.d >= 1:
        spheres.append([0, 1])
        denominators.append(1)
    for r in range(1, ia.d):
        c_next = scaled(ia.c_at(r + 1))
        if c_next == 0:
            raise ValueError(f"c_{r + 1} is zero; malformed intersection array")
        a_r, b_back = scaled(ia.a(r)), scaled(ia.b_at(r - 1)) * (denominators[r] // denominators[r - 1])
        here, before = spheres[r], spheres[r - 1] + [0, 0]
        spheres.append([scale * x - a_r * y - b_back * z for x, y, z in zip([0] + here, here + [0], before)])
        denominators.append(denominators[r] * c_next)
    balls = [spheres[0]]  # sphere r, and so ball r, has degree r
    for r in range(1, ia.d + 1):
        ratio = denominators[r] // denominators[r - 1]
        balls.append([ratio * x + y for x, y in zip(balls[-1] + [0], spheres[r])])

    def polynomials(numerators: list[list[int]]) -> tuple[Polynomial, ...]:
        return tuple(Polynomial([Fraction(x, d) for x in q]) for q, d in zip(numerators, denominators))

    return DistancePolynomials(polynomials(spheres), polynomials(balls))
