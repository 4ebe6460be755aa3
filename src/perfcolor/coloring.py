"""Colorings, partition matrices, and the defining product identity.

A coloring of an n-vertex graph assigns each vertex a color in 1..k, with
every color used at least once.  It is *perfect* for a parameter matrix S
when M P = P S, where M is the adjacency matrix and P the n-by-k partition
matrix; equivalently, the color-wise neighbor weight sums of a vertex
depend only on the vertex's own color.  Color indices are 1-based in every
public surface to match the usual J_1..J_k class notation; vertex indices
are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .graphs import Graph
from .ratmat import Polynomial, RationalMatrix, RatLike, rat

__all__ = [
    "Coloring",
    "PerfectColoringTriple",
    "TwoColorParams",
    "VerifyResult",
    "imperfection_witness",
    "induced_parameters",
    "make_triple",
    "partition_matrix",
    "poly_lift",
    "two_color_matrix",
    "verify_perfect",
]


@dataclass(frozen=True)
class Coloring:
    colors: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        if not self.colors:
            raise ValueError("coloring needs at least one vertex")
        if type(self.k) is not int:
            raise ValueError(f"k must be an integer, not {self.k!r}")
        if self.k < 1:
            raise ValueError("k must be positive")
        if any(type(c) is not int for c in self.colors):
            raise ValueError("colors must be integers")
        used = set(self.colors)
        if not used <= set(range(1, self.k + 1)):
            raise ValueError(f"colors must lie in 1..{self.k}")
        if used != set(range(1, self.k + 1)):
            raise ValueError("every color in 1..k must be used by some vertex")

    @classmethod
    def _unchecked(cls, colors: tuple[int, ...], k: int) -> "Coloring":
        """The coloring of ``colors`` in 1..k, each used, without the input checks: for colorings a search made."""
        f = object.__new__(cls)
        object.__setattr__(f, "colors", colors)
        object.__setattr__(f, "k", k)
        return f

    @property
    def n(self) -> int:
        return len(self.colors)

    def to_json(self) -> dict:
        return {"k": self.k, "colors": list(self.colors)}

    @classmethod
    def from_json(cls, obj: dict) -> "Coloring":
        return cls(tuple(obj["colors"]), obj["k"])


def partition_matrix(f: Coloring) -> RationalMatrix:
    """The n-by-k 0/1 matrix with a single 1 per row at the vertex's color."""
    return RationalMatrix(
        [[1 if f.colors[v] == j else 0 for j in range(1, f.k + 1)] for v in range(f.n)]
    )


Neighbors = list[list[tuple[int, int]]]  # nbrs[v]: (w, weight) for each w that v sees, by w


def _sparse_rows(m: RationalMatrix) -> tuple[Neighbors, int]:
    """The nonzero entries of each row of m as (column, a), a an integer over m's denominator d; and d."""
    ints, d = m.integer_form()
    return [[(w, a) for w, a in enumerate(row) if a] for row in ints], d


def _class_sums(
    nbrs: Neighbors, dm: int, colors: Sequence[int], k: int, s: RationalMatrix | None = None
) -> tuple[list[list[int] | None], tuple[int, list[int]] | None, int]:
    """Color-wise weight sums of each vertex, walked in index order.

    ``nbrs[v]`` lists (w, a) for each vertex w that v sees with weight a/dm,
    a an integer; ``colors[v]``, 1..k, is the color of v.  Each vertex's sums
    are compared with the row of its color: row ``colors[v]`` of s when s is
    given, else the sums of that color's lowest vertex, all in integers over
    one denominator D.  Returns those rows (None for a color whose row is not
    known), the first vertex whose sums differ, with its sums (None when
    every vertex matches), and D.
    """
    if len(colors) != len(nbrs):
        raise ValueError("coloring length must equal the number of vertices")
    if s is None:
        rows: list[list[int] | None] = [None] * k
        ds = 1
    else:
        s_ints, ds = s.integer_form()
        rows = [[x * dm for x in row] for row in s_ints]
    for u, row in enumerate(nbrs):
        sums = [0] * k
        for w, a in row:
            sums[colors[w] - 1] += a
        if ds != 1:
            sums = [x * ds for x in sums]
        i = colors[u] - 1
        if rows[i] is None:
            rows[i] = sums
        elif rows[i] != sums:
            return rows, (u, sums), dm * ds
    return rows, None, dm * ds


def _first_difference(rows: list, mismatch: tuple[int, list[int]], colors: Sequence[int]) -> tuple[int, int]:
    """(vertex, lowest color) at which a mismatching vertex leaves the row of its own color."""
    u, sums = mismatch
    row = rows[colors[u] - 1]
    return u, next(j for j, (x, y) in enumerate(zip(sums, row)) if x != y) + 1


def induced_parameters(g: Graph, f: Coloring) -> RationalMatrix | None:
    """Color-wise row sums if they are constant on every class, else None.

    None is the common outcome when search code probes many candidate
    colorings, so imperfection is signalled by absence, not by an error.
    """
    rows, mismatch, d = _class_sums(*_sparse_rows(g.adjacency), f.colors, f.k)
    if mismatch is not None:
        return None
    return RationalMatrix.from_integer_form(tuple(map(tuple, rows)), d)  # type: ignore[arg-type]


def imperfection_witness(g: Graph, f: Coloring) -> tuple[int, int] | None:
    """The lowest (vertex, color) at which the coloring fails to be perfect, or None.

    A vertex fails at color j when the weight it sees on color j differs
    from the weight the lowest vertex of its own color sees there.
    """
    rows, mismatch, _ = _class_sums(*_sparse_rows(g.adjacency), f.colors, f.k)
    return None if mismatch is None else _first_difference(rows, mismatch, f.colors)


@dataclass(frozen=True)
class PerfectColoringTriple:
    """Matrices (M, P, S) with M n-by-n, P an n-by-k partition matrix, S k-by-k.

    Construction checks shapes and the partition structure of P, and keeps
    the color of each vertex, the column of the 1 in its row of P; whether
    M P = P S actually holds is the job of verify_perfect.
    """

    m: RationalMatrix
    p: RationalMatrix
    s: RationalMatrix
    colors: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not self.m.is_square:
            raise ValueError("M must be square")
        if not self.s.is_square:
            raise ValueError("S must be square")
        if self.p.rows != self.m.rows or self.p.cols != self.s.rows:
            raise ValueError("P must be n-by-k for M of order n and S of order k")
        ints, d = self.p.integer_form()
        for v, row in enumerate(ints):
            if row.count(d) != 1 or row.count(0) != len(row) - 1:
                raise ValueError(f"row {v} of P must contain exactly one 1 and zeroes")
        object.__setattr__(self, "colors", tuple(row.index(d) + 1 for row in ints))

    @property
    def k(self) -> int:
        return self.s.rows


def make_triple(g: Graph, f: Coloring, s: RationalMatrix) -> PerfectColoringTriple:
    """Assemble (M, P, S) from a graph, a coloring and a parameter matrix."""
    return PerfectColoringTriple(g.adjacency, partition_matrix(f), s)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    witness: tuple[int, int] | None  # (vertex, color), color 1-based


def verify_perfect(triple: PerfectColoringTriple) -> VerifyResult:
    """Check M P = P S exactly; on failure report the first differing cell.

    Row v of M P holds the class sums of row v of M, and row v of P S is row
    f(v) of S, so the check compares the two without forming either product.
    Colors are those the triple read from the rows of P, so a color no vertex
    has is allowed.  The witness is chosen at the lowest vertex index, then
    lowest color, so the result does not depend on evaluation order.
    """
    rows, mismatch, _ = _class_sums(*_sparse_rows(triple.m), triple.colors, triple.k, triple.s)
    if mismatch is None:
        return VerifyResult(True, None)
    return VerifyResult(False, _first_difference(rows, mismatch, triple.colors))


def poly_lift(triple: PerfectColoringTriple, p: Polynomial) -> PerfectColoringTriple:
    """Map a verified triple (M, P, S) to (p(M), P, p(S)).

    The image is again perfect: p(M) P = P p(S) follows by applying
    M P = P S power by power.  The input must verify, and the output is
    re-verified before being returned.
    """
    check = verify_perfect(triple)
    if not check.ok:
        raise ValueError(f"input triple is not perfect; first bad cell {check.witness}")
    lifted = PerfectColoringTriple(p(triple.m), triple.p, p(triple.s))
    lifted_check = verify_perfect(lifted)
    if not lifted_check.ok:
        raise AssertionError("polynomial image of a perfect triple failed to verify")
    return lifted


@dataclass(frozen=True)
class TwoColorParams:
    """Off-diagonal parameters (b, c) of a 2-color matrix with row sums r."""

    b: Fraction
    c: Fraction
    r: Fraction

    @property
    def a(self) -> Fraction:
        return self.r - self.b

    @property
    def d(self) -> Fraction:
        return self.r - self.c

    @cached_property
    def b_plus_c(self) -> Fraction:
        """b + c, formed once per parameter pair: window scans read it for every pair of vertices."""
        return self.b + self.c

    @property
    def second_eigenvalue(self) -> Fraction:
        return self.r - self.b_plus_c

    def matrix(self) -> RationalMatrix:
        return RationalMatrix([[self.a, self.b], [self.c, self.d]])


def two_color_matrix(b: RatLike, c: RatLike, r: RatLike) -> RationalMatrix:
    """The 2x2 matrix [[r-b, b], [c, r-c]]."""
    return TwoColorParams(rat(b), rat(c), rat(r)).matrix()
