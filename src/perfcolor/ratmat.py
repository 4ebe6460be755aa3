"""Exact rational matrices and dense polynomials.

Everything downstream computes over ``fractions.Fraction``, so every check
in this package is an exact equality; no floating point appears anywhere.
Matrices and polynomials are immutable and hashable, and every operation
returns a fresh value, which makes them safe to share between threads.

JSON form of a matrix: ``{"rows": R, "cols": C, "data": [[...]]}`` where an
entry is an integer or a ``"p/q"`` string.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul, sub
from typing import Iterable, Union

RatLike = Union[Fraction, int, str]

__all__ = [
    "Fraction",
    "RatLike",
    "Polynomial",
    "RationalMatrix",
    "eval_poly",
    "l1_row_distance",
    "matrix_mul",
    "matrix_pow",
    "rat",
    "rat_to_json",
]


def rat(x: RatLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction.

    Floats are rejected on purpose: accepting them would smuggle rounding
    into an otherwise exact pipeline.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rat_to_json(x: Fraction) -> int | str:
    """Integer when exact, otherwise the canonical "p/q" string."""
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


ZERO = Fraction(0)
ONE = Fraction(1)


class RationalMatrix:
    """Immutable dense matrix with exact rational entries.

    The integer form and the hash are computed on first use and kept, so a
    matrix shared by many products or row distances pays for them once.
    Both are functions of the entries, so threads that race to fill them
    store equal values.
    """

    __slots__ = ("_rows", "_ints", "_hash")

    def __init__(self, data: Iterable[Iterable[RatLike]]) -> None:
        rows = tuple(tuple(rat(x) for x in row) for row in data)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("rows must all have the same length")
        self._rows = rows
        self._ints = None
        self._hash = None

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[Fraction, ...], ...]) -> "RationalMatrix":
        """Wrap rows of Fractions, non-empty and of equal length, without checking them.

        Only for rows this module built itself from checked matrices.
        """
        m = object.__new__(cls)
        m._rows = rows
        m._ints = None
        m._hash = None
        return m

    def integer_form(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Integer rows and a denominator d with self[i, j] = rows[i][j] / d.

        d is the least common denominator of the entries, so every entry
        scales to an exact integer.
        """
        if self._ints is None:
            d = lcm(*(x.denominator for row in self._rows for x in row))
            self._ints = (
                tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in self._rows),
                d,
            )
        return self._ints

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        if n < 1:
            raise ValueError("matrix must have at least one row and one column")
        return cls._from_rows(
            tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> tuple[Fraction, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row index {i} out of range for {self.rows}x{self.cols} matrix")
        return self._rows[i]

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.row(i)[j]

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(r) for r in self._rows)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in matrix addition")
        return RationalMatrix._from_rows(
            tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self._rows, other._rows))
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in matrix subtraction")
        return RationalMatrix._from_rows(
            tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(self._rows, other._rows))
        )

    def scaled(self, factor: RatLike) -> "RationalMatrix":
        f = rat(factor)
        return RationalMatrix._from_rows(tuple(tuple(f * x for x in row) for row in self._rows))

    def __rmul__(self, factor: RatLike) -> "RationalMatrix":
        return self.scaled(factor)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        """Exact product, computed over integers and divided once per entry.

        With A = A'/da and B = B'/db for integer A', B', the product is
        A'B' / (da db); each entry is one integer dot product and one
        Fraction normalization.
        """
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        a, da = self.integer_form()
        b, db = other.integer_form()
        d = da * db
        bt = tuple(zip(*b))  # columns of other
        return RationalMatrix._from_rows(
            tuple(tuple(Fraction(sum(map(mul, row, col)), d) for col in bt) for row in a)
        )

    def __pow__(self, exponent: int) -> "RationalMatrix":
        if not self.is_square:
            raise ValueError("matrix power requires a square matrix")
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("matrix exponent must be a non-negative integer")
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            base = base * base if e > 1 else base
            e >>= 1
        return RationalMatrix.identity(self.rows) if result is None else result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._rows)
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self._rows)
        return f"RationalMatrix([{body}])"

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "data": [[rat_to_json(x) for x in row] for row in self._rows],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RationalMatrix":
        m = cls(obj["data"])
        if "rows" in obj and obj["rows"] != m.rows:
            raise ValueError(f"declared rows {obj['rows']} != actual {m.rows}")
        if "cols" in obj and obj["cols"] != m.cols:
            raise ValueError(f"declared cols {obj['cols']} != actual {m.cols}")
        return m


def matrix_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Exact matrix product (function form of ``a * b``)."""
    return a * b


def matrix_pow(a: RationalMatrix, exponent: int) -> RationalMatrix:
    """Exact matrix power with a^0 = identity (function form of ``a ** l``)."""
    return a**exponent


def l1_row_distance(a: RationalMatrix, u: int, v: int) -> Fraction:
    """Manhattan distance between rows u and v: sum of |a[u,w] - a[v,w]|.

    One integer sum over the integer form, divided once.
    """
    a.row(u), a.row(v)  # IndexError outside 0..rows-1
    ints, d = a.integer_form()
    return Fraction(sum(map(abs, map(sub, ints[u], ints[v]))), d)


class Polynomial:
    """Polynomial with rational coefficients, constant term first.

    Trailing zero coefficients are stripped on construction; the zero
    polynomial is the single-entry list [0], and an empty coefficient list
    is rejected so that every polynomial has exactly one stored form.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RatLike]) -> None:
        cs = [rat(c) for c in coeffs]
        if not cs:
            raise ValueError("empty coefficient list; the zero polynomial is [0]")
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def x(cls) -> "Polynomial":
        return cls([0, 1])

    @classmethod
    def constant(cls, c: RatLike) -> "Polynomial":
        return cls([c])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self._coeffs == (Fraction(0),)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scaled(-1)

    def scaled(self, factor: RatLike) -> "Polynomial":
        f = rat(factor)
        return Polynomial([f * c for c in self._coeffs])

    def __mul__(self, other: "Polynomial | RatLike") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scaled(other)
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __call__(self, a: "RationalMatrix | RatLike"):
        if isinstance(a, RationalMatrix):
            if not a.is_square:
                raise ValueError("polynomial evaluation requires a square matrix")
            result = RationalMatrix.identity(a.rows).scaled(self._coeffs[-1])
            for c in reversed(self._coeffs[:-1]):
                result = _add_diagonal(result * a, c)
            return result
        x = rat(a)
        acc = self._coeffs[-1]
        for c in reversed(self._coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(str(c) for c in self._coeffs)}])"


def _add_diagonal(a: RationalMatrix, c: Fraction) -> RationalMatrix:
    """a + c I for a square matrix a."""
    if not c:
        return a
    return RationalMatrix._from_rows(
        tuple(row[:i] + (row[i] + c,) + row[i + 1 :] for i, row in enumerate(a._rows))
    )


def eval_poly(p: Polynomial, a: RationalMatrix) -> RationalMatrix:
    """Evaluate p at a square matrix, with a^0 taken as the identity."""
    return p(a)
