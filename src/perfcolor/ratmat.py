"""Exact rational matrices and dense polynomials.

A matrix is integer rows over one denominator and computes over integers;
entries leave it, and polynomial coefficients live, as ``fractions.Fraction``.
So every check here is an exact equality, with no floating point anywhere.
Matrices and polynomials are immutable and hashable, and every operation
returns a fresh value, which makes them safe to share between threads.

JSON form of a matrix: ``{"rows": R, "cols": C, "data": [[...]]}`` where an
entry is an integer or a ``"p/q"`` string.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Union

RatLike = Union[Fraction, int, str]

__all__ = [
    "Fraction",
    "RatLike",
    "Polynomial",
    "RationalMatrix",
    "l1_row_distance",
    "rat",
]


def rat(x: RatLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string (q != 0) to an exact Fraction.

    Floats are rejected on purpose: accepting them would smuggle rounding
    into an otherwise exact pipeline.  Booleans are rejected too: a JSON
    ``true`` is not the number 1.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and type(x) is not bool:
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


class RationalMatrix:
    """Immutable dense matrix with exact rational entries.

    The one stored form is integer rows over a denominator d > 0 with
    gcd(d, *entries) == 1.  It is unique, so ``==`` and the hash read it
    directly, and every operation reduces once per result.
    Fractions are built only by ``row``, indexing, ``row_sums`` and
    ``l1_row_distance``; ``to_json`` and ``repr`` write a/d directly.
    """

    __slots__ = ("_ints", "_d")

    def __init__(self, data: Iterable[Iterable[RatLike]]) -> None:
        rows = tuple(tuple(x if type(x) is int else rat(x) for x in row) for row in data)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("rows must all have the same length")
        denominators = [x.denominator for row in rows for x in row if type(x) is not int]
        d = lcm(*denominators)
        if denominators:
            rows = tuple(
                tuple(x * d if type(x) is int else x.numerator * (d // x.denominator) for x in row)
                for row in rows
            )
        # entries in lowest terms over their least common denominator share no factor with it
        self._ints, self._d = rows, d

    @classmethod
    def _reduced(cls, ints: tuple[tuple[int, ...], ...], d: int) -> "RationalMatrix":
        """Wrap integer rows over d > 0, non-empty and of equal length, dividing out gcd(d, *ints)."""
        if d != 1:
            g = gcd(d, *chain.from_iterable(ints))
            if g != 1:
                ints = tuple(tuple(x // g for x in row) for row in ints)
                d //= g
        m = object.__new__(cls)
        m._ints, m._d = ints, d
        return m

    def integer_form(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The stored integer rows and denominator d: self[i, j] = rows[i][j] / d, d the least common one."""
        return self._ints, self._d

    @classmethod
    def from_integer_form(cls, rows: tuple[tuple[int, ...], ...], d: int = 1) -> "RationalMatrix":
        """The matrix rows[i][j] / d, for d > 0 and non-empty integer tuples of one length; no entry is coerced."""
        return cls._reduced(rows, d)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        if n < 1:
            raise ValueError("matrix must have at least one row and one column")
        return cls._reduced(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @property
    def rows(self) -> int:
        return len(self._ints)

    @property
    def cols(self) -> int:
        return len(self._ints[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _check_row(self, i: int) -> None:
        if not 0 <= i < len(self._ints):
            raise IndexError(f"row index {i} out of range for {self.rows}x{self.cols} matrix")

    def row(self, i: int) -> tuple[Fraction, ...]:
        self._check_row(i)
        return tuple(Fraction(a, self._d) for a in self._ints[i])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        self._check_row(i)
        return Fraction(self._ints[i][j], self._d)

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(sum(row), self._d) for row in self._ints)

    def scaled(self, factor: RatLike) -> "RationalMatrix":
        f = rat(factor)
        p = f.numerator
        return RationalMatrix._reduced(tuple(tuple(x * p for x in row) for row in self._ints), self._d * f.denominator)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        """Exact product: with A = A'/da and B = B'/db, it is A'B' / (da db), reduced once.

        The kernel is chosen per row of A'.  A row with at least half zeros
        becomes the sum of the rows of B' at its nonzero entries, each scaled
        by its entry unless that is 1; a denser row takes dot products with
        the columns of B'.  So a sparse factor is best put on the left.
        """
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        b, bt, rows = other._ints, None, []
        for row in self._ints:
            if 2 * row.count(0) >= len(row):
                acc = (0,) * len(b[0])
                for x, b_row in zip(row, b):
                    if x:
                        acc = tuple(map(add, acc, b_row if x == 1 else map(mul, repeat(x), b_row)))
                rows.append(acc)
            else:
                bt = bt or tuple(zip(*b))  # columns of other
                rows.append(tuple(sum(map(mul, row, col)) for col in bt))
        return RationalMatrix._reduced(tuple(rows), self._d * other._d)

    def __pow__(self, exponent: int) -> "RationalMatrix":
        if not self.is_square:
            raise ValueError("matrix power requires a square matrix")
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("matrix exponent must be a non-negative integer")
        result, base, e = None, self, exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            base = base * base if e > 1 else base
            e >>= 1
        return RationalMatrix.identity(self.rows) if result is None else result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalMatrix) and (self._d, self._ints) == (other._d, other._ints)

    def __hash__(self) -> int:
        return hash((self._ints, self._d))

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(_entry_json(a, self._d)) for a in row) + "]" for row in self._ints)
        return f"RationalMatrix([{body}])"

    def to_json(self) -> dict:
        d = self._d
        return {
            "rows": self.rows,
            "cols": self.cols,
            "data": [list(row) if d == 1 else [_entry_json(a, d) for a in row] for row in self._ints],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RationalMatrix":
        m = cls(obj["data"])
        for key, actual in (("rows", m.rows), ("cols", m.cols)):
            declared = obj.get(key, actual)
            if type(declared) is not int:
                raise ValueError(f"declared {key} must be an integer, not {declared!r}")
            if declared != actual:
                raise ValueError(f"declared {key} {declared} != actual {actual}")
        return m


def _entry_json(a: int, d: int) -> int | str:
    """a / d as JSON: an integer when exact, otherwise the canonical "p/q" string."""
    g = gcd(a, d)
    return a // g if g == d else f"{a // g}/{d // g}"


def l1_row_distance(a: RationalMatrix, u: int, v: int) -> Fraction:
    """Manhattan distance between rows u and v: sum of |a[u,w] - a[v,w]|.

    One integer sum over the integer form, divided once.
    """
    a._check_row(u), a._check_row(v)
    return Fraction(sum(map(abs, map(sub, a._ints[u], a._ints[v]))), a._d)


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
        """The value at a rational or at a square matrix, with a^0 the identity.

        At a matrix, Horner's rule runs as ``a * result``, which is exact
        because a commutes with every polynomial in a, and keeps a, often the
        sparser factor, on the left of each product.  It starts from
        lead * a + c I, so a polynomial of degree n >= 1 takes n - 1 products.
        """
        cs = self._coeffs
        if isinstance(a, RationalMatrix):
            if not a.is_square:
                raise ValueError("polynomial evaluation requires a square matrix")
            if len(cs) == 1:
                return RationalMatrix.identity(a.rows).scaled(cs[0])
            result = _add_diagonal(a if cs[-1] == 1 else a.scaled(cs[-1]), cs[-2])
            for c in reversed(cs[:-2]):
                result = _add_diagonal(a * result, c)
            return result
        x = rat(a)
        acc = cs[-1]
        for c in reversed(cs[:-1]):
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
    d = lcm(a._d, c.denominator)
    f, diagonal = d // a._d, c.numerator * (d // c.denominator)
    rows = []
    for i, row in enumerate(a._ints):
        row = [x * f for x in row]
        row[i] += diagonal
        rows.append(tuple(row))
    return RationalMatrix._reduced(tuple(rows), d)
