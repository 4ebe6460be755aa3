from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import product_witness
from perfcolor.coloring import (
    Coloring,
    PerfectColoringTriple,
    TwoColorParams,
    imperfection_witness,
    induced_parameters,
    make_triple,
    partition_matrix,
    poly_lift,
    two_color_matrix,
    verify_perfect,
)
from perfcolor.graphs import cycle
from perfcolor.ratmat import Polynomial, RationalMatrix, l1_row_distance

C6_THREE_COLORS = RationalMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])  # S of colors 1, 2, 3 around C6


def test_coloring_colors_must_be_integers():
    # 1.0 == 1, so float colors passed the range checks, and indexing by them failed later
    for colors in ((1.0, 2.0, 1.0, 2.0), (1, 2, 1, 2.0), (True, 2)):
        with pytest.raises(ValueError, match="colors must be integers"):
            Coloring(colors, 2)


def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring((1, 3), 3)  # color 2 unused
    with pytest.raises(ValueError):
        Coloring((0, 1), 2)  # colors are 1-based
    with pytest.raises(ValueError):
        Coloring((), 1)
    f = Coloring((1, 2, 1), 2)
    assert Coloring.from_json(f.to_json()) == f


def test_partition_matrix_shapes():
    assert partition_matrix(Coloring((1, 1, 1), 1)) == RationalMatrix([[1], [1], [1]])
    assert partition_matrix(Coloring((1, 2, 1, 2), 2)) == RationalMatrix(
        [[1, 0], [0, 1], [1, 0], [0, 1]]
    )
    assert partition_matrix(Coloring((1, 2, 3), 3)) == RationalMatrix.identity(3)


def test_induced_parameters_examples():
    assert induced_parameters(cycle(4), Coloring((1, 2, 1, 2), 2)) == RationalMatrix(
        [[0, 2], [2, 0]]
    )
    assert induced_parameters(cycle(5), Coloring((1,) * 5, 1)) == RationalMatrix([[2]])
    # 3-coloring of the 6-cycle: each vertex's two neighbors carry the other two colors
    assert induced_parameters(cycle(6), Coloring((1, 2, 3, 1, 2, 3), 3)) == RationalMatrix(
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    )


def test_induced_parameters_absent_for_imperfect():
    assert induced_parameters(cycle(5), Coloring((1, 2, 1, 2, 1), 2)) is None


def test_induced_parameters_length_check():
    with pytest.raises(ValueError):
        induced_parameters(cycle(4), Coloring((1, 2, 1), 2))


def test_imperfection_witness_c5():
    # vertex 0 (color 1) sees one neighbor of each color; vertex 2 (color 1)
    # sees two of color 2, so the lowest bad cell is vertex 2, color 1
    assert imperfection_witness(cycle(5), Coloring((1, 2, 1, 2, 1), 2)) == (2, 1)
    assert imperfection_witness(cycle(4), Coloring((1, 2, 1, 2), 2)) is None
    with pytest.raises(ValueError):
        imperfection_witness(cycle(4), Coloring((1, 2, 1), 2))


def test_triple_structure_validation():
    m = cycle(4).adjacency
    p_bad = RationalMatrix([[1, 1], [0, 1], [1, 0], [0, 1]])
    s = RationalMatrix([[0, 2], [2, 0]])
    with pytest.raises(ValueError):
        PerfectColoringTriple(m, p_bad, s)
    with pytest.raises(ValueError):
        PerfectColoringTriple(m, RationalMatrix([[1, 0], [0, 1]]), s)  # wrong row count


def test_verify_perfect_and_witness():
    triple = make_triple(cycle(4), Coloring((1, 2, 1, 2), 2), RationalMatrix([[0, 2], [2, 0]]))
    assert verify_perfect(triple).ok
    bad = PerfectColoringTriple(
        triple.m, triple.p, RationalMatrix([[1, 1], [1, 1]])
    )
    result = verify_perfect(bad)
    assert not result.ok
    assert result.witness == (0, 1)


def test_squared_triple_still_verifies():
    triple = make_triple(cycle(4), Coloring((1, 2, 1, 2), 2), RationalMatrix([[0, 2], [2, 0]]))
    squared = PerfectColoringTriple(triple.m**2, triple.p, triple.s**2)
    assert verify_perfect(squared).ok


def test_poly_lift_examples():
    triple = make_triple(cycle(6), Coloring((1, 2, 3, 1, 2, 3), 3), C6_THREE_COLORS)
    assert poly_lift(triple, Polynomial.x()) == triple
    const = poly_lift(triple, Polynomial([1]))
    assert const.m == RationalMatrix.identity(6)
    assert const.s == RationalMatrix.identity(3)
    squared = poly_lift(triple, Polynomial([0, 0, 1]))
    assert squared.s == RationalMatrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert verify_perfect(squared).ok


def test_poly_lift_rejects_imperfect_input():
    m = cycle(4).adjacency
    p = partition_matrix(Coloring((1, 2, 1, 2), 2))
    bad = PerfectColoringTriple(m, p, RationalMatrix([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        poly_lift(bad, Polynomial.x())


def test_triple_coloring_round_trip():
    f = Coloring((1, 2, 3, 1, 2, 3), 3)
    triple = make_triple(cycle(6), f, C6_THREE_COLORS)
    assert triple.p == partition_matrix(f)
    assert triple.colors == f.colors


def test_two_color_params_extraction():
    params = TwoColorParams(Fraction(4), Fraction(3), Fraction(4))
    assert (params.a, params.d) == (0, 1)
    assert params.second_eigenvalue == -3
    assert params.matrix() == RationalMatrix([[0, 4], [3, 1]])


def test_two_color_params_structural_acceptance():
    params = TwoColorParams(Fraction(0), Fraction(2), Fraction(4))
    assert params.matrix() == RationalMatrix([[4, 0], [2, 2]])


def test_triangular_two_two_parameters():
    params = TwoColorParams(Fraction(2), Fraction(2), Fraction(6))
    assert params.second_eigenvalue == 2
    assert two_color_matrix(2, 2, 6) == params.matrix() == RationalMatrix([[4, 2], [2, 4]])


# --- properties ----------------------------------------------------------------

bc_values = st.integers(0, 8)


@given(bc_values, bc_values, st.integers(0, 8))
def test_row_distance_equals_twice_eigenvalue(b, c, r):
    # d(S_1, S_2) = 2|r - b - c| for any 2x2 matrix with equal row sums, not only 0 <= b,c <= r
    params = TwoColorParams(Fraction(b), Fraction(c), Fraction(r))
    assert l1_row_distance(params.matrix(), 0, 1) == 2 * abs(params.second_eigenvalue)


colorings_c6 = st.lists(st.integers(1, 3), min_size=6, max_size=6)


@given(colorings_c6)
def test_induced_iff_verify(colors):
    used = sorted(set(colors))
    relabeled = tuple(used.index(c) + 1 for c in colors)
    f = Coloring(relabeled, len(used))
    g = cycle(6)
    s = induced_parameters(g, f)
    if s is None:
        return
    assert verify_perfect(make_triple(g, f, s)).ok
    assert set(s.row_sums()) == {2}  # parameter rows of a 2-regular graph sum to 2


@given(colorings_c6, st.lists(st.integers(-2, 2), min_size=1, max_size=3))
def test_poly_lift_composes(colors, coeffs):
    used = sorted(set(colors))
    f = Coloring(tuple(used.index(c) + 1 for c in colors), len(used))
    g = cycle(6)
    s = induced_parameters(g, f)
    if s is None:
        return
    triple = make_triple(g, f, s)
    p = Polynomial(coeffs)
    q = Polynomial([1, -1])  # q(x) = 1 - x, so q(p(M)) = (1 - p)(M)
    nested = poly_lift(poly_lift(triple, p), q)
    composed = poly_lift(triple, Polynomial([1]) - p)
    assert nested == composed


@given(colorings_c6)
def test_imperfection_witness_is_lowest_bad_cell(colors):
    used = sorted(set(colors))
    f = Coloring(tuple(used.index(c) + 1 for c in colors), len(used))
    g = cycle(6)
    sums = [
        [sum(1 for w in ((u - 1) % 6, (u + 1) % 6) if f.colors[w] == j) for j in range(1, f.k + 1)]
        for u in range(6)
    ]
    first = {f.colors[u]: sums[u] for u in reversed(range(6))}
    bad = [
        (u, j + 1) for u in range(6) for j in range(f.k) if sums[u][j] != first[f.colors[u]][j]
    ]
    assert imperfection_witness(g, f) == (bad[0] if bad else None)
    assert (induced_parameters(g, f) is None) == bool(bad)


_entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@given(st.data())
def test_verify_perfect_matches_product_oracle(data):
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 3))
    colors = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))  # colors may go unused
    m = data.draw(st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n))
    s = data.draw(st.lists(st.lists(_entries, min_size=k, max_size=k), min_size=k, max_size=k))
    perfect = data.draw(st.booleans())
    if perfect:  # zero the columns of unused colors, then fix one entry per (vertex, class)
        for j in range(1, k + 1):
            cls = [w for w in range(n) if colors[w] == j]
            for v in range(n):
                if not cls:
                    s[colors[v] - 1][j - 1] = 0
                else:
                    m[v][cls[-1]] += s[colors[v] - 1][j - 1] - sum(m[v][w] for w in cls)
    p = [[int(c == j) for j in range(1, k + 1)] for c in colors]
    triple = PerfectColoringTriple(RationalMatrix(m), RationalMatrix(p), RationalMatrix(s))
    expected = product_witness(m, p, s)
    result = verify_perfect(triple)
    assert result.witness == expected
    assert result.ok == (expected is None)
    if perfect:
        assert result.ok

