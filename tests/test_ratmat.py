from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from perfcolor.ratmat import (
    Polynomial,
    RationalMatrix,
    l1_row_distance,
    rat,
)

fractions = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6
)


def small_matrices(n=3):
    return st.lists(
        st.lists(fractions, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RationalMatrix)


# --- rationals ---------------------------------------------------------------


def test_rat_parses_ints_and_strings():
    assert rat(3) == Fraction(3)
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


@pytest.mark.parametrize("x", [True, False])
def test_rat_rejects_booleans(x):
    # bool is an int, so a JSON true was read as 1
    with pytest.raises(TypeError, match="not an exact rational"):
        rat(x)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"data": [[0, True], [True, 0]]}, "not an exact rational: True"),
        ({"data": [[False]]}, "not an exact rational: False"),
        ({"rows": True, "data": [[0, 1]]}, "declared rows must be an integer, not True"),
        ({"cols": True, "data": [[1], [2]]}, "declared cols must be an integer, not True"),
        ({"rows": "2", "data": [[0], [1]]}, "declared rows must be an integer, not '2'"),
    ],
)
def test_booleans_in_matrix_json_are_refused(obj, message):
    with pytest.raises((TypeError, ValueError), match=message):
        RationalMatrix.from_json(obj)


@pytest.mark.parametrize("text", ["1/0", "0/0", "-3/0"])
def test_rat_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        rat(text)


@given(fractions)
def test_rational_json_round_trip(x):
    obj = RationalMatrix([[x]]).to_json()
    assert obj["data"] == [[x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"]]
    assert RationalMatrix.from_json(obj)[0, 0] == x


# --- matrices ----------------------------------------------------------------


def test_identity_multiplication():
    a = RationalMatrix([[1, 2], [3, 4]])
    assert RationalMatrix.identity(2) * a == a
    assert a * RationalMatrix.identity(2) == a


def test_swap_matrix_is_involution():
    swap = RationalMatrix([[0, 1], [1, 0]])
    assert swap * swap == RationalMatrix.identity(2)


def test_zero_matrix_annihilates():
    a = RationalMatrix([[1, 2], [3, 4]])
    zero = RationalMatrix([[0, 0], [0, 0]])
    assert a * zero == zero
    assert zero * a == zero


def test_dimension_mismatch_raises():
    a = RationalMatrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        a * a


def test_pow_base_cases():
    a = RationalMatrix([[1, 2], [3, 4]])
    assert a**0 == RationalMatrix.identity(2)
    assert a**1 == a


def test_pow_requires_square():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2, 3]]) ** 2


def test_c4_adjacency_squared():
    # Length-2 walks on the 4-cycle, counted by hand: two closed walks per
    # vertex, and two routes to the antipode (via either common neighbor).
    c4 = RationalMatrix(
        [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    )
    expected = RationalMatrix(
        [[2, 0, 2, 0], [0, 2, 0, 2], [2, 0, 2, 0], [0, 2, 0, 2]]
    )
    assert c4**2 == expected


@given(st.data())
def test_product_matches_fraction_sums(data):
    rows, inner, cols = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = data.draw(st.lists(st.lists(fractions, min_size=inner, max_size=inner), min_size=rows, max_size=rows))
    b = data.draw(st.lists(st.lists(fractions, min_size=cols, max_size=cols), min_size=inner, max_size=inner))
    naive = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]
    assert RationalMatrix(a) * RationalMatrix(b) == RationalMatrix(naive)


@given(small_matrices(), st.integers(0, 4), st.integers(0, 4))
def test_pow_additivity(a, i, j):
    assert a ** (i + j) == (a**i) * (a**j)


def test_matrix_json_round_trip():
    a = RationalMatrix([[Fraction(1, 2), 3], [-4, Fraction(-5, 7)]])
    assert RationalMatrix.from_json(a.to_json()) == a


def test_matrix_json_shape_check():
    with pytest.raises(ValueError):
        RationalMatrix.from_json({"rows": 3, "cols": 2, "data": [[1, 2], [3, 4]]})


# --- L1 row distance ----------------------------------------------------------


def test_l1_same_row_is_zero():
    a = RationalMatrix([[1, 2], [3, 4]])
    assert l1_row_distance(a, 0, 0) == 0


def test_l1_two_color_example():
    # rows (0,4) and (3,1): |0-3| + |4-1| = 6 = 2|r - (b+c)| at r=4, b=4, c=3
    s = RationalMatrix([[0, 4], [3, 1]])
    assert l1_row_distance(s, 0, 1) == 6


def test_l1_disjoint_indicators():
    a = RationalMatrix([[1, 0, 0], [0, 1, 0]])
    assert l1_row_distance(a, 0, 1) == 2


def test_l1_index_out_of_range():
    a = RationalMatrix([[1, 2], [3, 4]])
    with pytest.raises(IndexError):
        l1_row_distance(a, 0, 5)


@given(small_matrices(), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_l1_metric_axioms(a, u, v, w):
    duv = l1_row_distance(a, u, v)
    assert duv >= 0
    assert duv == l1_row_distance(a, v, u)
    assert (duv == 0) == (a.row(u) == a.row(v))
    assert duv <= l1_row_distance(a, u, w) + l1_row_distance(a, w, v)


# --- polynomials ---------------------------------------------------------------


def test_polynomial_normalization():
    assert Polynomial([1, 0, 0]).coeffs == (Fraction(1),)
    assert Polynomial([0, 0]).coeffs == (Fraction(0),)
    with pytest.raises(ValueError):
        Polynomial([])


def test_eval_identity_and_constant():
    a = RationalMatrix([[1, 2], [3, 4]])
    assert Polynomial.x()(a) == a
    assert Polynomial.constant(5)(a) == RationalMatrix.identity(2).scaled(5)


def test_eval_requires_square():
    with pytest.raises(ValueError):
        Polynomial.x()(RationalMatrix([[1, 2, 3]]))


def test_x_squared_minus_two_on_c6():
    # Frozen from the BFS distance matrix of the 6-cycle: p(A) with
    # p = x^2 - 2 has a 1 exactly at the distance-2 pairs.
    c6 = RationalMatrix(
        [
            [0, 1, 0, 0, 0, 1],
            [1, 0, 1, 0, 0, 0],
            [0, 1, 0, 1, 0, 0],
            [0, 0, 1, 0, 1, 0],
            [0, 0, 0, 1, 0, 1],
            [1, 0, 0, 0, 1, 0],
        ]
    )
    dist2 = RationalMatrix(
        [
            [0, 0, 1, 0, 1, 0],
            [0, 0, 0, 1, 0, 1],
            [1, 0, 0, 0, 1, 0],
            [0, 1, 0, 0, 0, 1],
            [1, 0, 1, 0, 0, 0],
            [0, 1, 0, 1, 0, 0],
        ]
    )
    assert Polynomial([-2, 0, 1])(c6) == dist2


small_polys = st.lists(fractions, min_size=1, max_size=4).map(Polynomial)


@given(small_polys, small_polys, small_matrices())
def test_eval_is_ring_homomorphism(p, q, a):
    assert fraction_rows((p + q)(a)) == [
        [x + y for x, y in zip(r, s)] for r, s in zip(fraction_rows(p(a)), fraction_rows(q(a)))
    ]
    assert (p * q)(a) == p(a) * q(a)


@given(st.data())
def test_l1_matches_fraction_sum_whichever_fills_the_integer_form(data):
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entries = data.draw(st.lists(st.lists(fractions, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    other = data.draw(st.lists(st.lists(fractions, min_size=cols, max_size=cols), min_size=cols, max_size=cols))
    u, v = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, rows - 1))
    naive_l1 = sum((abs(x - y) for x, y in zip(entries[u], entries[v])), Fraction(0))
    naive_product = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*other)] for row in entries]
    a, b = RationalMatrix(entries), RationalMatrix(other)
    if data.draw(st.booleans()):
        assert a * b == RationalMatrix(naive_product)
        assert l1_row_distance(a, u, v) == naive_l1
    else:
        assert l1_row_distance(a, u, v) == naive_l1
        assert a * b == RationalMatrix(naive_product)
    assert l1_row_distance(a, u, v) == naive_l1


def test_integer_form_is_least_and_immutable():
    ints, d = RationalMatrix([[Fraction(1, 2), Fraction(-2, 3)], [3, Fraction(5, 6)]]).integer_form()
    assert (ints, d) == (((3, -4), (18, 5)), 6)
    assert RationalMatrix([[2, -1]]).integer_form() == (((2, -1),), 1)


def test_equal_matrices_have_equal_hashes():
    a = RationalMatrix([[Fraction(1, 2), -3], [0, Fraction(7, 4)]])
    b = RationalMatrix([["1/2", "-3"], [0, "7/4"]])
    c = a * RationalMatrix.identity(2)
    assert a == b == c and a is not c
    assert hash(a) == hash(b) == hash(c) == hash(a.integer_form())
    assert {a: 1}[c] == 1


# --- the integer-backed form -----------------------------------------------------


def fraction_rows(m):
    return [list(m.row(i)) for i in range(m.rows)]


def naive_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def assert_canonical(m):
    ints, d = m.integer_form()
    assert isinstance(d, int) and d > 0
    assert all(type(x) is int for row in ints for x in row)
    assert gcd(d, *(x for row in ints for x in row)) == 1


@given(small_matrices(), small_matrices(), fractions, st.integers(0, 4), small_polys)
def test_every_operation_keeps_the_reduced_integer_form(a, b, f, e, p):
    for m in (a, b, a.scaled(f), a.scaled(0), a * b, a**e, p(a),
              RationalMatrix.identity(3), RationalMatrix([[0, 0, 0], [0, 0, 0]])):
        assert_canonical(m)


@given(small_matrices(), small_matrices(), fractions, st.integers(0, 4), small_polys)
def test_operations_match_a_fraction_reference(a, b, f, e, p):
    fa, fb = fraction_rows(a), fraction_rows(b)
    assert fraction_rows(a.scaled(f)) == [[f * x for x in r] for r in fa]
    assert fraction_rows(a * b) == naive_product(fa, fb)
    power = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for _ in range(e):
        power = naive_product(power, fa)
    assert fraction_rows(a**e) == power
    value = [[Fraction(0)] * 3 for _ in range(3)]
    x_to_the_i = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for c in p.coeffs:
        value = [[v + c * x for v, x in zip(r, s)] for r, s in zip(value, x_to_the_i)]
        x_to_the_i = naive_product(x_to_the_i, fa)
    assert fraction_rows(p(a)) == value


@given(st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=1, max_size=3), st.data())
def test_int_fraction_and_string_inputs_build_one_matrix(entries, data):
    def spelled(x):
        form = data.draw(st.sampled_from(("fraction", "string", "int")))
        if form == "int" and x.denominator == 1:
            return x.numerator
        return str(x) if form == "string" else x

    a = RationalMatrix(entries)
    b = RationalMatrix([[spelled(x) for x in row] for row in entries])
    c = RationalMatrix([[str(x) for x in row] for row in entries])
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert a.integer_form() == b.integer_form() == c.integer_form()
    assert repr(a) == repr(b) and a.to_json() == b.to_json()


@given(st.lists(st.lists(fractions, min_size=2, max_size=2), min_size=1, max_size=3), st.data())
def test_a_float_anywhere_is_rejected(entries, data):
    i = data.draw(st.integers(0, len(entries) - 1))
    j = data.draw(st.integers(0, 1))
    entries[i][j] = float(entries[i][j])
    with pytest.raises(TypeError):
        RationalMatrix(entries)



# --- both product kernels ------------------------------------------------------

# zeros and units are frequent, so sparse rows (at least half zero) and dense rows both occur
kernel_entries = st.one_of(st.just(0), st.sampled_from((1, -1)), fractions)


def entry_grids(rows, cols):
    return st.lists(st.lists(kernel_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


product_grids = st.tuples(*(st.integers(1, 6),) * 3).flatmap(
    lambda shape: st.tuples(entry_grids(shape[0], shape[1]), entry_grids(shape[1], shape[2]))
)
square_grids = st.integers(1, 6).flatmap(lambda n: entry_grids(n, n))


def fraction_grid(grid):
    return [[Fraction(x) for x in row] for row in grid]


@given(product_grids, square_grids, st.integers(0, 4), st.lists(kernel_entries, min_size=1, max_size=5))
@example(  # an all-zero row, a row exactly half zero, and a dense row
    ([[0, 0], [0, Fraction(3, 2)], [1, -1]], [[1, Fraction(1, 3), 0], [-1, 2, Fraction(-5, 4)]]),
    [[0, 1, 0, 0], [1, 0, 0, Fraction(1, 2)], [0, 0, 0, 0], [-1, 2, Fraction(2, 3), 1]],
    3,
    [0],  # the zero polynomial
)
@example(([[Fraction(1, 2)]], [[0]]), [[0, 0], [0, 0]], 0, [Fraction(-7, 3)])  # degree 0
def test_product_kernels_match_a_fraction_reference(pair, square, e, coeffs):
    a, b = fraction_grid(pair[0]), fraction_grid(pair[1])
    assert fraction_rows(RationalMatrix(pair[0]) * RationalMatrix(pair[1])) == naive_product(a, b)
    m, n = fraction_grid(square), len(square)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    powers = [identity]
    for _ in range(max(e, len(coeffs) - 1)):
        powers.append(naive_product(powers[-1], m))
    assert fraction_rows(RationalMatrix(square) ** e) == powers[e]
    value = [[sum((Fraction(c) * x[i][j] for c, x in zip(coeffs, powers)), Fraction(0)) for j in range(n)]
             for i in range(n)]
    evaluated = Polynomial(coeffs)(RationalMatrix(square))
    assert fraction_rows(evaluated) == value
    assert_canonical(evaluated)
