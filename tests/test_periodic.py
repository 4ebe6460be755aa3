import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    brute_force_circulant_census,
    brute_force_torus_colorings,
    brute_force_window_colorable,
    circulant_class_rows,
    circulant_h_by_counting,
    circulant_params_by_segment_count,
    coset_sizes_pairwise,
    grid_h_by_counting,
    grid_params_by_patch_count,
    lattice_neighbor_counts,
    lattice_points_by_walking,
    normalized_coloring,
    reference_backtrack,
    reference_census,
    rotation_renaming_canonical,
    translates_onto,
    window_by_coordinates,
)
from perfcolor import periodic
from perfcolor.coloring import Coloring, TwoColorParams, induced_parameters
from perfcolor.filters import PairContext, two_color_check
from perfcolor.periodic import (
    BudgetExceededError,
    CirculantSpec,
    GridSpec,
    PeriodConstraint,
    SearchStatus,
    _backtrack,
    _coset_sizes,
    _delta_table,
    _lattice_basis,
    _lattice_neighbors,
    _quotient_cells,
    _window,
    circulant_enumerate,
    circulant_h,
    circulant_period_filter,
    circulant_quotient,
    grid_h,
    grid_reject_2color,
    offset_automorphisms,
    patch_search,
    periodic_coloring_canonical,
    torus_quotient,
    torus_search,
)
from perfcolor.ratmat import RationalMatrix


def params(b, c, r):
    return TwoColorParams(Fraction(b), Fraction(c), Fraction(r))


def target_rows(data, k, r):
    """Draw k rows of k non-negative integers, each summing to r."""
    rows = []
    for _ in range(k):
        cuts = sorted(data.draw(st.lists(st.integers(0, r), min_size=k - 1, max_size=k - 1)))
        rows.append([hi - lo for lo, hi in zip([0, *cuts], [*cuts, r])])
    return rows


# --- circulant specs and h ------------------------------------------------------


def test_circulant_spec_validation():
    assert CirculantSpec.parse("4,1,2").ds == (1, 2, 4)
    assert CirculantSpec((1, 1, 2)).m == 3  # repeats kept
    with pytest.raises(ValueError):
        CirculantSpec((0, 1))


def test_circulant_h_examples():
    assert circulant_h(CirculantSpec((1, 2, 4)), 3) == 4
    assert circulant_h(CirculantSpec((1,)), 2) == 1
    assert circulant_h(CirculantSpec((1, 2)), 100) == 0


def test_circulant_h_counts_multiplicity():
    # D = {1,1}: left multiset {1,1,-1,-1}, right {3,1,3,1}; the value 1 has
    # multiplicity 2 on both sides, so min-multiplicity counting gives 2
    assert circulant_h(CirculantSpec((1, 1)), 2) == 2
    # D = {1,3}: {+-1,+-3} vs {2+-1,2+-3} = {3,1,5,-1}: values 1,3,-1 shared
    assert circulant_h(CirculantSpec((1, 3)), 2) == 3


@given(st.sets(st.integers(1, 6), min_size=1, max_size=4), st.integers(1, 14))
def test_circulant_h_reflection_symmetry(ds, t):
    # the intersected set is invariant under negating everything, so counting
    # {+-d} against {-t +- d} gives the same h
    spec = CirculantSpec(tuple(ds))
    left = {d for d in spec.ds} | {-d for d in spec.ds}
    plus = sorted((t + d, t - d) for d in spec.ds)
    minus = sorted((-t + d, -t - d) for d in spec.ds)
    h_plus = len(left & {v for pair in plus for v in pair})
    h_minus = len(left & {v for pair in minus for v in pair})
    assert circulant_h(spec, t) == h_plus == h_minus


# --- period filter ----------------------------------------------------------------


def test_period_filter_c124():
    spec = CirculantSpec((1, 2, 4))
    constraint = circulant_period_filter(spec, params(1, 1, 6), t_max=3)
    assert 3 in constraint.fired
    assert constraint.divides in (1, 3)


def test_period_filter_no_constraint():
    spec = CirculantSpec((1, 2, 4))
    constraint = circulant_period_filter(spec, params(3, 3, 6), t_max=8)
    assert constraint.fired == ()
    assert constraint.divides == 0


def test_period_filter_single_distance():
    # D = {1}, (b,c) = (2,2): at t = 2, h = 1 and b+c = 4 > 4m - h = 3
    constraint = circulant_period_filter(CirculantSpec((1,)), params(2, 2, 2), t_max=2)
    assert 2 in constraint.fired


def test_period_filter_valency_check():
    with pytest.raises(ValueError):
        circulant_period_filter(CirculantSpec((1,)), params(1, 1, 4), t_max=3)


def test_period_filter_stops_at_twice_the_longest_connection():
    # past 2 max(D) no shift fires, so a huge t_max costs no more than 2 max(D)
    spec = CirculantSpec((1, 2, 4))
    start = time.perf_counter()
    constraint = circulant_period_filter(spec, params(1, 1, 6), t_max=10**9)
    assert time.perf_counter() - start < 0.05
    assert constraint == circulant_period_filter(spec, params(1, 1, 6), t_max=8)


def _period_filter_every_shift(spec, p, t_max):
    """The period filter's condition tried at every t in 1..t_max."""
    bc = p.b + p.c
    fired = tuple(
        t for t in range(1, t_max + 1)
        if bc > 4 * spec.m - circulant_h(spec, t) or bc < circulant_h(spec, t)
        or (t in spec.ds and bc < circulant_h(spec, t) + 2)
    )
    divides = 0
    for t in fired:
        divides = gcd(divides, t)
    return PeriodConstraint(fired, divides)


@pytest.mark.parametrize(
    "ds",
    [ds for size in range(1, 6) for ds in combinations(range(1, 6), size)] + [(1, 1), (2, 2, 3)],
    ids=str,
)
def test_period_filter_matches_a_scan_of_every_shift(ds):
    spec = CirculantSpec(ds)
    r = spec.valency
    top = 2 * max(ds)
    halves = [Fraction(x, 2) for x in range(2 * r + 1)]
    for b, c in product(halves, repeat=2):
        p = params(b, c, r)
        every = _period_filter_every_shift(spec, p, top + 3)
        assert every.fired == tuple(t for t in every.fired if t <= top)
        for t_max in (1, max(ds), top, top + 3):
            assert circulant_period_filter(spec, p, t_max) == _period_filter_every_shift(spec, p, t_max)


@pytest.mark.parametrize("ds", [ds for size in range(1, 6) for ds in combinations(range(1, 6), size)], ids=str)
def test_period_filter_fires_where_the_two_color_window_is_infeasible(ds):
    # circulant_period_filter re-codes two_color_check's window on integers; the two must agree
    spec = CirculantSpec(ds)
    r = spec.valency
    top = 2 * max(ds)
    for b, c in product(range(r + 1), repeat=2):
        p = params(b, c, r)
        window = tuple(
            t for t in range(1, top + 1)
            if two_color_check(PairContext(Fraction(r), circulant_h(spec, t), t in ds), p).infeasible
        )
        assert circulant_period_filter(spec, p, top).fired == window


# --- circulant quotients -------------------------------------------------------------


def test_quotient_c124_period3():
    g = circulant_quotient(CirculantSpec((1, 2, 4)), 3)
    expected = RationalMatrix([[0, 3, 3], [3, 0, 3], [3, 3, 0]])
    assert g.adjacency == expected
    assert not g.simple


def test_quotient_is_cycle_for_large_period():
    g = circulant_quotient(CirculantSpec((1,)), 7)
    assert g.simple
    assert g.adjacency.row_sums() == (Fraction(2),) * 7
    assert g.adjacency[0, 1] == 1 and g.adjacency[0, 6] == 1


def test_quotient_loops():
    g = circulant_quotient(CirculantSpec((5,)), 5)
    assert g.adjacency == RationalMatrix([[2 if i == j else 0 for j in range(5)] for i in range(5)])


def test_quotient_row_sums_always_valency():
    for ds in [(1,), (1, 2), (2, 4), (1, 1, 3)]:
        spec = CirculantSpec(ds)
        for period in range(1, 7):
            g = circulant_quotient(spec, period)
            assert set(g.adjacency.row_sums()) == {Fraction(spec.valency)}


@pytest.mark.parametrize(
    "ds",
    [ds for r in range(1, 6) for ds in combinations(range(1, 6), r)]
    + [(1, 1), (2, 2, 3), (7, 12), (6, 30, 31), (10, 20, 45)],
    ids=lambda ds: ",".join(map(str, ds)),
)
def test_circulant_neighbors_translate_one_offset_list(ds):
    # every vertex's list is the translate of vertex 0's, equal to counting each
    # vertex's offsets on its own, also when d >= T or d = 0 mod T gives a loop
    spec = CirculantSpec(ds)
    for period in range(1, 31):
        per_vertex = [
            sorted(Counter((x + o) % period for d in ds for o in (d, -d)).items())
            for x in range(period)
        ]
        assert periodic._circulant_neighbors(spec, period) == per_vertex, period


# --- circulant enumeration ------------------------------------------------------------


def test_enumerate_c124_period3():
    found = circulant_enumerate(CirculantSpec((1, 2, 4)), 3, 2)
    assert len(found) == 2
    mono, split = found
    assert mono.coloring == Coloring((1, 1, 1), 1)
    assert mono.s == RationalMatrix([[6]])
    assert split.coloring == Coloring((1, 1, 2), 2)
    assert {split.s[0, 1], split.s[1, 0]} == {Fraction(3), Fraction(6)}


def test_enumerate_alternating():
    found = circulant_enumerate(CirculantSpec((1,)), 2, 2)
    by_k = {e.coloring.k: e for e in found}
    assert by_k[2].s == RationalMatrix([[0, 2], [2, 0]])


def test_enumerate_representatives_are_canonical():
    found = circulant_enumerate(CirculantSpec((1, 2)), 6, 3)
    assert len(found) > 2
    for entry in found:
        colors = entry.coloring.colors
        rotations = {colors[s:] + colors[:s] for s in range(len(colors))}
        for rotation in rotations:
            assert colors <= normalized_coloring(rotation).colors


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        circulant_enumerate(CirculantSpec((1,)), 21, 2, node_budget=100)


def _nodes_needed(spec, period, k):
    """The least node budget under which the census completes, by bisection."""
    low, high = 0, 10**6
    while low < high:
        mid = (low + high) // 2
        try:
            circulant_enumerate(spec, period, k, node_budget=mid)
            high = mid
        except BudgetExceededError:
            low = mid + 1
    return low


@pytest.mark.parametrize(
    "ds, period, k", [((1,), 21, 2), ((1, 2, 4), 12, 2), ((1, 2), 8, 3), ((2, 3), 7, 3)]
)
def test_enumerate_node_budget_never_returns_part(ds, period, k):
    # a budget of exactly the nodes the census needs returns all of it; one fewer raises
    spec = CirculantSpec(ds)
    needed = _nodes_needed(spec, period, k)
    assert needed >= period  # a node per position on the way to the first leaf
    assert circulant_enumerate(spec, period, k, node_budget=needed) == circulant_enumerate(spec, period, k)
    with pytest.raises(BudgetExceededError):
        circulant_enumerate(spec, period, k, node_budget=needed - 1)


def test_enumerate_node_budget_caps_long_periods():
    # one color takes a node per position, and the all-one string follows no
    # rotation, so nothing is compared at the leaf: T nodes, with no T x T
    # quotient and no T^2 leaf check
    spec = CirculantSpec((1,))
    for period in (2000, 10**5):
        with pytest.raises(BudgetExceededError):
            circulant_enumerate(spec, period, 1, node_budget=period - 1)
        for budget in (period, periodic.DEFAULT_NODE_BUDGET):
            found = circulant_enumerate(spec, period, 1, node_budget=budget)
            assert [(e.coloring.colors, e.s) for e in found] == [((1,) * period, RationalMatrix([[2]]))]


@pytest.mark.parametrize(
    "ds", [(1, 1), (2, 2, 3), (1, 2, 4), (1, 3, 5)], ids=lambda ds: ",".join(map(str, ds))
)
def test_enumerate_matches_reference_census(ds):
    # the rotation cut drops only branches whose every completion has a smaller
    # rotation: the same entries, in the same order, as cutting at the leaves alone
    spec = CirculantSpec(ds)
    for k, max_period in ((1, 20), (2, 20), (3, 10), (4, 8)):
        for period in range(1, max_period + 1):
            assert _census(spec, period, k) == reference_census(ds, period, k)[0], (period, k)


@pytest.mark.parametrize(
    "ds, period, nodes, leaf_cut_nodes", [((1, 3, 5), 12, 2014, 9286), ((1, 2, 4), 32, 3339, 6993)]
)
def test_enumerate_rotation_cut_saves_nodes(ds, period, nodes, leaf_cut_nodes):
    assert reference_census(ds, period, 2)[1] == leaf_cut_nodes
    assert _nodes_needed(CirculantSpec(ds), period, 2) == nodes < leaf_cut_nodes


# least completing node budgets: the benchmark's thirteen census shapes, then
# repeated lengths and a fourth color; a change in pruning or in what counts
# as a node shows here
CENSUS_TREES = [
    ((1, 2, 4), 6, 3, 161, 5),
    ((1, 3, 5), 6, 3, 199, 8),
    ((1, 2), 10, 2, 229, 5),
    ((2, 5), 10, 2, 290, 2),
    ((1, 2, 4), 12, 2, 926, 4),
    ((1, 3, 5), 12, 2, 2014, 45),
    ((2, 3, 4), 12, 2, 1156, 15),
    ((1, 4), 8, 3, 365, 4),
    ((1, 2, 3, 4, 5), 8, 3, 837, 4),
    ((1, 3), 13, 2, 545, 1),
    ((1, 2, 4), 14, 2, 1400, 11),
    ((1, 2), 14, 2, 380, 2),
    ((2, 5), 14, 2, 2111, 11),
    ((1, 1), 8, 3, 205, 4),
    ((2, 2, 3), 8, 3, 527, 4),
    ((1, 2), 6, 4, 242, 11),
]


@pytest.mark.parametrize(
    "ds, period, k, nodes, entries",
    CENSUS_TREES,
    ids=[f"{','.join(map(str, ds))}-T{t}-k{k}" for ds, t, k, _, _ in CENSUS_TREES],
)
def test_enumerate_census_tree_corpus(ds, period, k, nodes, entries):
    spec = CirculantSpec(ds)
    assert _nodes_needed(spec, period, k) == nodes
    assert len(circulant_enumerate(spec, period, k)) == entries


@pytest.mark.parametrize(
    "ds, period, max_k, nodes",
    [((2, 2), 4, 4, 37), ((3, 3), 3, 4, 15), ((4, 4), 4, 4, 50), ((1, 4, 4), 8, 3, 339)],
    ids=["2,2", "3,3", "4,4", "1,4,4"],
)
def test_enumerate_packs_a_count_of_the_full_valency(ds, period, max_k, nodes):
    # at the last period one class count reaches the valency: x sees x + 2 four
    # times in C(2,2) at T = 4, itself four times in C(3,3) at T = 3 and in
    # C(4,4) at T = 4, and x + 4 four times in C(1,4,4) at T = 8.  Counts of
    # one total alias only in fields too narrow for the valency: at valency 4
    # none do even in 2-bit fields, but at valency 6 those pack (0, 5, 1) and
    # (4, 0, 2) alike, which lets C(1,4,4) pass prefixes its counts refuse and
    # grows its tree
    spec = CirculantSpec(ds)
    for k in range(1, max_k + 1):
        for t in range(1, period + 1):
            assert _census(spec, t, k) == brute_force_circulant_census(ds, t, k), (t, k)
    assert _nodes_needed(spec, period, max_k) == nodes


def test_enumerate_bounds_k_by_the_period():
    # six positions use at most six colors; a row table of 10**12 + 1 entries
    # would not fit in memory
    spec = CirculantSpec((1,))
    assert circulant_enumerate(spec, 6, 10**12) == circulant_enumerate(spec, 6, 6)
    assert len(circulant_enumerate(spec, 6, 6)) == 7


def test_enumerate_refuses_period_over_budget_before_building(monkeypatch):
    def no_lists(*args):
        raise AssertionError("quotient built")

    monkeypatch.setattr(periodic, "_circulant_neighbors", no_lists)
    with pytest.raises(BudgetExceededError):
        circulant_enumerate(CirculantSpec((1,)), 10**8, 1)
    with pytest.raises(BudgetExceededError):
        circulant_enumerate(CirculantSpec((1, 2, 4)), 101, 2, node_budget=100)


def test_enumerate_raises_when_a_kept_string_misses_its_class_sums(monkeypatch):
    # the vertex checks admit only strings whose class sums agree, so a leaf
    # re-check that disagrees is a fault in the census, not a string to drop
    def mismatch(nbrs, dm, colors, k, s=None):
        return [None] * k, (0, [0] * k), 1

    monkeypatch.setattr(periodic, "_class_sums", mismatch)
    with pytest.raises(AssertionError, match="unequal class sums"):
        circulant_enumerate(CirculantSpec((1, 2, 4)), 3, 2)


def test_enumerate_c124_period_32_at_default_budget():
    spec = CirculantSpec((1, 2, 4))
    census = _census(spec, 32, 2)
    assert len({colors for colors, _ in census}) == len(census)
    for colors, rows in census:
        assert rotation_renaming_canonical(colors) == colors
        assert circulant_class_rows(spec.ds, colors) == rows
    for p in (1, 2, 4, 8, 16):
        for colors, rows in _census(spec, p, 2):
            assert (colors * (32 // p), rows) in census


def test_enumerate_long_period_needs_no_recursion():
    found = circulant_enumerate(CirculantSpec((1,)), 1000, 1)
    assert [(e.coloring.colors, e.s) for e in found] == [((1,) * 1000, RationalMatrix([[2]]))]


def _census(spec, period, k):
    return [
        (e.coloring.colors, [list(e.s.row(i)) for i in range(e.s.rows)])
        for e in circulant_enumerate(spec, period, k)
    ]


@pytest.mark.parametrize(
    "ds",
    [ds for r in range(1, 6) for ds in combinations(range(1, 6), r)],
    ids=lambda ds: ",".join(map(str, ds)),
)
def test_enumerate_matches_brute_force_census(ds):
    spec = CirculantSpec(ds)
    for k, max_period in ((2, 10), (3, 6)):
        for period in range(1, max_period + 1):
            assert _census(spec, period, k) == brute_force_circulant_census(ds, period, k)


@pytest.mark.parametrize("ds", [(1, 2, 4), (1, 3, 5)])
def test_enumerate_long_periods(ds):
    # beyond brute force: every entry is perfect, canonical and new, and each
    # census at a divisor p of the period reappears repeated period/p times
    spec = CirculantSpec(ds)
    for period in (16, 18, 20):
        census = _census(spec, period, 2)
        assert len({colors for colors, _ in census}) == len(census)
        for colors, rows in census:
            assert rotation_renaming_canonical(colors) == colors
            assert circulant_class_rows(ds, colors) == rows
        for p in range(1, period):
            if period % p == 0:
                for colors, rows in _census(spec, p, 2):
                    assert (colors * (period // p), rows) in census


def _minimal_period(colors: tuple[int, ...]) -> int:
    n = len(colors)
    for p in range(1, n + 1):
        if n % p == 0 and colors == colors[p:] + colors[:p]:
            return p
    return n


@pytest.mark.parametrize("ds", [(1,), (1, 2), (1, 3)])
def test_period_filter_never_contradicts_enumeration(ds):
    # any (b,c) realized at true period P must satisfy every fired constraint
    spec = CirculantSpec(ds)
    for period in range(2, 7):
        for entry in circulant_enumerate(spec, period, 2):
            if entry.coloring.k != 2:
                continue
            true_period = _minimal_period(entry.coloring.colors)
            b, c = entry.s[0, 1], entry.s[1, 0]
            constraint = circulant_period_filter(spec, params(b, c, spec.valency), t_max=8)
            for t in constraint.fired:
                assert t % true_period == 0


# --- grid specs -----------------------------------------------------------------------


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(frozenset({(0, 0), (1, 0), (-1, 0)}))
    with pytest.raises(ValueError):
        GridSpec(frozenset({(1, 0)}))  # not closed under negation
    assert GridSpec.parse("1,0;0,1").offsets == GridSpec.square().offsets
    assert GridSpec.parse("1,0;0,1;1,-1").offsets == GridSpec.triangular().offsets
    assert GridSpec.square().valency == 4
    assert GridSpec.triangular().valency == 6


def test_grid_h_examples():
    assert grid_h(GridSpec.square(), (1, 1)) == (2, False)
    assert grid_h(GridSpec.triangular(), (1, 0)) == (2, True)
    assert grid_h(GridSpec.square(), (5, 5)) == (0, False)
    with pytest.raises(ValueError):
        grid_h(GridSpec.square(), (0, 0))


# --- torus quotients --------------------------------------------------------------------


def test_torus_large_is_simple_four_regular():
    g = torus_quotient(GridSpec.square(), (5, 5))
    assert g.simple
    assert set(g.adjacency.row_sums()) == {Fraction(4)}


def test_torus_single_vertex_loop():
    g = torus_quotient(GridSpec.square(), (1, 1))
    assert g.adjacency == RationalMatrix([[4]])


def test_torus_triangular_4x1_ring():
    g = torus_quotient(GridSpec.triangular(), (4, 1))
    expected = RationalMatrix(
        [
            [2, 2, 0, 2],
            [2, 2, 2, 0],
            [0, 2, 2, 2],
            [2, 0, 2, 2],
        ]
    )
    assert g.adjacency == expected


def test_torus_quotient_is_the_rectangular_lattice_quotient():
    for spec in (GridSpec.square(), GridSpec.triangular()):
        for p, q in ((1, 1), (2, 3), (4, 1), (3, 5)):
            adjacency = torus_quotient(spec, (p, q)).adjacency
            nbrs = _lattice_neighbors(spec, [(p, 0), (0, q)])
            assert nbrs == [
                [(w, int(a)) for w, a in enumerate(adjacency.row(v)) if a] for v in range(p * q)
            ]


@pytest.mark.parametrize("basis", [[(1, 1), (0, 2)], [(1, 2), (0, 5)]])
def test_lattice_neighbors_skew_bases(basis):
    for spec in (GridSpec.square(), GridSpec.triangular()):
        assert _lattice_neighbors(spec, basis) == lattice_neighbor_counts(spec.offsets, basis)


def test_lattice_neighbors_perfect_code():
    # [(1,2),(0,5)]: the five classes of x + 2y mod 5; each cell sees the other four once
    nbrs = _lattice_neighbors(GridSpec.square(), [(1, 2), (0, 5)])
    assert nbrs == [[(w, 1) for w in range(5) if w != v] for v in range(5)]


@settings(max_examples=60)
@given(
    st.sampled_from([GridSpec.square(), GridSpec.triangular(), GridSpec.parse("1,2;2,1")]),
    st.data(),
)
def test_lattice_neighbors_match_independent_count(spec, data):
    a = data.draw(st.integers(1, 12))
    d = data.draw(st.integers(1, 12 // a))
    b = data.draw(st.integers(0, d - 1))
    basis = [(a, b), (0, d)]
    assert _lattice_neighbors(spec, basis) == lattice_neighbor_counts(spec.offsets, basis)


def test_lattice_basis_shapes():
    assert _lattice_basis([]) == []
    assert _lattice_basis([(2, 2), (3, 3)]) == [(1, 1)]
    assert _lattice_basis([(0, 3)]) == [(0, 3)]
    basis = _lattice_basis([(1, 1), (1, -1)])
    assert basis[0][0] * basis[1][1] == 2  # index-2 sublattice


def reduce_modulo_echelon_basis(basis, vector):
    """The remainder of the vector after each basis row, in order, clears what it can."""
    x, y = vector
    for bx, by in basis:
        if bx:
            q, x = divmod(x, bx)
            y -= q * by
        else:
            y %= by
    return x, y


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=5))
def test_lattice_basis_is_the_normal_form_of_the_generated_lattice(vectors):
    basis = _lattice_basis(vectors)
    if len(basis) == 2:
        (a, b), (zero, d) = basis
        assert a > 0 and zero == 0 and d > 0 and 0 <= b < d
    elif basis:
        ((a, b),) = basis
        assert a > 0 or (a == 0 and b > 0)
    # the inputs lie in the basis's lattice
    for vector in vectors:
        assert reduce_modulo_echelon_basis(basis, vector) == (0, 0)
    # and the basis vectors in the inputs' lattice, found by an independent walk over a box
    reach = max((abs(c) for v in basis for c in v), default=0)
    margin = 2 * max((abs(c) for v in vectors for c in v), default=0) + 1
    points = lattice_points_by_walking(vectors, reach + margin)
    assert all(v in points for v in basis)


# --- quotient soundness oracle ------------------------------------------------------------


@settings(max_examples=40)
@given(
    st.sampled_from([GridSpec.square(), GridSpec.triangular()]),
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_grid_quotient_matches_patch_counting(spec, p, q, data):
    raw = data.draw(st.lists(st.integers(1, 3), min_size=p * q, max_size=p * q))
    f = normalized_coloring(tuple(raw))
    quotient = torus_quotient(spec, (p, q))
    assert induced_parameters(quotient, f) == grid_params_by_patch_count(spec, (p, q), f)


@settings(max_examples=40)
@given(
    st.sampled_from([(1,), (1, 2), (1, 2, 4), (2, 3)]),
    st.integers(1, 6),
    st.data(),
)
def test_circulant_quotient_matches_segment_counting(ds, period, data):
    raw = data.draw(st.lists(st.integers(1, 3), min_size=period, max_size=period))
    f = normalized_coloring(tuple(raw))
    spec = CirculantSpec(ds)
    quotient = circulant_quotient(spec, period)
    assert induced_parameters(quotient, f) == circulant_params_by_segment_count(
        spec, period, f
    )


# --- torus search ---------------------------------------------------------------------------


def test_torus_search_triangular_22():
    outcome = torus_search(GridSpec.triangular(), (4, 1), (2, 2), find_all=True)
    assert outcome.status is SearchStatus.WITNESS
    assert Coloring((1, 1, 2, 2), 2) in outcome.witnesses
    quotient = torus_quotient(GridSpec.triangular(), (4, 1))
    target = params(2, 2, 6).matrix()
    for w in outcome.witnesses:
        assert induced_parameters(quotient, w) == target


def test_torus_search_square_43_no_witness():
    for periods in [(2, 2), (3, 3), (4, 4), (3, 4)]:
        outcome = torus_search(GridSpec.square(), periods, (4, 3), find_all=True)
        assert outcome.status is SearchStatus.INCONCLUSIVE
        assert outcome.witnesses == ()


def test_torus_search_single_vertex():
    outcome = torus_search(GridSpec.triangular(), (1, 1), (2, 2))
    assert outcome.status is SearchStatus.INCONCLUSIVE


def test_torus_search_budget():
    with pytest.raises(BudgetExceededError):
        torus_search(GridSpec.square(), (5, 5), (1, 1), node_budget=24)
    # 25 cells fit a budget of 25 nodes, so the search runs until the budget ends it
    outcome = torus_search(GridSpec.square(), (5, 5), (1, 1), node_budget=25)
    assert outcome.status is SearchStatus.INCONCLUSIVE and not outcome.stats.complete
    assert torus_search(GridSpec.square(), (5, 5), (1, 1)).stats.complete


def test_torus_search_refuses_before_building(monkeypatch):
    def no_lists(*args):
        raise AssertionError("quotient built")

    monkeypatch.setattr(periodic, "_lattice_neighbors", no_lists)
    with pytest.raises(BudgetExceededError):
        torus_search(GridSpec.square(), (4000, 4000), (1, 1))
    with pytest.raises(BudgetExceededError):
        torus_search(GridSpec.square(), (300, 300), (1, 1), node_budget=89999)


def test_torus_search_square_41_on_5x5():
    # the perfect code x + 2y = 0 mod 5, found in 47 nodes among 2^25 colorings
    outcome = torus_search(GridSpec.square(), (5, 5), (4, 1))
    assert outcome.status is SearchStatus.WITNESS
    assert outcome.stats.complete
    for w in outcome.witnesses:
        assert grid_params_by_patch_count(GridSpec.square(), (5, 5), w) == params(4, 1, 4).matrix()


def test_torus_search_checkerboard():
    outcome = torus_search(GridSpec.square(), (2, 2), (4, 4), find_all=True)
    assert outcome.status is SearchStatus.WITNESS


def test_torus_search_node_budget():
    outcome = torus_search(
        GridSpec.triangular(), (4, 5), (3, 3), find_all=True, node_budget=100
    )
    assert not outcome.stats.complete


def test_torus_search_raises_when_a_witness_fails_its_recheck(monkeypatch):
    # every coloring the engine returns meets S; a failed re-check is a fault, not a non-witness
    def mismatch(nbrs, weight, colors, k, s):
        return None, (0, 1), None

    monkeypatch.setattr(periodic, "_class_sums", mismatch)
    with pytest.raises(AssertionError, match="misses S"):
        torus_search(GridSpec.square(), (2, 2), (4, 4))


def test_torus_search_needs_every_color():
    # the classes of [[4,0],[0,4]] never meet, so on the connected 2x2 torus only
    # the one-color coloring meets both rows, and that is no 2-coloring
    s = RationalMatrix([[4, 0], [0, 4]])
    outcome = torus_search(GridSpec.square(), (2, 2), s, find_all=True)
    assert outcome.witnesses == ()
    assert outcome.stats.complete


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([GridSpec.square(), GridSpec.triangular()]), st.data())
def test_torus_search_matches_brute_force(spec, data):
    p = data.draw(st.integers(1, 12))
    q = data.draw(st.integers(1, 12 // p))
    k = data.draw(st.integers(2, 3 if p * q <= 7 else 2))
    rows = target_rows(data, k, spec.valency)
    outcome = torus_search(spec, (p, q), RationalMatrix(rows), find_all=True)
    expected = brute_force_torus_colorings(spec.offsets, (p, q), rows)
    assert outcome.stats.complete
    assert len(outcome.witnesses) == len(expected)
    assert {w.colors for w in outcome.witnesses} == expected


# --- patch search -----------------------------------------------------------------------------


def test_patch_search_square_43_rejected():
    outcome = patch_search(GridSpec.square(), (4, 3), (6, 6))
    assert outcome.status is SearchStatus.REJECTED
    assert outcome.stats.complete


def test_patch_rejection_is_monotone():
    smaller = patch_search(GridSpec.square(), (4, 3), (6, 6))
    larger = patch_search(GridSpec.square(), (4, 3), (7, 7))
    assert smaller.status is SearchStatus.REJECTED
    assert larger.status is SearchStatus.REJECTED


def test_patch_search_22_inconclusive():
    outcome = patch_search(GridSpec.triangular(), (2, 2), (6, 6))
    assert outcome.status is SearchStatus.INCONCLUSIVE
    assert outcome.stats.complete


def test_patch_search_needs_interior():
    with pytest.raises(ValueError):
        patch_search(GridSpec.square(), (1, 1), (2, 2))


def test_patch_search_checks_two_color_valency():
    # r = 7 is not the square grid's valency; no window search can prove anything for it
    for target in (params(1, 1, 7), params(1, 2, 3)):
        with pytest.raises(ValueError, match="valency"):
            patch_search(GridSpec.square(), target, (4, 4))
        with pytest.raises(ValueError, match="valency"):
            torus_search(GridSpec.square(), (2, 2), target)


def test_backtrack_requires_cell_weight_equal_to_row_sums():
    # a cell seeing weight 1 against a row summing to 2 could never meet it,
    # yet the engine only cuts colors over target, so it refuses such input
    with pytest.raises(ValueError, match="row sum"):
        _backtrack(RationalMatrix([[2]]), [(True, ((0, 1),))], frozenset({1}), node_budget=10)
    # cells seeing totals 1 and 2 against rows summing to 1 and 2: not one common total
    cells = [(True, ((0, 1), (1, 1))), (True, ((0, 1),))]
    with pytest.raises(ValueError, match="row sum"):
        _backtrack(RationalMatrix([[1, 0], [0, 2]]), cells, frozenset({1, 2}), node_budget=10)


def test_patch_search_budget_exhaustion():
    outcome = patch_search(GridSpec.square(), (4, 3), (8, 8), node_budget=50)
    assert outcome.status is SearchStatus.INCONCLUSIVE
    assert not outcome.stats.complete


def test_patch_search_matrix_target():
    s = params(4, 3, 4).matrix()
    outcome = patch_search(GridSpec.square(), s, (6, 6))
    assert outcome.status is SearchStatus.REJECTED


@pytest.mark.parametrize("spec, side", [(GridSpec.square(), 32), (GridSpec.triangular(), 40)])
def test_patch_search_deep_one_color_window(spec, side):
    outcome = patch_search(spec, RationalMatrix([[spec.valency]]), (side, side))
    assert outcome.status is SearchStatus.INCONCLUSIVE
    assert outcome.stats.complete


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([GridSpec.square(), GridSpec.triangular()]),
    st.sampled_from([(3, 3), (3, 4), (4, 3)]),
    st.data(),
)
def test_patch_search_matches_brute_force(spec, size, data):
    r = spec.valency
    if data.draw(st.booleans()):
        b, c = data.draw(st.integers(0, r)), data.draw(st.integers(0, r))
        target, rows = (b, c), [[r - b, b], [c, r - c]]
    else:  # explicit matrix targets are searched unpinned, in one orientation
        rows = target_rows(data, data.draw(st.integers(1, 3 if size == (3, 3) else 2)), r)
        target = RationalMatrix(rows)
    outcome = patch_search(spec, target, size)
    assert outcome.stats.complete
    assert (outcome.status is SearchStatus.REJECTED) == (
        not brute_force_window_colorable(spec.offsets, size, rows)
    )


def test_patch_search_target_with_negative_entry_is_malformed():
    # (1, 7) on the square grid sums to the valency only as [[3, 1], [7, -3]]
    for search in (
        lambda: patch_search(GridSpec.square(), (1, 7), (4, 4)),
        lambda: torus_search(GridSpec.square(), (2, 2), (1, 7)),
        lambda: patch_search(GridSpec.square(), RationalMatrix([[5, -1], [2, 2]]), (4, 4)),
        lambda: _backtrack(  # a negative entry would borrow across the engine's packed fields
            RationalMatrix([[5, -1], [2, 2]]), [(False, ())], frozenset(), node_budget=10
        ),
    ):
        with pytest.raises(ValueError, match="negative"):
            search()


@pytest.mark.parametrize(
    "spec, target, side",
    [
        (GridSpec.square(), (4, 3), 6),
        (GridSpec.triangular(), (3, 1), 5),
        (GridSpec.square(), (2, 2), 6),
        (GridSpec.triangular(), (1, 2), 6),  # most of its nodes are counted from subtree tables
    ],
)
def test_patch_search_budget_stops_the_same_search(spec, target, side):
    # a window prepared only for the cells the budget reaches runs the same search
    full = patch_search(spec, target, (side, side))
    last = full.stats.nodes
    for budget in sorted({*range(40), *range(0, last, 23), last - 1, last, last + 1}):
        outcome = patch_search(spec, target, (side, side), node_budget=budget)
        assert outcome.stats.nodes == min(budget + 1, full.stats.nodes)
        assert outcome.stats.complete == (budget >= full.stats.nodes)
        assert 0 <= outcome.stats.skipped <= outcome.stats.nodes
        if outcome.stats.complete:
            assert outcome == full


def test_patch_search_budget_inside_a_skipped_subtree():
    # no constrained cell sees the corner cell of the triangular window, so the subtree under its
    # second color repeats the one under its first and is counted from the depth-1 table; a budget
    # that ends inside it stops at node budget + 1, as the walk would, with every node counted
    spec, target, size = GridSpec.triangular(), (1, 2), (6, 6)
    full = patch_search(spec, target, size).stats
    assert (full.nodes, full.complete, full.skipped) == (4944, True, 3164)
    for budget in range(full.nodes - 1500, full.nodes, 7):  # inside the second run's last skip
        stats = patch_search(spec, target, size, node_budget=budget).stats
        assert (stats.nodes, stats.complete) == (budget + 1, False)
        assert stats.skipped == full.skipped - (full.nodes - budget - 1)


@pytest.mark.parametrize("entries", [1, 2, 7, 100])
def test_full_subtree_tables_leave_the_search_unchanged(monkeypatch, entries):
    # once the tables hold their bound of entries they turn off, and the walk goes on in the same tree
    searches = [(GridSpec.triangular(), (1, 2), 6), (GridSpec.square(), (4, 3), 8),
                (GridSpec.triangular(), (3, 1), 6), (GridSpec.square(), (2, 2), 10)]
    budgets = [periodic.DEFAULT_NODE_BUDGET, 0, 100, 2000, 4000]
    for spec, target, side in searches:
        expected = [patch_search(spec, target, (side, side), node_budget=b).stats for b in budgets]
        band_bits = 8 * (2 * side + 3)  # two 4-bit fields a cell over the square band's 2 * side + 3 cells
        with monkeypatch.context() as bounded:
            bounded.setattr(periodic, "_TABLE_BITS", entries * (band_bits + 1024))
            got = [patch_search(spec, target, (side, side), node_budget=b).stats for b in budgets]
        assert [(s.nodes, s.complete) for s in got] == [(s.nodes, s.complete) for s in expected]
        assert got[0].skipped < expected[0].skipped or got[0].skipped == expected[0].skipped == 0


def test_skipped_nodes_come_only_from_window_refutations():
    assert patch_search(GridSpec.triangular(), (2, 3), (8, 8)).stats.skipped > 0
    witness_window = patch_search(GridSpec.square(), (2, 2), (12, 12))
    assert (witness_window.status, witness_window.stats.skipped) == (SearchStatus.INCONCLUSIVE, 0)
    assert patch_search(GridSpec.square(), RationalMatrix([[4]]), (12, 12)).stats.skipped == 0  # one color


# --- the engine against a plain recursive search ----------------------------------------------


KING = GridSpec(frozenset(product((-1, 0, 1), repeat=2)) - {(0, 0)})  # valency 8: a power of two


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([GridSpec.square(), GridSpec.triangular(), KING]), st.data())
def test_backtrack_matches_reference_search(spec, data):
    # the totals 4, 6 and 8 times denominators 1, 2 and 3 give slack fields of 4 to 6 bits
    r = spec.valency
    k = data.draw(st.integers(1, 4), label="k")
    denom = data.draw(st.sampled_from([1, 2, 3]), label="denominator")
    rows = [[Fraction(x, denom) for x in row] for row in target_rows(data, k, denom * r)]
    budget = data.draw(st.one_of(st.integers(0, 40), st.integers(0, 1500)), label="budget")
    find_all = data.draw(st.booleans(), label="find_all")
    pin_first = data.draw(st.booleans(), label="pin_first")
    if data.draw(st.booleans(), label="window"):
        width = data.draw(st.integers(1, 5), label="width")
        height = data.draw(st.integers(1, 20 // width), label="height")
        flags, interior, targets = window_by_coordinates(spec.offsets, width, height)
        # the engine gets the window prepared for the cells its budget reaches
        cells, totals = _window(spec, width, height, budget + 1)
        cycle = 0
    else:  # quotients of index up to 36: on the larger ones the engine's band wraps round the cycle
        a = data.draw(st.integers(1, 6), label="a")
        d = data.draw(st.integers(1, 6), label="d")
        basis = [(a, data.draw(st.integers(0, d - 1), label="b")), (0, d)]
        if a * d > 6:  # the reference search recounts every cell at each node
            budget = min(budget, 300)
        targets = lattice_neighbor_counts(spec.offsets, basis)
        flags = [True] * len(targets)
        interior = [0]  # every cell is constrained
        cells, totals = _quotient_cells(_lattice_neighbors(spec, basis)), frozenset({r})
        cycle = len(cells)
    allowed = [tuple(range(1, k + 1))] * len(targets)
    if pin_first and interior:
        allowed[interior[0]] = (1,)
    expected = reference_backtrack(
        rows, targets, flags, allowed, all_colors=cycle > 0, find_all=find_all, node_budget=budget
    )
    *got, skipped = _backtrack(
        RationalMatrix(rows), cells, totals,
        cycle=cycle, pin_first=pin_first, find_all=find_all, node_budget=budget,
    )
    assert tuple(got) == expected
    tables = not cycle and not find_all and k > 1  # a window search in 2+ colors for one coloring
    assert 0 <= skipped <= got[1] and (tables or not skipped)


# --- search trees of the benchmark's grid corpus -------------------------------------------------
#
# The engine's node count is its tree: any change to pruning or to the order
# colors are tried moves it.  (grid, (b, c), search, shape, status, nodes,
# witnesses); tori run with find_all, every search is complete, and the
# refutations expand the same tree in either orientation.


def _refuted_patches(grid, bc, nodes_by_side):
    return [(grid, bc, "patch", (side, side), "rejected", nodes, 0) for side, nodes in nodes_by_side.items()]


def _exhausted_tori(grid, bc, nodes_44, nodes_45):
    return [(grid, bc, "torus", (4, 4), "inconclusive", nodes_44, 0),
            (grid, bc, "torus", (4, 5), "inconclusive", nodes_45, 0)]


TRI_22_TORI = {  # (p, q): (nodes, witnesses)
    (1, 1): (0, 0), (1, 2): (6, 0), (1, 3): (14, 0), (1, 4): (22, 4),
    (2, 1): (6, 0), (2, 2): (18, 0), (2, 3): (38, 0), (2, 4): (98, 4),
    (3, 1): (14, 0), (3, 2): (30, 0), (3, 3): (94, 0), (3, 4): (286, 4),
    (4, 1): (22, 4), (4, 2): (54, 4), (4, 3): (138, 4), (4, 4): (494, 12),
}

GRID_CORPUS = [
    *_refuted_patches("square", (4, 3), {6: 2708, 7: 5092, 8: 9588}),
    *_refuted_patches("triangular", (3, 1), {5: 2260, 6: 5176, 7: 11516, 8: 26332}),
    *_refuted_patches("triangular", (5, 5), {4: 218, 5: 418, 6: 810, 7: 1586, 8: 3130}),
    *_refuted_patches("triangular", (6, 4), {5: 936, 6: 1880, 7: 3800, 8: 7652}),
    *_refuted_patches("triangular", (2, 3), {8: 177108}),
    *_exhausted_tori("square", (4, 3), 46, 70),
    *_exhausted_tori("triangular", (3, 1), 108, 198),
    *_exhausted_tori("triangular", (5, 5), 74, 118),
    *_exhausted_tori("triangular", (6, 4), 64, 116),
    *[("square", (2, 2), "patch", size, "inconclusive", nodes, 0)
      for size, nodes in {(10, 10): 2810, (11, 10): 7164, (11, 11): 7181, (12, 12): 13585}.items()],
    *[("triangular", (2, 2), "torus", periods, "witness" if count else "inconclusive", nodes, count)
      for periods, (nodes, count) in TRI_22_TORI.items()],
    ("triangular", (3, 3), "torus", (4, 5), "inconclusive", 3546, 0),
    # trees deep enough that the engine's band moves far past its start, and round a torus
    ("square", (2, 2), "patch", (16, 16), "inconclusive", 274181, 0),
    ("square", (4, 3), "torus", (20, 20), "inconclusive", 5976, 0),
]


@pytest.mark.parametrize(
    "grid, bc, search, shape, status, nodes, witnesses",
    GRID_CORPUS,
    ids=[f"{search}-{grid}-{bc[0]},{bc[1]}-{shape[0]}x{shape[1]}" for grid, bc, search, shape, *_ in GRID_CORPUS],
)
def test_search_trees_of_the_grid_corpus(grid, bc, search, shape, status, nodes, witnesses):
    spec = getattr(GridSpec, grid)()
    for target in {bc, bc[::-1]}:
        if search == "patch":
            outcome = patch_search(spec, target, shape)
        else:
            outcome = torus_search(spec, shape, target, find_all=True)
        got = (outcome.status.value, outcome.stats.nodes, outcome.stats.complete, len(outcome.witnesses))
        assert got == (status, nodes, True, witnesses)
        if search == "torus":  # quotient searches keep no subtree tables
            assert outcome.stats.skipped == 0


# --- grid rejection report ----------------------------------------------------------------------


def test_grid_reject_square_43():
    report = grid_reject_2color(GridSpec.square(), params(4, 3, 4))
    assert report.verdict.infeasible
    diag = {d.delta: d for d in report.per_delta}[(1, 1)]
    assert diag.verdict.infeasible
    assert (diag.verdict.lhs, diag.verdict.rhs) == (7, 6)
    assert set(report.monochromatic) == {(1, 1), (1, -1)}


def test_grid_reject_triangular_66_outright():
    report = grid_reject_2color(GridSpec.triangular(), params(6, 6, 6))
    assert report.verdict.infeasible
    assert any(d.adjacent and d.verdict.infeasible for d in report.per_delta)


def test_grid_reject_inside_window_feasible():
    report = grid_reject_2color(GridSpec.triangular(), params(3, 3, 6))
    assert report.verdict.feasible
    assert report.monochromatic == ()


def test_grid_reject_22_not_rejected():
    report = grid_reject_2color(GridSpec.triangular(), params(2, 2, 6))
    assert report.verdict.feasible


def test_grid_reject_finds_quotient_witness():
    # (4,4) on the square grid: diagonals are forced monochromatic, and the
    # index-2 quotient carries the checkerboard, so nothing is rejected
    report = grid_reject_2color(GridSpec.square(), params(4, 4, 4))
    assert report.verdict.feasible
    assert report.note is not None and "witness" in report.note


def test_grid_reject_rank_one_contradiction():
    # degenerate one-dimensional grid: +-1 along the x axis (an embedded path);
    # b+c = 1 < 2 = h+2 at the adjacent delta (1,0) forces direction (1,0), so
    # each vertex's two neighbors form one monochromatic class of size 2 and
    # odd b is impossible
    line = GridSpec(frozenset({(1, 0), (-1, 0)}))
    report = grid_reject_2color(line, params(1, 0, 2))
    assert report.verdict.infeasible
    assert report.verdict.violated == (
        "direction (1, 0) is forced monochromatic; neighbor classes have sizes [2], "
        "and b = 1 is not a sum of class sizes"
    )
    inconclusive = grid_reject_2color(line, params(2, 2, 2))
    assert inconclusive.verdict.status.value == "inconclusive"


def test_grid_reject_incomplete_quotient_search_proves_nothing():
    report = grid_reject_2color(GridSpec.square(), params(4, 3, 4), node_budget=1)
    assert report.verdict.status.value == "inconclusive"
    assert "node budget" in report.note


def test_grid_reject_quotient_over_node_budget(monkeypatch):
    # (4,3) on the square grid forces an index-2 quotient
    report = grid_reject_2color(GridSpec.square(), params(4, 3, 4), node_budget=2)
    assert report.verdict.status.value == "inconclusive"
    assert report.note == "the search of the index-2 quotient ran out of its node budget"

    def no_lists(*args):
        raise AssertionError("quotient built")

    monkeypatch.setattr(periodic, "_lattice_neighbors", no_lists)
    report = grid_reject_2color(GridSpec.square(), params(4, 3, 4), node_budget=1)
    assert report.verdict.status.value == "inconclusive"
    assert report.note == "monochromatic directions give an index-2 quotient, over the node budget of 1"


def test_grid_reject_valency_check():
    with pytest.raises(ValueError):
        grid_reject_2color(GridSpec.square(), params(1, 1, 6))


@pytest.mark.parametrize(
    "b, c, r, message",
    [
        (5, 0, 4, "target entry -1 in row 1, column 1 is negative"),
        (-1, 3, 4, "target entry -1 in row 1, column 2 is negative"),
        (1, Fraction(9, 2), 4, "target entry -1/2 in row 2, column 2 is negative"),
        (0, -2, 4, "target entry -2 in row 2, column 1 is negative"),
        (1, 1, 6, "target rows must sum to the valency 4"),
    ],
)
def test_grid_reject_refuses_targets_the_searches_refuse(b, c, r, message):
    # the rule of patch_search and torus_search: rows sum to the valency, entries in 0..r
    with pytest.raises(ValueError, match=message):
        grid_reject_2color(GridSpec.square(), params(b, c, r))
    with pytest.raises(ValueError, match=message):
        patch_search(GridSpec.square(), params(b, c, r), (4, 4))


@pytest.mark.parametrize(
    "b, c, r, message",
    [
        (9, 0, 6, "target entry -3 in row 1, column 1 is negative"),
        (-1, 3, 6, "target entry -1 in row 1, column 2 is negative"),
        (2, 7, 6, "target entry -1 in row 2, column 2 is negative"),
        (1, 1, 4, "target rows must sum to the valency 6"),
    ],
)
def test_period_filter_refuses_targets_outside_0_to_r(b, c, r, message):
    with pytest.raises(ValueError, match=message):
        circulant_period_filter(CirculantSpec((1, 2, 4)), params(b, c, r), t_max=8)


@pytest.mark.parametrize("t_max", [0, -3])
def test_period_filter_refuses_t_max_below_one(t_max):
    with pytest.raises(ValueError, match="t_max must be a positive integer"):
        circulant_period_filter(CirculantSpec((1, 2, 4)), params(1, 1, 6), t_max=t_max)


def test_grid_reject_searches_the_forced_quotient_once(monkeypatch):
    # (4,3) on the square grid forces the index-2 quotient; the unpinned search of
    # (4,3) also covers (3,4), so a budget that covers it alone is a proof
    proof = grid_reject_2color(GridSpec.square(), params(4, 3, 4)).verdict
    assert proof.infeasible and proof.violated.endswith("admits no (4,3)-coloring in either orientation")
    for budget in range(6, 12):
        report = grid_reject_2color(GridSpec.square(), params(4, 3, 4), node_budget=budget)
        assert report.verdict == proof
    for budget in range(2, 6):
        report = grid_reject_2color(GridSpec.square(), params(4, 3, 4), node_budget=budget)
        assert report.verdict.status.value == "inconclusive"
        assert report.note == "the search of the index-2 quotient ran out of its node budget"

    calls = []
    search = periodic._quotient_colorings

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(periodic, "_quotient_colorings", counted)
    rank_two_verdicts = 0
    for spec in (GridSpec.square(), GridSpec.triangular()):
        values = range(spec.valency + 1)
        for b, c in product(values, repeat=2):
            calls.clear()
            report = grid_reject_2color(spec, params(b, c, spec.valency))
            text = f"{report.verdict.violated} {report.note}"
            rank_two = "quotient" in text and "over the node budget" not in text
            assert len(calls) == rank_two
            rank_two_verdicts += rank_two
    assert rank_two_verdicts > 0


@settings(max_examples=200, deadline=None)
@given(
    offsets=st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=12),
    vector=st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0)),
    multiples=st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=3),
)
def test_coset_sizes_match_pairwise_oracle(offsets, vector, multiples):
    # rank-1 generators as _lattice_basis normalizes them, non-primitive ones included
    (g,) = _lattice_basis([(k * vector[0], k * vector[1]) for k in multiples])
    for gen in (g, (2, 0), (0, 3), (2, -4)):
        assert sorted(_coset_sizes(frozenset(offsets), gen)) == sorted(
            coset_sizes_pairwise(offsets, gen)
        )


def test_grid_reject_window_below_one_raises():
    for window in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            grid_reject_2color(GridSpec.square(), params(4, 3, 4), window=window)
    assert grid_reject_2color(GridSpec.square(), params(4, 3, 4), window=1).verdict.infeasible


def test_negative_node_budget_raises():
    searches = [
        lambda budget: patch_search(GridSpec.square(), (1, 1), (4, 4), node_budget=budget),
        lambda budget: torus_search(GridSpec.square(), (2, 2), (1, 1), node_budget=budget),
        lambda budget: grid_reject_2color(GridSpec.square(), params(4, 3, 4), node_budget=budget),
        lambda budget: circulant_enumerate(CirculantSpec((1,)), 4, 2, node_budget=budget),
    ]
    for search in searches:
        for budget in (-1, -5):
            with pytest.raises(ValueError, match="non-negative"):
                search(budget)


# --- prepared geometry --------------------------------------------------------------------------

GEOMETRY_SPECS = [GridSpec.square(), GridSpec.triangular(), GridSpec.parse("1,0;0,1;1,2")]
GEOMETRY_IDS = ["square", "triangular", "radius-2"]


@pytest.mark.parametrize("spec", GEOMETRY_SPECS, ids=GEOMETRY_IDS)
def test_window_matches_coordinate_oracle(spec):
    # a window prepared for its first cells (all of them, or the cells a budget
    # reaches) is the prefix of the whole window, with equal cells sharing one object
    for width in range(1, 10):
        for height in range(1, 10):
            flags, interior, targets = window_by_coordinates(spec.offsets, width, height)
            seen = Counter(w for column in targets for w, _ in column)
            for prefix in range(1, width * height + 2):
                cells, totals = _window(spec, width, height, prefix)
                assert [constrained for constrained, _ in cells] == flags[:prefix]
                affected = [Counter((u + d, weight) for d, weight in seers) for u, (_, seers) in enumerate(cells)]
                assert affected == list(map(Counter, targets[:prefix]))
                assert len({id(cell) for cell in cells}) == len(set(cells))
                assert totals == frozenset(seen[w] for w in interior)


@pytest.mark.parametrize("spec", [GridSpec.square(), GridSpec.triangular()], ids=["square", "triangular"])
def test_grid_reject_window_verdicts_follow_the_rule(spec):
    r = Fraction(spec.valency)
    values = [Fraction(n, 2) for n in range(2 * spec.valency + 1)]  # 0, 1/2, 1, ..., r
    above = [Fraction(n, 2) for n in range(2 * spec.valency + 1, 4 * spec.valency + 1)]  # up to 2r
    for b, c in [(b, c) for b in above for c in values + above] + [(b, c) for b in values for c in above]:
        with pytest.raises(ValueError, match="is negative"):
            grid_reject_2color(spec, TwoColorParams(b, c, r), node_budget=0)
    for window in (1, 2, 3):
        deltas = [(dx, dy) for dx in range(window + 1) for dy in range(-window, window + 1)
                  if dx > 0 or dy > 0]
        pairs = [grid_h_by_counting(spec.offsets, delta) for delta in deltas]
        for b, c in product(values, repeat=2):
            report = grid_reject_2color(spec, TwoColorParams(b, c, r), window=window, node_budget=0)
            expected = []
            for h, adjacent in pairs:
                bc, low, high = b + c, Fraction(h), 2 * r - h
                if bc < low:
                    expected.append(("infeasible", bc, low, f"b+c = {bc} < {low} = h"))
                elif adjacent and bc < low + 2:
                    expected.append(
                        ("infeasible", bc, low + 2, f"b+c = {bc} < {low + 2} = h+2 (adjacent pair)")
                    )
                elif bc > high:
                    expected.append(("infeasible", bc, high, f"b+c = {bc} > {high} = 2r-h"))
                else:
                    expected.append(("feasible", bc, high, None))
            got = [
                (d.verdict.status.value, d.verdict.lhs, d.verdict.rhs, d.verdict.violated)
                for d in report.per_delta
            ]
            assert [(d.delta, d.h, d.adjacent) for d in report.per_delta] == [
                (delta, *pair) for delta, pair in zip(deltas, pairs)
            ]
            assert got == expected
            assert all(type(x) is Fraction for _, lhs, rhs, _ in got for x in (lhs, rhs))


def test_grid_reject_reads_one_delta_table_per_grid_and_window():
    spec = GridSpec.triangular()
    _delta_table.cache_clear()
    deltas = [(dx, dy) for dx in range(4) for dy in range(-3, 4) if dx > 0 or dy > 0]
    for b, c in product(range(1, 7), repeat=2):
        report = grid_reject_2color(spec, params(b, c, 6), window=3)
        assert [(d.delta, d.h, d.adjacent) for d in report.per_delta] == [
            (delta, *grid_h(spec, delta)) for delta in deltas
        ]
    assert (_delta_table.cache_info().misses, _delta_table.cache_info().hits) == (1, 35)


# --- symmetries and canonical forms ---------------------------------------------------------------


def test_offset_automorphism_counts():
    assert len(offset_automorphisms(GridSpec.square())) == 8
    assert len(offset_automorphisms(GridSpec.triangular())) == 12


def test_canonical_form_identifies_rotated_stripes():
    tri = GridSpec.triangular()
    x_stripes = Coloring((1, 1, 2, 2), 2)  # on the (4,1) torus
    y_stripes = Coloring((1, 1, 2, 2), 2)  # on the (1,4) torus
    with_sym = {
        periodic_coloring_canonical(tri, (4, 1), x_stripes, modulus=4),
        periodic_coloring_canonical(tri, (1, 4), y_stripes, modulus=4),
    }
    assert len(with_sym) == 1
    # no translation followed by a renaming turns one stripe direction into the other
    assert not translates_onto(((4, 1), x_stripes.colors), ((1, 4), y_stripes.colors))
    assert not translates_onto(((1, 4), y_stripes.colors), ((4, 1), x_stripes.colors))


def test_canonical_form_translation_invariant():
    tri = GridSpec.triangular()
    base = Coloring((1, 1, 2, 2), 2)
    shifted = Coloring((2, 1, 1, 2), 2)  # same stripes, phase moved by one
    assert translates_onto(((4, 1), base.colors), ((4, 1), shifted.colors))
    assert periodic_coloring_canonical(
        tri, (4, 1), base, modulus=4
    ) == periodic_coloring_canonical(tri, (4, 1), shifted, modulus=4)


def test_canonical_form_modulus_check():
    with pytest.raises(ValueError):
        periodic_coloring_canonical(
            GridSpec.triangular(), (3, 1), Coloring((1, 2, 2), 2), modulus=4
        )


def test_circulant_h_memo_matches_counting_across_a_sweep():
    for ds in ((1, 2, 3, 4, 5), (1, 2, 4), (1, 1, 3)):
        spec = CirculantSpec(ds)
        pairs = [
            TwoColorParams(Fraction(b), Fraction(c), Fraction(spec.valency))
            for b in range(1, spec.valency + 1)
            for c in range(1, spec.valency + 1)
        ]
        swept = [circulant_period_filter(spec, params, 16) for params in pairs]
        for t in range(1, 17):
            assert circulant_h(spec, t) == circulant_h_by_counting(ds, t)
        for params, constraint in zip(pairs, swept):
            circulant_h.cache_clear()
            assert circulant_period_filter(spec, params, 16) == constraint
    assert circulant_h.cache_info().maxsize is not None
