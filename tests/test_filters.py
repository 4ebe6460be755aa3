from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from perfcolor.coloring import (
    Coloring,
    TwoColorParams,
    induced_parameters,
    make_triple,
)
from perfcolor.filters import (
    PairContext,
    Side,
    distance_power_check,
    drg_check,
    drg_sides,
    row_distance_scan,
    simple_pair_bound,
    two_color_check,
    two_color_forced_sets,
)
from perfcolor.graphs import (
    cycle,
    distance_polynomials,
    intersection_array,
    petersen,
)
from perfcolor.periodic import GridSpec, torus_quotient
from perfcolor.ratmat import RationalMatrix, l1_row_distance


def test_pair_context_validation():
    PairContext(Fraction(4), 2, adjacent=False)
    with pytest.raises(ValueError):
        PairContext(Fraction(4), 5, adjacent=False)
    with pytest.raises(ValueError):
        PairContext(Fraction(4), 4, adjacent=True)


# --- the row-distance bound of M against S -----------------------------------------


def test_same_color_always_feasible():
    m = cycle(5).adjacency
    s = RationalMatrix([[0, 2], [1, 1]])
    verdicts = row_distance_scan([Side(m, s)], [(u, v, 2, 2) for u in range(5) for v in range(5)])
    assert len(verdicts) == 25 and all(verdict.feasible for verdict in verdicts)


def test_same_vertex_different_colors_infeasible():
    m = cycle(5).adjacency
    s = RationalMatrix([[0, 2], [1, 1]])
    [verdict] = row_distance_scan([Side(m, s)], [(3, 3, 1, 2)])
    assert verdict.infeasible
    assert verdict.lhs == 0


def test_square_torus_against_43_parameters():
    # diagonal pairs on the 5x5 torus: row distance 4 < 6 = parameter distance
    torus = torus_quotient(GridSpec.square(), (5, 5))
    s = RationalMatrix([[0, 4], [3, 1]])
    u = 0  # (0,0)
    v = 1 * 5 + 1  # (1,1)
    [verdict] = row_distance_scan([Side(torus.adjacency, s)], [(u, v, 1, 2)])
    assert verdict.infeasible
    assert (verdict.lhs, verdict.rhs) == (4, 6)


# --- simple_pair_bound ----------------------------------------------------------


def test_simple_bound_h_zero_never_fires():
    s = RationalMatrix([[0, 4], [3, 1]])
    ctx = PairContext(Fraction(4), 0, adjacent=False)
    assert simple_pair_bound(ctx, s, 1, 2).feasible


def test_simple_bound_square_grid_rejection():
    s = RationalMatrix([[0, 4], [3, 1]])
    verdict = simple_pair_bound(PairContext(Fraction(4), 2, adjacent=False), s, 1, 2)
    assert verdict.infeasible
    assert (verdict.lhs, verdict.rhs) == (6, 4)


def test_simple_bound_triangular_two_two():
    s = RationalMatrix([[4, 2], [2, 4]])
    verdict = simple_pair_bound(PairContext(Fraction(6), 2, adjacent=False), s, 1, 2)
    assert verdict.feasible
    assert (verdict.lhs, verdict.rhs) == (4, 8)


def test_simple_bound_row_sum_mismatch():
    s = RationalMatrix([[0, 4], [3, 1]])
    with pytest.raises(ValueError):
        simple_pair_bound(PairContext(Fraction(5), 1, adjacent=False), s, 1, 2)


@pytest.mark.parametrize("g", [cycle(6), petersen(), torus_quotient(GridSpec.square(), (4, 4))])
def test_simple_bound_consistent_with_pair_check(g):
    # via d([M]^u,[M]^v) = 2(r - h) both filters must agree on simple regular graphs
    r = g.adjacency.row_sums()[0]
    s = RationalMatrix([[0, r], [1, r - 1]])
    nxg = nx.Graph([(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adjacency[u, v] == 1])
    pairs = [(u, v, 1, 2) for u in range(g.n) for v in range(g.n) if u != v]
    for (u, v, _, _), verdict in zip(pairs, row_distance_scan([Side(g.adjacency, s)], pairs)):
        ctx = PairContext(r, len(list(nx.common_neighbors(nxg, u, v))), nxg.has_edge(u, v))
        assert simple_pair_bound(ctx, s, 1, 2).status == verdict.status


# --- two-color window -----------------------------------------------------------


def _check(b, c, r, h, adjacent):
    return two_color_check(
        PairContext(Fraction(r), h, adjacent),
        TwoColorParams(Fraction(b), Fraction(c), Fraction(r)),
    )


def test_two_color_square_grid():
    verdict = _check(4, 3, 4, 2, adjacent=False)
    assert verdict.infeasible
    assert (verdict.lhs, verdict.rhs) == (7, 6)


def test_two_color_triangular_window():
    rejected = {
        (b, c)
        for b in range(1, 7)
        for c in range(1, 7)
        if _check(b, c, 6, 2, adjacent=True).infeasible
    }
    assert rejected == {(1, 1), (1, 2), (2, 1), (5, 6), (6, 5), (6, 6)}


def test_two_color_circulant_distance_pair():
    # 6-regular circulant pair with h = 4: b+c = 3 < 4 is out
    assert _check(2, 1, 6, 4, adjacent=False).infeasible


def test_two_color_valency_mismatch():
    with pytest.raises(ValueError):
        two_color_check(
            PairContext(Fraction(4), 1, adjacent=False),
            TwoColorParams(Fraction(1), Fraction(1), Fraction(6)),
        )


bcr = st.fractions(min_value=Fraction(0), max_value=Fraction(8), max_denominator=2)


@given(bcr, bcr, bcr, st.integers(0, 8))
def test_two_color_agrees_with_simple_bound(b, c, r, h):
    if b > r or c > r or h > r:
        return
    params = TwoColorParams(b, c, r)
    ctx = PairContext(r, h, adjacent=False)
    assert two_color_check(ctx, params).status == simple_pair_bound(ctx, params.matrix(), 1, 2).status


# --- forced side sets -----------------------------------------------------------


def test_forced_sets_adjacent_lower_boundary():
    forced = two_color_forced_sets(
        PairContext(Fraction(6), 2, adjacent=True),
        TwoColorParams(Fraction(3), Fraction(1), Fraction(6)),
    )
    assert forced is not None
    assert forced.bound == "adjacent-lower"
    assert (forced.only_u_color, forced.only_v_color) == (1, 2)
    assert forced.excludes_endpoints


def test_forced_sets_upper_boundary():
    forced = two_color_forced_sets(
        PairContext(Fraction(6), 2, adjacent=True),
        TwoColorParams(Fraction(6), Fraction(4), Fraction(6)),
    )
    assert forced is not None
    assert forced.bound == "upper"
    assert (forced.only_u_color, forced.only_v_color) == (2, 1)
    assert not forced.excludes_endpoints


def test_forced_sets_absent_inside_window():
    forced = two_color_forced_sets(
        PairContext(Fraction(6), 2, adjacent=True),
        TwoColorParams(Fraction(3), Fraction(2), Fraction(6)),
    )
    assert forced is None


def test_forced_sets_nonadjacent_lower():
    forced = two_color_forced_sets(
        PairContext(Fraction(4), 2, adjacent=False),
        TwoColorParams(Fraction(1), Fraction(1), Fraction(4)),
    )
    assert forced is not None
    assert forced.bound == "lower"
    assert (forced.only_u_color, forced.only_v_color) == (1, 2)


# --- lifted checks ---------------------------------------------------------------


def test_power_one_matches_pair_check():
    m = cycle(6).adjacency
    s = RationalMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    pairs = [(u, v, 1, 2) for u in range(6) for v in range(6)]
    assert [distance_power_check(m, s, 1, *q) for q in pairs] == row_distance_scan([Side(m, s)], pairs)


def test_power_check_exact_sides_on_c6():
    s = RationalMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    triple = make_triple(cycle(6), Coloring((1, 2, 3, 1, 2, 3), 3), s)
    verdict = distance_power_check(triple.m, triple.s, 2, 0, 1, 1, 2)
    assert verdict.feasible
    # by hand: rows of M^2 are (2,0,1,0,1,0) and (0,2,0,1,0,1), distance 8;
    # rows of S^2 = J + I are (2,1,1) and (1,2,1), distance 2
    assert verdict.lhs == 8
    assert verdict.rhs == 2


def test_power_check_never_fires_on_verified_triples():
    f = Coloring((1, 2, 3, 1, 2, 3), 3)
    triple = make_triple(cycle(6), f, induced_parameters(cycle(6), f))
    for l in range(1, 5):
        for u in range(6):
            for v in range(6):
                verdict = distance_power_check(
                    triple.m, triple.s, l, u, v, f.colors[u], f.colors[v]
                )
                assert verdict.feasible


def test_power_check_rejects_bad_power():
    with pytest.raises(ValueError):
        distance_power_check(cycle(4).adjacency, RationalMatrix([[2]]), 0, 0, 1, 1, 1)


# --- distance-regular checks ------------------------------------------------------


def petersen_two_coloring():
    g = petersen()
    # color 1 = the four 2-subsets containing element 0 (an independent set)
    colors = tuple(1 if "0" in label else 2 for label in g.labels)
    return g, Coloring(colors, 2)


def test_petersen_independent_set_coloring():
    g, f = petersen_two_coloring()
    s = induced_parameters(g, f)
    assert s == RationalMatrix([[0, 3], [2, 1]])


def test_drg_check_feasible_on_petersen_coloring():
    g, f = petersen_two_coloring()
    s = induced_parameters(g, f)
    for radius in (1, 2):
        for u in range(g.n):
            for v in range(g.n):
                ball, sphere = drg_check(g, s, radius, u, v, f.colors[u], f.colors[v])
                assert ball.feasible and sphere.feasible


def test_drg_check_same_vertex_different_colors():
    g, f = petersen_two_coloring()
    s = induced_parameters(g, f)
    ball, sphere = drg_check(g, s, 1, 0, 0, 1, 2)
    assert ball.infeasible and sphere.infeasible


def test_drg_check_full_ball_case():
    g = cycle(6)
    s = RationalMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    # radius = diameter: every ball is the whole vertex set, so the left side
    # is 0 and feasibility forces the parameter-side rows to agree
    ball, sphere = drg_check(g, s, 3, 0, 1, 1, 2)
    assert ball.lhs == 0
    assert ball.feasible  # ball polynomial image has equal rows


def test_drg_check_c6_adjacent_pair():
    g = cycle(6)
    s = RationalMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    ball, sphere = drg_check(g, s, 2, 0, 1, 1, 2)
    assert ball.feasible and sphere.feasible
    # by hand: B_2(0) = {0,1,2,4,5} and B_2(1) = {0,1,2,3,5} differ in {3,4};
    # W_2(0) = {2,4} and W_2(1) = {3,5} are disjoint
    assert (ball.lhs, ball.rhs) == (2, 2)
    assert (sphere.lhs, sphere.rhs) == (4, 2)


def test_drg_check_requires_distance_regular():
    from perfcolor.graphs import from_edges

    chorded = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(ValueError):
        drg_check(chorded, RationalMatrix([[2]]), 1, 0, 1, 1, 1)


def test_drg_check_radius_range():
    g = cycle(6)
    with pytest.raises(ValueError):
        drg_check(g, RationalMatrix([[2]]), 4, 0, 1, 1, 1)


@pytest.mark.parametrize("g", [cycle(7), petersen()], ids=["C7", "petersen"])
def test_distance_regular_data_balls_and_images(g):
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adjacency[u, v] == 1]
    dist = dict(nx.all_pairs_shortest_path_length(nx.Graph(edges)))
    s = RationalMatrix([[0, 1, 1], [Fraction(1, 2), 1, Fraction(1, 2)], [2, 0, 0]])
    polys = distance_polynomials(intersection_array(g))
    diameter = max(max(row.values()) for row in dist.values())
    for radius in range(1, diameter + 1):
        ball, sphere = drg_sides(g, s, radius)
        assert ball.graph == RationalMatrix([[int(dist[u][v] <= radius) for v in range(g.n)] for u in range(g.n)])
        assert sphere.graph == RationalMatrix([[int(dist[u][v] == radius) for v in range(g.n)] for u in range(g.n)])
        assert (ball.params, sphere.params) == (polys.ball[radius](s), polys.sphere[radius](s))
        pairs = [(0, u, 1, 3) for u in range(g.n)]
        scanned = row_distance_scan((ball, sphere), pairs)
        assert scanned == [x for q in pairs for x in drg_check(g, s, radius, *q)]
    with pytest.raises(ValueError, match="radius"):
        drg_sides(g, s, diameter + 1)


def test_row_distance_scan_computes_each_distance_once(monkeypatch):
    # one parameter-side distance per (side, color pair), nothing kept from one scan to the next,
    # and one verdict object per side and feasible (lhs, rhs); graph-side distances are integer
    # sums that do not go through l1_row_distance
    g = petersen()
    s = RationalMatrix([[0, 3, 0], [1, 0, 2], [0, 1, 2]])
    sides = drg_sides(g, s, 2)
    pairs = [(u, v, i, j) for u, v in ((0, 1), (2, 9), (4, 4)) for i, j in ((1, 2), (2, 1), (3, 3), (1, 3))]
    expected = [x for q in pairs for x in drg_check(g, s, 2, *q)]
    calls = []
    real = l1_row_distance
    monkeypatch.setattr("perfcolor.filters.l1_row_distance", lambda a, x, y: calls.append(a) or real(a, x, y))
    for _ in range(2):
        scanned = row_distance_scan(sides, pairs)
        assert scanned == expected
    assert calls == [sides[0].params, sides[1].params] * 4 * 2  # per scan, both sides at each of 4 color pairs
    for side in (0, 1):
        shared = {}
        for verdict in scanned[side::2]:
            if verdict.feasible:
                assert shared.setdefault((verdict.lhs, verdict.rhs), verdict) is verdict
    feasible = [v for v in scanned if v.feasible]
    assert len({id(v) for v in feasible}) == 1 + 4 < len(feasible)  # ball (0, 0); sphere (0, 0), (6, 0), (6, 4), (6, 6)
    infeasible = [v for v in scanned if v.infeasible]
    assert len({id(v) for v in infeasible}) == len(infeasible) == 3  # each names its pair
    calls.clear()
    side = Side(g.adjacency, s)
    assert row_distance_scan([side], pairs) == [row_distance_scan([side], [q])[0] for q in pairs]
    assert len(calls) == 4 + len(pairs)  # the scan, then one color pair per single query


def test_bad_colors_raise_on_every_query(monkeypatch):
    # a parameter-side distance that raises is not kept: asking again computes it, and raises, again
    s = RationalMatrix([[0, 2], [1, 1]])
    sides = drg_sides(cycle(5), s, 1)
    calls = []
    real = l1_row_distance
    monkeypatch.setattr("perfcolor.filters.l1_row_distance", lambda a, x, y: calls.append(a) or real(a, x, y))
    for pairs in ([(0, 1, 1, 3)], [(0, 1, 0, 1)], [(0, 1, 1, 2), (0, 2, 3, 1)]):
        for _ in range(2):
            calls.clear()
            with pytest.raises(IndexError):
                row_distance_scan(sides, pairs)
            assert calls[-1] is sides[0].params
        with pytest.raises(IndexError):
            drg_check(cycle(5), s, 1, *pairs[-1])
    for _ in range(2):
        with pytest.raises(IndexError):
            row_distance_scan([Side(cycle(5).adjacency, s)], [(0, 1, 3, 1)])
    assert row_distance_scan(sides, [(0, 1, 1, 2)]) == list(drg_check(cycle(5), s, 1, 0, 1, 1, 2))
