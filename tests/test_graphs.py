from collections import Counter
from fractions import Fraction

import networkx as nx
import pytest

from perfcolor.graphs import (
    Graph,
    complete,
    cycle,
    distance_matrices,
    distance_polynomials,
    from_edges,
    intersection_array,
    IntersectionArray,
    petersen,
)
from perfcolor.ratmat import Polynomial, RationalMatrix, l1_row_distance


def to_networkx(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adjacency[u, v] == 1:
                nxg.add_edge(u, v)
    return nxg


def nx_distance_matrix(g: Graph, r: int) -> RationalMatrix:
    """Independent BFS oracle via networkx shortest path lengths."""
    lengths = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
    return RationalMatrix(
        [[1 if lengths[u].get(v, -1) == r else 0 for v in range(g.n)] for u in range(g.n)]
    )


SAMPLE_GRAPHS = [cycle(4), cycle(5), cycle(6), cycle(8), complete(4), petersen()]


def test_simple_flag_validation():
    with pytest.raises(ValueError):
        Graph(RationalMatrix([[1, 0], [0, 0]]), simple=True)  # diagonal
    with pytest.raises(ValueError):
        Graph(RationalMatrix([[0, 1], [0, 0]]), simple=True)  # asymmetric
    with pytest.raises(ValueError):
        Graph(RationalMatrix([[0, 2], [2, 0]]), simple=True)  # not 0/1
    Graph(RationalMatrix([[0, 2], [2, 0]]), simple=False)  # fine as a multigraph


def test_graph_json_both_forms():
    g = cycle(5)
    assert Graph.from_json(g.to_json()) == g
    from_edge_form = Graph.from_json(
        {"n": 5, "simple": True, "edges": [[i, (i + 1) % 5] for i in range(5)]}
    )
    assert from_edge_form.adjacency == g.adjacency


def test_weighted_edges_accumulate():
    g = Graph.from_json({"n": 2, "simple": False, "edges": [[0, 1, "1/2"], [0, 1]]})
    assert g.adjacency[0, 1] == Fraction(3, 2)


@pytest.mark.parametrize("g", SAMPLE_GRAPHS)
def test_common_neighbors_match_matrix_square(g):
    sq = g.adjacency**2
    nxg = to_networkx(g)
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                assert len(list(nx.common_neighbors(nxg, u, v))) == sq[u, v]


@pytest.mark.parametrize("g", SAMPLE_GRAPHS)
def test_distance_matrices_against_networkx(g):
    mats = distance_matrices(g)
    assert mats[0] == RationalMatrix.identity(g.n)
    assert mats[1] == g.adjacency
    for r, mat in enumerate(mats):
        assert mat == nx_distance_matrix(g, r)
    total = [[sum(mat[u, v] for mat in mats) for v in range(g.n)] for u in range(g.n)]
    assert total == [[1] * g.n for _ in range(g.n)]


def test_distance_matrices_require_connected():
    two_edges = from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        distance_matrices(two_edges)


def test_c6_antipodal_matching():
    a3 = distance_matrices(cycle(6))[3]
    expected = RationalMatrix(
        [[1 if abs(u - v) == 3 else 0 for v in range(6)] for u in range(6)]
    )
    assert a3 == expected


def brute_force_intersection_array(g: Graph):
    """Definition oracle: collect (closer, farther) counts per distance.

    None when they vary within a distance, and for a disconnected graph or a
    single vertex, which have no array.
    """
    nxg = to_networkx(g)
    if not nx.is_connected(nxg):
        return None
    lengths = dict(nx.all_pairs_shortest_path_length(nxg))
    d = max(max(row.values()) for row in lengths.values())
    if d == 0:
        return None
    b = {}
    c = {}
    for u in range(g.n):
        for v in range(g.n):
            r = lengths[u][v]
            closer = sum(1 for w in nxg[v] if lengths[u][w] == r - 1)
            farther = sum(1 for w in nxg[v] if lengths[u][w] == r + 1)
            if r >= 1 and c.setdefault(r, closer) != closer:
                return None
            if r < d and b.setdefault(r, farther) != farther:
                return None
            if r == d and farther:
                return None
    b[0] = nxg.degree(0)
    return (
        tuple(Fraction(b[i]) for i in range(d)),
        tuple(Fraction(c[i]) for i in range(1, d + 1)),
    )


@pytest.mark.parametrize(
    "g,expected_b,expected_c",
    [
        (cycle(6), (2, 1, 1), (1, 1, 2)),
        (petersen(), (3, 2), (1, 1)),
        (cycle(5), (2, 1), (1, 1)),
        (complete(4), (3,), (1,)),
    ],
)
def test_intersection_arrays(g, expected_b, expected_c):
    oracle = brute_force_intersection_array(g)
    assert oracle == (
        tuple(map(Fraction, expected_b)),
        tuple(map(Fraction, expected_c)),
    )
    ia = intersection_array(g)
    assert ia is not None
    assert (ia.b, ia.c) == oracle


def test_not_distance_regular():
    chorded = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert brute_force_intersection_array(chorded) is None
    assert intersection_array(chorded) is None
    path3 = from_edges(3, [(0, 1), (1, 2)])
    assert intersection_array(path3) is None  # irregular


def from_networkx(nxg: nx.Graph) -> Graph:
    nxg = nx.convert_node_labels_to_integers(nxg)
    return from_edges(nxg.number_of_nodes(), list(nxg.edges))


def assert_intersection_array_matches_the_oracle(g: Graph):
    oracle = brute_force_intersection_array(g)
    ia = intersection_array(g)
    assert (ia and (ia.b, ia.c)) == oracle
    return oracle


def test_intersection_array_matches_the_oracle_on_cycles_and_complete_graphs():
    for g in [*map(cycle, range(3, 41)), *map(complete, range(1, 9))]:
        assert assert_intersection_array_matches_the_oracle(g) is not None or g.n == 1


NAMED_NETWORKX_GRAPHS = [
    # distance-regular
    "octahedral_graph", "cubical_graph", "dodecahedral_graph", "icosahedral_graph", "heawood_graph",
    "desargues_graph", "pappus_graph",
    # not distance-regular: the first five are regular
    "moebius_kantor_graph", "truncated_tetrahedron_graph", "frucht_graph", "chvatal_graph", "tutte_graph",
    "krackhardt_kite_graph", "house_graph", "bull_graph",
]


@pytest.mark.parametrize("name", NAMED_NETWORKX_GRAPHS)
def test_intersection_array_matches_the_oracle_on_named_graphs(name):
    nxg = getattr(nx, name)()
    oracle = assert_intersection_array_matches_the_oracle(from_networkx(nxg))
    assert (oracle is not None) == nx.is_distance_regular(nxg)


def test_intersection_array_matches_the_oracle_on_random_graphs():
    # G(n, p) graphs, many of them disconnected or irregular, and random 3- and 4-regular graphs
    graphs = [nx.gnp_random_graph(2 + seed % 11, (1, 3, 5, 8, 9)[seed % 5] / 10, seed=seed) for seed in range(400)]
    graphs += [nx.random_regular_graph(3 + seed % 2, 6 + 2 * (seed % 5), seed=seed) for seed in range(100)]
    outcomes = Counter()
    for nxg in graphs:
        oracle = assert_intersection_array_matches_the_oracle(from_networkx(nxg))
        outcomes[nx.is_connected(nxg), nx.is_regular(nxg), oracle is not None] += 1
    # every kind of graph occurs: disconnected, irregular, regular but not distance-regular, distance-regular
    assert outcomes.keys() >= {
        (False, False, False), (False, True, False), (True, False, False), (True, True, False), (True, True, True)
    }


def test_intersection_array_validation():
    with pytest.raises(ValueError):
        IntersectionArray((Fraction(2),), (Fraction(1), Fraction(1)))  # lengths differ
    with pytest.raises(ValueError):
        IntersectionArray((Fraction(1), Fraction(2)), (Fraction(1), Fraction(1)))  # a_1 < 0


def test_distance_polynomial_base_cases():
    polys = distance_polynomials(intersection_array(cycle(6)))
    assert polys.sphere[0] == Polynomial([1])
    assert polys.sphere[1] == Polynomial.x()
    assert polys.sphere[2] == Polynomial([-2, 0, 1])  # x^2 - 2
    assert polys.ball[1] == Polynomial([1, 1])


@pytest.mark.parametrize("g", [cycle(5), cycle(6), cycle(8), complete(4), petersen()])
def test_sphere_polynomials_give_distance_matrices(g):
    ia = intersection_array(g)
    polys = distance_polynomials(ia)
    mats = distance_matrices(g)
    for r, mat in enumerate(mats):
        assert polys.sphere[r](g.adjacency) == mat
    ball = [list(mats[0].row(u)) for u in range(g.n)]
    for r in range(1, len(mats)):
        ball = [[x + y for x, y in zip(row, mats[r].row(u))] for u, row in enumerate(ball)]
        assert polys.ball[r](g.adjacency) == RationalMatrix(ball)


def cube() -> Graph:
    return from_edges(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])


def fraction_recurrence(ia: IntersectionArray) -> tuple[list[Polynomial], list[Polynomial]]:
    """Sphere and ball polynomials by the three-term recurrence in Fraction polynomial arithmetic."""
    sphere = [Polynomial([1]), Polynomial.x()][: ia.d + 1]
    for r in range(1, ia.d):
        term = (Polynomial.x() - Polynomial.constant(ia.a(r))) * sphere[r] - sphere[r - 1].scaled(ia.b_at(r - 1))
        sphere.append(term.scaled(Fraction(1) / ia.c_at(r + 1)))
    ball = [sphere[0]]
    for r in range(1, ia.d + 1):
        ball.append(ball[r - 1] + sphere[r])
    return sphere, ball


@pytest.mark.parametrize(
    "g",
    [*map(cycle, range(5, 13)), *map(complete, range(4, 7)), petersen(), cube()],
    ids=[*(f"C{n}" for n in range(5, 13)), *(f"K{n}" for n in range(4, 7)), "petersen", "cube"],
)
def test_distance_polynomials_match_the_fraction_recurrence(g):
    ia = intersection_array(g)
    polys = distance_polynomials(ia)
    sphere, ball = fraction_recurrence(ia)
    assert [p.coeffs for p in polys.sphere] == [p.coeffs for p in sphere]
    assert [p.coeffs for p in polys.ball] == [p.coeffs for p in ball]


def test_distance_polynomials_of_a_rational_array():
    # an array with non-integer entries runs over the same common denominator
    ia = IntersectionArray(
        (Fraction(5, 2), Fraction(3, 2), Fraction(1, 3)), (Fraction(1), Fraction(1, 2), Fraction(7, 3))
    )
    polys = distance_polynomials(ia)
    sphere, ball = fraction_recurrence(ia)
    assert [p.coeffs for p in polys.sphere] == [p.coeffs for p in sphere]
    assert [p.coeffs for p in polys.ball] == [p.coeffs for p in ball]


@pytest.mark.parametrize("g", SAMPLE_GRAPHS)
def test_row_distance_identity_on_regular_graphs(g):
    # d([M]^u, [M]^v) = 2(r - h) for simple r-regular graphs
    r = g.adjacency.row_sums()[0]
    nxg = to_networkx(g)
    for u in range(g.n):
        for v in range(g.n):
            if u == v:
                continue
            h = len(list(nx.common_neighbors(nxg, u, v)))
            assert l1_row_distance(g.adjacency, u, v) == 2 * (r - h)
