"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the test ids.  Everything is exact rational arithmetic, so
every comparison below is an equality or a strict inequality; there are no
tolerances anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest

from helpers import (
    circulant_params_by_segment_count,
    grid_params_by_patch_count,
    normalized_coloring,
    translates_onto,
)
from perfcolor.coloring import (
    Coloring,
    TwoColorParams,
    induced_parameters,
    make_triple,
    poly_lift,
    two_color_matrix,
    verify_perfect,
)
from perfcolor.filters import PairContext, drg_sides, row_distance_scan, two_color_check
from perfcolor.graphs import (
    Graph,
    complete,
    cycle,
    distance_matrices,
    distance_polynomials,
    intersection_array,
    petersen,
)
from perfcolor.periodic import (
    CirculantSpec,
    GridSpec,
    SearchStatus,
    circulant_enumerate,
    circulant_h,
    circulant_period_filter,
    circulant_quotient,
    patch_search,
    periodic_coloring_canonical,
    torus_quotient,
    torus_search,
)
from perfcolor.ratmat import Polynomial, RationalMatrix, l1_row_distance
from perfcolor import repro


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@dataclass(frozen=True)
class VerifiedTriple:
    family: str
    graph: Graph
    coloring: Coloring
    s: RationalMatrix


def _divisors(n: int) -> list[int]:
    return [p for p in range(1, n + 1) if n % p == 0]


def _cycle_triples() -> list[VerifiedTriple]:
    """Rotational (periodic) colorings of cycles C_n, n <= 12, up to 3 colors."""
    out = []
    for n in range(3, 13):
        g = cycle(n)
        seen = set()
        for p in _divisors(n):
            if p > 6:
                continue
            for pattern in product((1, 2, 3), repeat=p):
                f = normalized_coloring(pattern * (n // p))
                if f.colors in seen:
                    continue
                seen.add(f.colors)
                s = induced_parameters(g, f)
                if s is not None:
                    out.append(VerifiedTriple(f"cycle C{n}", g, f, s))
    return out


def _circulant_triples() -> list[VerifiedTriple]:
    """Census of quotient colorings for D within {1..4}, T <= 8, k <= 3."""
    out = []
    subsets = [
        tuple(sorted(ds))
        for size in (1, 2, 3, 4)
        for ds in product((1, 2, 3, 4), repeat=size)
        if len(set(ds)) == size and tuple(sorted(ds)) == ds
    ]
    for ds in subsets:
        spec = CirculantSpec(ds)
        for period in range(1, 9):
            g = circulant_quotient(spec, period)
            for entry in circulant_enumerate(spec, period, 3):
                out.append(
                    VerifiedTriple(f"circulant C{ds} T={period}", g, entry.coloring, entry.s)
                )
    return out


def _torus_triples() -> list[VerifiedTriple]:
    """Striped and checkered colorings of grid tori with periods up to 5."""
    out = []
    from math import gcd

    for spec_name, spec in (("square", GridSpec.square()), ("triangular", GridSpec.triangular())):
        for p in range(1, 6):
            for q in range(1, 6):
                g = torus_quotient(spec, (p, q))
                candidates = set()
                for pat in product((1, 2, 3), repeat=p):
                    candidates.add(tuple(pat[x] for x in range(p) for _ in range(q)))
                for pat in product((1, 2, 3), repeat=q):
                    candidates.add(tuple(pat[y] for _ in range(p) for y in range(q)))
                L = gcd(p, q)
                for pat in product((1, 2, 3), repeat=L):
                    candidates.add(
                        tuple(pat[(x + y) % L] for x in range(p) for y in range(q))
                    )
                for colors in sorted(candidates):
                    f = normalized_coloring(colors)
                    s = induced_parameters(g, f)
                    if s is not None:
                        out.append(VerifiedTriple(f"{spec_name} torus {p}x{q}", g, f, s))
    return out


def _spread(items: list, cap: int) -> list:
    if len(items) <= cap:
        return items
    step = len(items) / cap
    return [items[int(i * step)] for i in range(cap)]


@pytest.fixture(scope="session")
def triple_pool() -> list[VerifiedTriple]:
    cycles = _cycle_triples()
    circulants = _circulant_triples()
    tori = _torus_triples()
    assert cycles and circulants and tori
    pool = _spread(cycles, 90) + _spread(circulants, 110) + _spread(tori, 60)
    assert len(pool) >= 200
    return pool


def test_criterion_01_row_distance_soundness(triple_pool):
    """Verified colorings never violate the row-distance bound, at any power <= 4."""
    checked_pairs = 0
    for item in triple_pool:
        triple = make_triple(item.graph, item.coloring, item.s)
        assert verify_perfect(triple).ok
        lifted = {1: triple}
        for power in (2, 3, 4):
            lifted[power] = poly_lift(triple, Polynomial([0] * power + [1]))
        f = item.coloring
        for power, t in lifted.items():
            for u in range(f.n):
                for v in range(u + 1, f.n):
                    lhs = l1_row_distance(t.m, u, v)
                    rhs = l1_row_distance(t.s, f.colors[u] - 1, f.colors[v] - 1)
                    assert lhs >= rhs, (
                        f"violation in {item.family} at pair ({u},{v}), power {power}"
                    )
                    checked_pairs += 1
    report(
        "criterion 1 (row-distance soundness)",
        len(triple_pool) >= 200 and checked_pairs > 0,
        f"{len(triple_pool)} verified colorings, {checked_pairs} pair checks, 0 violations",
    )


def test_criterion_02_two_color_row_distance_identity():
    checked = 0
    for r in range(0, 9):
        for b in range(0, r + 1):
            for c in range(0, r + 1):
                s = two_color_matrix(b, c, r)
                assert l1_row_distance(s, 0, 1) == 2 * abs(r - (b + c))
                checked += 1
    report(
        "criterion 2 (2-color row distance = 2|r-(b+c)|)",
        checked == sum((r + 1) ** 2 for r in range(9)),
        f"{checked} (b,c,r) combinations, all exact",
    )


def test_criterion_03_square_grid_43_rejection():
    item_delta = repro.square_grid_diagonal_rejection()
    patch = repro.minimal_rejecting_patch(GridSpec.square(), 4, 3, 8)
    ok = item_delta.passed and patch is not None
    report(
        "criterion 3 (square grid (4,3) rejected)",
        ok,
        f"{item_delta.detail}; minimal rejecting patch {patch[0]}x{patch[1]}",
    )


def test_criterion_04_triangular_window():
    ctx = PairContext(Fraction(6), 2, adjacent=True)
    rejected = set()
    for b in range(1, 7):
        for c in range(1, 7):
            params = TwoColorParams(Fraction(b), Fraction(c), Fraction(6))
            if two_color_check(ctx, params).infeasible:
                rejected.add((b, c))
    expected = {(b, c) for b in range(1, 7) for c in range(1, 7) if b + c < 4 or b + c > 10}
    ok = rejected == expected and {(1, 1), (2, 1), (6, 5), (6, 6)} <= rejected
    report(
        "criterion 4 (triangular window 4 <= b+c <= 10)",
        ok,
        f"rejected exactly {sorted(rejected)}",
    )


def test_criterion_05_triangular_boundary_patches():
    spec = GridSpec.triangular()
    minimal = {}
    for b, c in ((3, 1), (5, 5), (6, 4)):
        minimal[(b, c)] = repro.minimal_rejecting_patch(spec, b, c, 8)
    ok = all(p is not None for p in minimal.values())
    report(
        "criterion 5 (triangular (3,1),(5,5),(6,4) rejected)",
        ok,
        "; ".join(f"({b},{c}) at {p[0]}x{p[1]}" for (b, c), p in minimal.items()),
    )


def test_criterion_06_triangular_22_witness_and_uniqueness():
    spec = GridSpec.triangular()
    target = two_color_matrix(2, 2, 6)
    at41 = torus_search(spec, (4, 1), (2, 2), find_all=True)
    witness_ok = at41.status is SearchStatus.WITNESS and all(
        induced_parameters(torus_quotient(spec, (4, 1)), w) == target
        for w in at41.witnesses
    )

    sym_classes = set()
    translation_classes = []  # one coloring of each class under translations and renamings
    count = 0
    for p in range(1, 5):
        for q in range(1, 5):
            outcome = torus_search(spec, (p, q), (2, 2), find_all=True)
            for w in outcome.witnesses:
                count += 1
                sym_classes.add(
                    periodic_coloring_canonical(spec, (p, q), w, modulus=12)
                )
                if not any(translates_onto(seen, ((p, q), w.colors)) for seen in translation_classes):
                    translation_classes.append(((p, q), w.colors))
    # One pattern up to translations, color swaps, and the lattice's point
    # symmetries.  The point symmetries are load-bearing: the same stripe
    # pattern appears rotated (along x at (4,1), along y at (1,4), along the
    # x+y diagonal at (4,4)), and those rotations are not translations of one
    # another, so translation/color-swap equivalence alone yields 3 classes.
    ok = witness_ok and count > 0 and len(sym_classes) == 1 and len(translation_classes) == 3
    report(
        "criterion 6 (triangular (2,2) witness + bounded-period uniqueness)",
        ok,
        f"{len(at41.witnesses)} witnesses at (4,1); {count} witnesses for p,q <= 4 "
        f"forming {len(sym_classes)} class up to lattice motions "
        f"({len(translation_classes)} under translations/color-swaps alone)",
    )


def test_criterion_07_circulant_124():
    spec = CirculantSpec((1, 2, 4))
    h_ok = circulant_h(spec, 3) == 4

    filter_ok = True
    for b in range(1, 7):
        for c in range(1, 7):
            if not (b + c < 4 or b + c > 8):
                continue
            params = TwoColorParams(Fraction(b), Fraction(c), Fraction(6))
            constraint = circulant_period_filter(spec, params, t_max=3)
            if 3 not in constraint.fired:
                filter_ok = False

    found = circulant_enumerate(spec, 3, 2)
    census_ok = (
        len(found) == 2
        and found[0].coloring == Coloring((1, 1, 1), 1)
        and found[0].s == RationalMatrix([[6]])
        and found[1].coloring.k == 2
        and {found[1].s[0, 1], found[1].s[1, 0]} == {Fraction(6), Fraction(3)}
    )

    census_pairs = {
        tuple(sorted((e.s[0, 1], e.s[1, 0]), reverse=True)) for e in found if e.coloring.k == 2
    }
    absent_ok = all(
        tuple(sorted((Fraction(b), Fraction(c)), reverse=True)) not in census_pairs
        for b, c in repro.SEVEN_ABSENT_PAIRS
    )

    ok = h_ok and filter_ok and census_ok and absent_ok
    report(
        "criterion 7 (C(1,2,4): h, period filter, census, seven exclusions)",
        ok,
        f"h(3)=4: {h_ok}; T|3 outside [4,8]: {filter_ok}; census = "
        f"{{monochromatic, (6,3)}}: {census_ok}; seven pairs absent: {absent_ok}",
    )


def test_criterion_08_polynomial_closure(triple_pool):
    rng = random.Random(20260810)
    small = [t for t in triple_pool if t.graph.n <= 10]
    trials = 0
    while trials < 500:
        item = rng.choice(small)
        coeffs = [rng.randint(-2, 2) for _ in range(rng.randint(1, 4))]
        triple = make_triple(item.graph, item.coloring, item.s)
        lifted = poly_lift(triple, Polynomial(coeffs))  # re-verifies internally
        assert verify_perfect(lifted).ok
        trials += 1
    report(
        "criterion 8 (polynomial closure)",
        trials >= 500,
        f"{trials} random (coloring, polynomial) lifts, all re-verified",
    )


def test_criterion_09_distance_regular_oracle():
    graphs = {
        "C5": cycle(5),
        "C6": cycle(6),
        "C8": cycle(8),
        "K4": complete(4),
        "Petersen": petersen(),
    }
    poly_ok = True
    for g in graphs.values():
        ia = intersection_array(g)
        polys = distance_polynomials(ia)
        mats = distance_matrices(g)
        for r, mat in enumerate(mats):
            if polys.sphere[r](g.adjacency) != mat:
                poly_ok = False

    def perfect_colorings(g: Graph) -> list[Coloring]:
        found = [Coloring((1,) * g.n, 1)]
        if g.n == 10:  # Petersen: classes split by membership of one element
            f = Coloring(tuple(1 if "0" in label else 2 for label in g.labels), 2)
            if induced_parameters(g, f) is not None:
                found.append(f)
        else:
            for p in _divisors(g.n):
                if p > 4:
                    continue
                for pattern in product((1, 2), repeat=p):
                    f = normalized_coloring(pattern * (g.n // p))
                    if induced_parameters(g, f) is not None:
                        found.append(f)
        return found

    drg_ok = True
    colorings_checked = 0
    for name, g in graphs.items():
        for f in perfect_colorings(g):
            s = induced_parameters(g, f)
            colorings_checked += 1
            pairs = [(u, v, f.colors[u], f.colors[v]) for u in range(g.n) for v in range(g.n)]
            for radius in range(1, len(distance_matrices(g))):
                verdicts = row_distance_scan(drg_sides(g, s, radius), pairs)
                if not all(verdict.feasible for verdict in verdicts):
                    drg_ok = False
    ok = poly_ok and drg_ok
    report(
        "criterion 9 (distance-regular polynomials + ball/sphere checks)",
        ok,
        f"sphere polynomials match BFS matrices on all 5 graphs; "
        f"{colorings_checked} perfect colorings never rejected",
    )


def test_criterion_10_quotient_equals_direct_counting():
    rng = random.Random(1234)
    grids_checked = 0
    perfect_seen = 0
    for spec in (GridSpec.square(), GridSpec.triangular()):
        for _ in range(50):
            p, q = rng.randint(1, 4), rng.randint(1, 4)
            if rng.random() < 0.3:  # seed some perfect stripes among the noise
                width = rng.choice([w for w in (1, 2, 4) if w <= p])
                colors = tuple(
                    1 + (x // width) % 2 for x in range(p) for _ in range(q)
                )
            else:
                colors = tuple(rng.randint(1, 2) for _ in range(p * q))
            f = normalized_coloring(colors)
            via_quotient = induced_parameters(torus_quotient(spec, (p, q)), f)
            via_patch = grid_params_by_patch_count(spec, (p, q), f, patch=20)
            assert via_quotient == via_patch
            grids_checked += 1
            perfect_seen += via_quotient is not None

    circulants_checked = 0
    for _ in range(100):
        ds = tuple(sorted(rng.sample(range(1, 5), rng.randint(1, 3))))
        spec = CirculantSpec(ds)
        period = rng.randint(1, 6)
        colors = tuple(rng.randint(1, 2) for _ in range(period))
        f = normalized_coloring(colors)
        via_quotient = induced_parameters(circulant_quotient(spec, period), f)
        via_segment = circulant_params_by_segment_count(spec, period, f, segment=100)
        assert via_quotient == via_segment
        circulants_checked += 1
        perfect_seen += via_quotient is not None

    ok = grids_checked == 100 and circulants_checked == 100 and perfect_seen > 0
    report(
        "criterion 10 (quotient parameters = direct counting)",
        ok,
        f"{grids_checked} grid + {circulants_checked} circulant colorings agree "
        f"on both routes ({perfect_seen} of them perfect)",
    )
