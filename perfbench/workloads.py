"""The four benchmark workloads, built as fixed job lists from a seed.

A job is one closed-loop request: a call into perfcolor made only after the
previous one returned, plus a check of its output that never calls the
function under test.  The seed picks only verdict-preserving variants, so
the expected verdicts hold for every seed.  NOTES.md says why each workload
exists and which layer it loads.

perfcolor is imported inside the builders, so that ``oracle.py`` can read the
workload tables below without it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

import oracle

WORKLOADS = ("grid-refute", "grid-witness", "circulant-census", "filter-scan")

# grid-refute: (lattice, (b, c), smallest side whose square patch is REJECTED)
REFUTE_PATCHES = (
    ("square", (4, 3), 6),
    ("triangular", (3, 1), 5),
    ("triangular", (5, 5), 4),
    ("triangular", (6, 4), 5),
)
MAX_PATCH_SIDE = 8
REFUTE_TORUS_PERIODS = ((4, 4), (4, 5))

# grid-witness
# (the 11x10 and 11x11 windows cost the same and hold the p90 rank; see NOTES.md)
WITNESS_PATCHES = ((10, 10), (11, 10), (11, 11), (12, 12))
WITNESS_TORI = tuple(
    ("triangular", (2, 2), (p, q)) for p in range(1, 5) for q in range(1, 5)
) + (("triangular", (3, 3), (4, 5)),)
MONO_WINDOWS = (((24, 24), "square"), ((27, 27), "triangular"), ((30, 30), "square"), ((32, 32), "triangular"))

# circulant-census: (period, colours, connection set); the connection sets are
# subsets of {1..5}.  The seed presents each set in a form with the same
# quotient (d may become T - d or T + d), so each slot's work is fixed.  Slots
# are laid out so that the p50 and p90 jobs fall inside groups of
# equal-cost slots (see NOTES.md); the sweeps draw their sets from the family.
CENSUS_SLOTS = (
    (6, 3, (1, 2, 4)), (6, 3, (1, 3, 5)),
    (10, 2, (1, 2)), (10, 2, (2, 5)),
    (12, 2, (1, 2, 4)), (12, 2, (1, 3, 5)), (12, 2, (2, 3, 4)),
    (8, 3, (1, 4)), (8, 3, (1, 2, 3, 4, 5)),
    (13, 2, (1, 3)),
    (14, 2, (1, 2, 4)), (14, 2, (1, 2)), (14, 2, (2, 5)),
)
CENSUS_FAMILY = tuple(sorted({ds for _, _, ds in CENSUS_SLOTS}))
SWEEP_SLOTS = 2
SWEEP_T_MAX = 16

# filter-scan: all-pairs CLI scans per graph, as (filter, radius or power); every
# graph also gets poly_lift at each of LIFT_POWERS
FILTER_JOBS = {
    "C5": [("drg", 1), ("drg", 2), ("power", 2), ("power", 3)],
    "C6": [("drg", 1), ("drg", 2), ("drg", 3), ("power", 2), ("power", 3)],
    "C7": [("drg", 1), ("drg", 2), ("drg", 3), ("power", 2), ("power", 3)],
    "C8": [("drg", 1), ("drg", 2), ("power", 2)],
    "C9": [("drg", 1), ("drg", 2), ("power", 2)],
    "C10": [],
    "C11": [],
    "C12": [("drg", 1)],
    "K4": [("drg", 1), ("power", 2), ("power", 3)],
    "K5": [("drg", 1), ("power", 2), ("power", 3)],
    "K6": [("drg", 1), ("power", 2), ("power", 3)],
    "petersen": [("drg", 1), ("drg", 2)],
    "cube": [("drg", 1), ("drg", 2), ("power", 2), ("power", 3)],
}
LIFT_POWERS = (2, 3, 4)

# ROADMAP baseline instances whose node counts the traced run reports
BASELINES = {
    ("patch", "square", (4, 3), (8, 8)): "patch.square_4_3_8x8",
    ("patch", "triangular", (3, 1), (8, 8)): "patch.triangular_3_1_8x8",
    ("patch", "square", (2, 2), (12, 12)): "patch.square_2_2_12x12",
    ("torus", "triangular", (3, 3), (4, 5)): "torus.triangular_3_3_4x5",
}

ORACLE_SPEC = {
    "torus_counts": WITNESS_TORI,
    "census": sorted({(ds, t, k) for t, k, ds in CENSUS_SLOTS}),
    "sweeps": CENSUS_FAMILY,
    "t_max": SWEEP_T_MAX,
    "filters": FILTER_JOBS,
}


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right
    baseline: str | None = None


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The job list of one workload; the same seed gives the same jobs."""
    expected = json.loads(oracle.EXPECTED_PATH.read_text())
    rng = random.Random(f"{workload}/{seed}")
    builder = {
        "grid-refute": _grid_refute,
        "grid-witness": _grid_witness,
        "circulant-census": _circulant_census,
        "filter-scan": _filter_scan,
    }[workload]
    jobs = builder(rng, expected, workdir)
    rng.shuffle(jobs)
    return jobs


# --- grids -------------------------------------------------------------------


def _grid(lattice: str):
    from perfcolor import periodic

    return periodic.GridSpec(frozenset(oracle.LATTICES[lattice]))


def _orient(rng: random.Random, bc: tuple[int, int]) -> tuple[int, int]:
    """Either orientation of (b, c): swapping the colour names keeps every verdict."""
    return bc if rng.random() < 0.5 else bc[::-1]


def _status(out, want: str) -> str | None:
    return None if out.status.value == want else f"expected {want}, got {out.status.value}"


def _witnesses_recount(out, recount) -> str | None:
    colorings = [w.colors for w in out.witnesses]
    if len(set(colorings)) != len(colorings):
        return "duplicate witnesses"
    for colors in colorings:
        if not recount(colors):
            return f"witness {colors} fails direct neighbour counting"
    return None


def _patch_job(lattice, target, size, want, baseline=None) -> Job:
    from perfcolor import periodic

    spec = _grid(lattice)
    rows = oracle.two_color_rows(*target, spec.valency) if isinstance(target, tuple) else [[spec.valency]]

    def check(out):
        return _status(out, want) or _witnesses_recount(
            out, lambda colors: oracle.window_recount(oracle.LATTICES[lattice], size, colors, rows)
        )

    label = f"{target[0]},{target[1]}" if isinstance(target, tuple) else "1-colour"
    return Job(
        f"patch {lattice} {label} {size[0]}x{size[1]}",
        lambda: periodic.patch_search(spec, target, size),
        check,
        baseline,
    )


def _torus_job(lattice, bc, periods, find_all, witnesses, baseline=None) -> Job:
    """Torus search whose witness count must equal ``witnesses``."""
    from perfcolor import periodic

    spec = _grid(lattice)
    rows = oracle.two_color_rows(*bc, spec.valency)

    def check(out):
        if len(out.witnesses) != witnesses:
            return f"expected {witnesses} witnesses, got {len(out.witnesses)}"
        return _status(out, "witness" if witnesses else "inconclusive") or _witnesses_recount(
            out, lambda colors: oracle.torus_recount(oracle.LATTICES[lattice], periods, colors, rows)
        )

    return Job(
        f"torus {lattice} {bc[0]},{bc[1]} {periods[0]}x{periods[1]}",
        lambda: periodic.torus_search(spec, periods, bc, find_all=find_all),
        check,
        baseline,
    )


def _reject_job(lattice, b, c, allowed) -> Job:
    from perfcolor import periodic
    from perfcolor.coloring import TwoColorParams

    spec = _grid(lattice)
    params = TwoColorParams(Fraction(b), Fraction(c), Fraction(spec.valency))

    def check(report):
        status = report.verdict.status.value
        if allowed == "infeasible" and status != "infeasible":
            return f"the paper rejects ({b},{c}) by the window scan, got {status}"
        if allowed == "not-infeasible" and status == "infeasible":
            return f"({b},{c}) has a periodic witness but was declared infeasible"
        return None

    return Job(f"reject {lattice} {b},{c}", lambda: periodic.grid_reject_2color(spec, params), check)


def _grid_refute(rng, expected, workdir) -> list[Job]:
    jobs = []
    for lattice, bc, first_side in REFUTE_PATCHES:
        for side in range(first_side, MAX_PATCH_SIDE + 1):
            baseline = BASELINES.get(("patch", lattice, bc, (side, side)))
            jobs.append(_patch_job(lattice, _orient(rng, bc), (side, side), "rejected", baseline))
        for periods in REFUTE_TORUS_PERIODS:
            jobs.append(_torus_job(lattice, _orient(rng, bc), periods, False, 0))
    for lattice, offsets in oracle.LATTICES.items():
        r = len(offsets)
        for b, c in product(range(1, r + 1), repeat=2):
            jobs.append(_reject_job(lattice, b, c, expected["reject"][f"{lattice} {b},{c}"]))
    return jobs


def _grid_witness(rng, expected, workdir) -> list[Job]:
    from perfcolor.ratmat import RationalMatrix

    jobs = [
        _patch_job("square", (2, 2), size, "inconclusive", BASELINES.get(("patch", "square", (2, 2), size)))
        for size in WITNESS_PATCHES
    ]
    for lattice, bc, periods in WITNESS_TORI:
        count = expected["torus_witnesses"][f"{lattice} {bc[0]},{bc[1]} {periods[0]}x{periods[1]}"]
        baseline = BASELINES.get(("torus", lattice, bc, periods))
        jobs.append(_torus_job(lattice, _orient(rng, bc), periods, True, count, baseline))
    for size, lattice in MONO_WINDOWS:
        target = RationalMatrix([[len(oracle.LATTICES[lattice])]])
        jobs.append(_patch_job(lattice, target, size, "inconclusive"))
    return jobs


# --- circulants --------------------------------------------------------------


def _census_job(ds, shown, period, k, count) -> Job:
    """Census of connection set ``ds`` at ``period``, given to perfcolor as ``shown``."""
    from perfcolor import periodic

    spec = periodic.CirculantSpec(shown)
    nbrs = oracle.circulant_neighbours(ds, period)

    def check(found):
        if len(found) != count:
            return f"expected {count} colourings, got {len(found)}"
        if len({e.coloring.colors for e in found}) != count:
            return "duplicate census entries"
        for entry in found:
            colors = entry.coloring.colors
            if entry.coloring.k > k or oracle.cyclic_canonical(colors) != colors:
                return f"{colors} is not a canonical colouring with at most {k} colours"
            rows = oracle.class_rows(nbrs, colors)
            if rows is None or [list(entry.s.row(i)) for i in range(entry.s.rows)] != rows:
                return f"{colors} is not perfect with the reported matrix"
        return None

    name = f"census {','.join(map(str, shown))} T{period} k{k}"
    return Job(name, lambda: periodic.circulant_enumerate(spec, period, k), check)


def _sweep_job(ds, digest) -> Job:
    from perfcolor import periodic
    from perfcolor.coloring import TwoColorParams

    spec = periodic.CirculantSpec(ds)
    r = 2 * len(ds)
    params = [TwoColorParams(Fraction(b), Fraction(c), Fraction(r)) for b, c in product(range(1, r + 1), repeat=2)]

    def call():
        return [periodic.circulant_period_filter(spec, p, SWEEP_T_MAX) for p in params]

    def check(out):
        rows = [[int(p.b), int(p.c), list(pc.fired), pc.divides] for p, pc in zip(params, out)]
        return None if oracle.rows_digest(rows) == digest else "period-filter rows differ from the stored digest"

    return Job(f"period sweep {','.join(map(str, ds))}", call, check)


def _circulant_census(rng, expected, workdir) -> list[Job]:
    jobs = []
    for period, k, ds in CENSUS_SLOTS:
        shown = tuple(rng.choice((d, period - d, period + d)) for d in ds)
        count = expected["census"][f"{','.join(map(str, ds))} T{period} k{k}"]
        jobs.append(_census_job(ds, shown, period, k, count))
    for ds in rng.sample(CENSUS_FAMILY, SWEEP_SLOTS):
        jobs.append(_sweep_job(ds, expected["period_sweep"][",".join(map(str, ds))]))
    return jobs


# --- filter scans ------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """perfcolor.cli.main in this process, with its stdout captured."""
    from perfcolor import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _matrix_json(rows) -> dict:
    return {"rows": len(rows), "cols": len(rows[0]), "data": rows}


def _scan_job(name, kind, arg, files, base_label, digest) -> Job:
    if kind == "drg":
        argv = ["filter", "drg", "--graph", files["graph"], "--s", files["s"], "--radius", str(arg)]
    else:
        argv = ["filter", "power", "--m", files["m"], "--s", files["s"], "--l", str(arg)]
    argv += ["--coloring", files["coloring"], "--format", "json"]

    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code} for a perfect colouring"
        rows = []
        for row in json.loads(text):
            u, v, i, j = base_label[row["u"]], base_label[row["v"]], row["i"], row["j"]
            if u > v:
                u, v, i, j = v, u, j, i
            tag = row["kind"] if kind == "drg" else f"l={row['l']}"
            rows.append((u, v, i, j, tag, row["status"], row["lhs"], row["rhs"]))
        return None if oracle.rows_digest(rows) == digest else "filter rows differ from the stored digest"

    return Job(f"filter {kind} {name} {arg}", lambda: run_cli(argv), check)


def _lift_job(name, adj, colors, coeffs) -> Job:
    from perfcolor import coloring
    from perfcolor.ratmat import Polynomial, RationalMatrix

    k = max(colors)
    p = RationalMatrix([[int(c == j) for j in range(1, k + 1)] for c in colors])
    triple = coloring.PerfectColoringTriple(RationalMatrix(adj), p, RationalMatrix(oracle.quotient_rows(adj, colors)))
    poly = Polynomial(coeffs)

    def check(lifted):
        pm = oracle.poly_of(adj, coeffs)
        ps = oracle.quotient_rows(pm, colors)
        same = lambda mat, rows: [list(mat.row(i)) for i in range(mat.rows)] == rows  # noqa: E731
        if lifted.p != p or not same(lifted.m, pm) or not same(lifted.s, ps):
            return "lifted triple differs from (p(M), P, p(S)) counted directly"
        return None

    return Job(f"lift {name} deg {len(coeffs) - 1}", lambda: coloring.poly_lift(triple, poly), check)


def _filter_scan(rng, expected, workdir) -> list[Job]:
    jobs = []
    for name, base_adj in oracle.named_graphs().items():
        n = len(base_adj)
        label = list(range(n))
        rng.shuffle(label)  # vertex u is renamed label[u]
        base_label = [0] * n
        for u, new in enumerate(label):
            base_label[new] = u
        adj = [[base_adj[base_label[x]][base_label[y]] for y in range(n)] for x in range(n)]
        base_colors = oracle.distance_coloring(base_adj)
        colors = tuple(base_colors[base_label[x]] for x in range(n))
        files = {
            "graph": {"adjacency": _matrix_json(adj), "simple": True},
            "m": _matrix_json(adj),
            "s": _matrix_json(oracle.quotient_rows(adj, colors)),
            "coloring": {"k": max(colors), "colors": list(colors)},
        }
        for key, obj in list(files.items()):
            path = workdir / f"{name}.{key}.json"
            path.write_text(json.dumps(obj))
            files[key] = str(path)
        for kind, arg in FILTER_JOBS[name]:
            digest = expected["filter_rows"][f"{name} {kind}{arg}"]
            jobs.append(_scan_job(name, kind, arg, files, base_label, digest))
        for power in LIFT_POWERS:
            coeffs = [rng.randint(-2, 2) for _ in range(power)] + [1]
            jobs.append(_lift_job(name, adj, colors, coeffs))
    return jobs
