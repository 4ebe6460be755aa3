"""Command-line entry point.

Exit codes: 0 verified / feasible / witness found; 1 infeasible / rejected;
2 inconclusive; 64 usage error; 65 malformed input; 66 budget exceeded: a
census that needs more nodes than --node-budget, or a torus or circulant
quotient too large for it, refused before it is built, or out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from . import repro
from .coloring import (
    Coloring,
    TwoColorParams,
    imperfection_witness,
    induced_parameters,
    make_triple,
    verify_perfect,
)
from .filters import (
    PairContext,
    Side,
    VerdictStatus,
    drg_sides,
    row_distance_scan,
    simple_pair_bound,
    two_color_check,
    two_color_forced_sets,
)
from .graphs import Graph, complete, cycle, petersen
from .periodic import (
    BudgetExceededError,
    CirculantSpec,
    DEFAULT_NODE_BUDGET,
    GridSpec,
    SearchStatus,
    _check_two_color_target,
    circulant_enumerate,
    circulant_h,
    circulant_period_filter,
    circulant_quotient,
    grid_h,
    grid_reject_2color,
    patch_search,
    torus_search,
)
from .ratmat import RationalMatrix, rat

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_BUDGET = 66

_STATUS_EXITS = {
    VerdictStatus.FEASIBLE: EXIT_OK,
    VerdictStatus.INFEASIBLE: EXIT_REJECTED,
    VerdictStatus.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    SearchStatus.WITNESS: EXIT_OK,
    SearchStatus.REJECTED: EXIT_REJECTED,
    SearchStatus.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class CliDataError(Exception):
    """Bad or unreadable input file / inline value."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# While ``main`` runs: the interpreter's cap on int <-> decimal str digits that it found; input
# files are read under it, and the rest of the command runs without it.
_input_digits: int | None = None


@contextmanager
def _int_digits(limit: int | None):
    """Run the block with the cap on int <-> decimal str digits at ``limit`` (0: no cap, None: as
    it is), and yield the cap it replaced.  The cap exists from Python 3.11, and 3.10.7."""
    if limit is None or not hasattr(sys, "set_int_max_str_digits"):
        yield None
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield old
    finally:
        sys.set_int_max_str_digits(old)


def _load(path: str, what: str, cls):
    """``cls.from_json`` of the JSON in ``path``; ``what`` names the kind in errors."""
    try:
        with open(path) as fh, _int_digits(_input_digits):
            return cls.from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise CliDataError(f"cannot read JSON from {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise CliDataError(f"bad {what} in {path}: {exc}") from exc


def _grid_spec(args) -> GridSpec:
    if args.offsets:
        try:
            return GridSpec.parse(args.offsets)
        except ValueError as exc:
            raise CliDataError(f"bad offsets: {exc}") from exc
    if args.grid == "square":
        return GridSpec.square()
    if args.grid == "triangular":
        return GridSpec.triangular()
    raise CliDataError("specify --grid square|triangular or --offsets")


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        x, y = (int(p) for p in text.split(","))
        return (x, y)
    except ValueError as exc:
        raise CliDataError(f"expected 'x,y', got {text!r}") from exc


def _write(out: str) -> None:
    """Print ``out``; a closed stdout just ends the output."""
    try:
        print(out, flush=True)
    except BrokenPipeError:  # fd 1 to the null device, so the exit flush stays quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(obj, args, text: str | None = None) -> None:
    """Print ``obj`` as ``json.dumps(obj, indent=2)``, or ``text`` in text format."""
    _write(text if args.format == "text" and text is not None else json.dumps(obj, indent=2))


def _text_row(row: dict) -> str:
    """The text form of a verdict row: its k=v fields, leaving out None values."""
    return " ".join(f"{k}={v}" for k, v in row.items() if v is not None)


def _finish_row(row: dict, args) -> int:
    """Print a one-row result; exit with the code of its status."""
    _emit([row], args, _text_row(row))
    return _STATUS_EXITS[VerdictStatus(row["status"])]


# ---------------------------------------------------------------------------
# subcommand handlers, one per leaf of the parser


def _show_graph(g: Graph, args) -> int:
    _emit(g.to_json(), args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load(args.graph, "graph", Graph)
    f = _load(args.coloring, "coloring", Coloring)
    if args.s:  # each vertex against the row of S for its color
        s = _load(args.s, "matrix", RationalMatrix)
        witness = verify_perfect(make_triple(g, f, s)).witness
        sums = "row"
    else:  # each vertex against the lowest vertex of its color
        s = induced_parameters(g, f)
        witness = None if s is not None else imperfection_witness(g, f)
        sums = "class"
    perfect = witness is None
    obj = {
        "perfect": perfect,
        "witness": None if perfect else list(witness),
        "s": None if s is None else s.to_json(),
    }
    text = "perfect" if perfect else f"not perfect: {sums} sums differ at vertex {witness[0]}, color {witness[1]}"
    _emit(obj, args, text)
    return EXIT_OK if perfect else EXIT_REJECTED


def _requested_pairs(args, n: int, k: int) -> list[tuple[int, int, int, int]]:
    """(u, v, i, j) for every vertex pair u < v of --coloring, or the one pair given by flags.

    n is the number of vertices and k the number of rows of S; every color must lie in 1..k.
    """
    if args.coloring:
        f = _load(args.coloring, "coloring", Coloring)
        if f.n != n:
            raise CliDataError(f"coloring has {f.n} entries but the graph has {n} vertices")
        if f.k > k:  # a coloring uses every color in 1..f.k
            raise CliDataError(f"coloring uses color {f.k}, outside 1..{k} for S with {k} rows")
        return [(u, v, f.colors[u], f.colors[v]) for u in range(n) for v in range(u + 1, n)]
    if None in (args.u, args.v, args.i, args.j):
        raise CliDataError("give --u --v --i --j, or --coloring for a full scan")
    for flag, color in (("--i", args.i), ("--j", args.j)):
        if not 1 <= color <= k:
            raise CliDataError(f"{flag} {color}: color outside 1..{k} for S with {k} rows")
    return [(args.u, args.v, args.i, args.j)]


def _pair_scan(args) -> int:
    """Row-distance bound for each requested pair: M against S for `filter pair`, M^l against
    S^l for `power`, and the ball and sphere sides of a distance-regular graph for `drg`.

    The sides are prepared once, before the scan; each row names its pair and its side's keys.
    """
    if args.which == "drg":
        g = _load(args.graph, "graph", Graph)
        s = _load(args.s, "matrix", RationalMatrix)
        pairs = _requested_pairs(args, g.n, s.rows)
        sides = drg_sides(g, s, args.radius)
        keys = [dict(radius=args.radius, kind=kind) for kind in ("ball", "sphere")]
    else:
        m = _load(args.m, "matrix", RationalMatrix)
        s = _load(args.s, "matrix", RationalMatrix)
        pairs = _requested_pairs(args, m.rows, s.rows)
        if args.which == "power":
            sides, keys = [Side(m**args.l, s**args.l)], [dict(l=args.l)]
        else:
            sides, keys = [Side(m, s)], [{}]
    verdicts = row_distance_scan(sides, pairs)
    _write(_scan_rows(pairs, verdicts, keys, args.format == "json"))
    return EXIT_REJECTED if any(verdict.infeasible for verdict in verdicts) else EXIT_OK


def _json_scalar(x: str | int | None) -> str:
    """``json.dumps(x)`` for a str, an int or None."""
    return "null" if x is None else encode_basestring_ascii(x) if type(x) is str else str(x)


def _json_fields(row: dict) -> str:
    """The lines of a row's fields inside ``json.dumps(rows, indent=2)``, for str, int and None values."""
    return ",\n".join(f"    {encode_basestring_ascii(k)}: {_json_scalar(x)}" for k, x in row.items())


def _scan_rows(pairs, verdicts, keys, as_json: bool) -> str:
    """Scan rows {u, v, i, j, **keys[side], **verdict.to_json()}, pair-major and side-minor, as
    ``json.dumps(rows, indent=2)`` or as ``_text_row`` lines.

    A verdict's fields after j, its tail, are encoded once per side and verdict object, so most
    rows cost only their u, v, i and j.
    """
    if as_json:
        row = '  {{\n    "u": {},\n    "v": {},\n    "i": {},\n    "j": {},\n{}\n  }}'.format
        encode = _json_fields
    else:
        row, encode = "u={} v={} i={} j={} {}".format, _text_row
    tails = [{} for _ in keys]
    rows = []
    verdicts = iter(verdicts)
    for u, v, i, j in pairs:
        for key, tail_of in zip(keys, tails):
            verdict = next(verdicts)
            tail = tail_of.get(id(verdict))
            if tail is None:
                tail = tail_of[id(verdict)] = encode({**key, **verdict.to_json()})
            rows.append(row(u, v, i, j, tail))
    if not as_json:
        return "\n".join(rows)
    return "[\n" + ",\n".join(rows) + "\n]" if rows else "[]"


def _cmd_filter_simple(args) -> int:
    s = _load(args.s, "matrix", RationalMatrix)
    ctx = PairContext(rat(args.r), args.h, args.adjacent)
    verdict = simple_pair_bound(ctx, s, args.i, args.j)
    return _finish_row({"i": args.i, "j": args.j, "h": args.h, **verdict.to_json()}, args)


def _cmd_filter_two_color(args) -> int:
    params = TwoColorParams(rat(args.b), rat(args.c), rat(args.r))
    _check_two_color_target(params, params.r)  # b, c in 0..r, as grid reject and the searches ask
    ctx = PairContext(params.r, args.h, args.adjacent)
    verdict = two_color_check(ctx, params)
    forced = two_color_forced_sets(ctx, params)
    row = {"b": str(params.b), "c": str(params.c), "h": args.h, "adjacent": args.adjacent, **verdict.to_json()}
    if forced:
        row["forced"] = asdict(forced)
    return _finish_row(row, args)


def _cmd_circulant_h(args) -> int:
    spec = CirculantSpec.parse(args.d)
    h = circulant_h(spec, args.t)
    _emit({"h": h, "t": args.t, "d": list(spec.ds)}, args, f"h = {h}")
    return EXIT_OK


def _cmd_circulant_period_filter(args) -> int:
    spec = CirculantSpec.parse(args.d)
    params = TwoColorParams(rat(args.b), rat(args.c), Fraction(spec.valency))
    constraint = circulant_period_filter(spec, params, args.t_max)
    obj = {"fired": list(constraint.fired), "period_divides": constraint.divides}
    text = (
        f"period divides {constraint.divides} (fired at t = {list(constraint.fired)})"
        if constraint.divides
        else "no period constraint in range"
    )
    _emit(obj, args, text)
    return EXIT_OK


def _cmd_circulant_quotient(args) -> int:
    spec = CirculantSpec.parse(args.d)
    if args.T**2 > args.node_budget:
        raise BudgetExceededError(
            f"{args.T}^2 quotient entries exceed the node budget of {args.node_budget}"
        )
    _emit(circulant_quotient(spec, args.T).to_json(), args)
    return EXIT_OK


def _cmd_circulant_enumerate(args) -> int:
    spec = CirculantSpec.parse(args.d)
    found = circulant_enumerate(spec, args.T, args.k, node_budget=args.node_budget)
    obj = []
    for entry in found:
        item = {"coloring": entry.coloring.to_json(), "s": entry.s.to_json()}
        if entry.coloring.k == 2:
            item["b"] = str(entry.s[0, 1])
            item["c"] = str(entry.s[1, 0])
        obj.append(item)
    text = "\n".join(
        f"colors {list(e.coloring.colors)}  S rows {[list(map(str, e.s.row(i))) for i in range(e.s.rows)]}"
        for e in found
    )
    _emit(obj, args, text or "none")
    return EXIT_OK


def _cmd_grid_h(args) -> int:
    spec = _grid_spec(args)
    delta = _parse_pair(args.delta)
    h, adjacent = grid_h(spec, delta)
    _emit(
        {"delta": list(delta), "h": h, "adjacent": adjacent},
        args,
        f"delta {delta}: h = {h}, adjacent = {adjacent}",
    )
    return EXIT_OK


def _cmd_grid_reject(args) -> int:
    spec = _grid_spec(args)
    params = TwoColorParams(rat(args.b), rat(args.c), Fraction(spec.valency))
    report = grid_reject_2color(spec, params, window=args.window, node_budget=args.node_budget)
    obj = {
        "status": report.verdict.status.value,
        "violated": report.verdict.violated,
        "note": report.note,
        "monochromatic": [list(d) for d in report.monochromatic],
        "deltas": [
            dict(delta=list(d.delta), h=d.h, adjacent=d.adjacent, **d.verdict.to_json())
            for d in report.per_delta
        ],
    }
    lines = [f"overall: {report.verdict.status.value}"]
    if report.verdict.violated:
        lines.append(report.verdict.violated)
    if report.note:
        lines.append(report.note)
    for d in report.per_delta:
        if d.verdict.infeasible:
            lines.append(
                f"delta {d.delta}: INFEASIBLE ({d.verdict.violated}); pairs forced monochromatic"
            )
    _emit(obj, args, "\n".join(lines))
    return _STATUS_EXITS[report.verdict.status]


def _cmd_torus_search(args) -> int:
    spec = _grid_spec(args)
    outcome = torus_search(
        spec, (args.p, args.q), _target_from_args(args),
        node_budget=args.node_budget, find_all=args.all,
    )
    return _finish_search(outcome, args)


def _cmd_patch_search(args) -> int:
    spec = _grid_spec(args)
    outcome = patch_search(
        spec, _target_from_args(args), (args.width, args.height), node_budget=args.node_budget
    )
    return _finish_search(outcome, args)


def _target_from_args(args):
    """The --s matrix, or (b, c), which the searches turn into a matrix themselves."""
    if args.s:
        return _load(args.s, "matrix", RationalMatrix)
    if args.b is None or args.c is None:
        raise CliDataError("give --b and --c, or --s with a parameter matrix")
    return (rat(args.b), rat(args.c))


def _finish_search(outcome, args) -> int:
    lines = [f"{outcome.status.value}: {outcome.stats.detail}"]
    for w in outcome.witnesses:
        lines.append(f"witness colors {list(w.colors)}")
    lines.append(f"nodes expanded: {outcome.stats.nodes}")
    _emit(outcome.to_json(), args, "\n".join(lines))
    return _STATUS_EXITS[outcome.status]


def _cmd_repro(args) -> int:
    items = repro.run_suite(max_patch_side=args.patch_max)
    width = max(len(i.name) for i in items)
    lines = [f"[{'PASS' if i.passed else 'FAIL'}] {i.name.ljust(width)}  {i.detail}" for i in items]
    lines.append(f"{sum(i.passed for i in items)}/{len(items)} checks passed")
    _emit([{"name": i.name, "passed": i.passed, "detail": i.detail} for i in items], args, "\n".join(lines))
    return EXIT_OK if all(i.passed for i in items) else EXIT_REJECTED


# ---------------------------------------------------------------------------
# parser wiring


def _int_at_least(text: str, least: int, bound: str) -> int:
    """An int option value of at least ``least``, else a usage error saying it must be ``bound``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be {bound}, not {value}")
    return value


def _node_budget(text: str) -> int:
    return _int_at_least(text, 0, "non-negative")


def _positive(text: str) -> int:
    return _int_at_least(text, 1, "at least 1")


def _add_common(sub: argparse.ArgumentParser, run, node_budget: bool = False) -> None:
    """Close a leaf's declaration: its --format, its --node-budget if it searches, and its handler."""
    sub.add_argument("--format", choices=("json", "text"), default="text")
    if node_budget:
        sub.add_argument(
            "--node-budget",
            type=_node_budget,
            default=DEFAULT_NODE_BUDGET,
            help="node cap: one per color tried at a cell or census position and per rotation a "
            "census compares at a position. A longer census period, a torus or grid reject "
            "quotient with more vertices, or a circulant quotient of over N entries is refused",
        )
    sub.set_defaults(run=run)


def build_parser() -> _Parser:
    parser = _Parser(prog="perfcolor", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    p_graph = top.add_parser("graph", help="emit a named graph as JSON")
    graph_sub = p_graph.add_subparsers(dest="which", required=True)
    for name, build in (("cycle", cycle), ("complete", complete)):
        sp = graph_sub.add_parser(name)
        sp.add_argument("--n", type=int, required=True)
        _add_common(sp, lambda args, build=build: _show_graph(build(args.n), args))
    _add_common(graph_sub.add_parser("petersen"), lambda args: _show_graph(petersen(), args))

    p_verify = top.add_parser("verify", help="check that a coloring is perfect")
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--coloring", required=True)
    p_verify.add_argument("--s", help="parameter matrix; induced from the coloring if omitted")
    _add_common(p_verify, _cmd_verify)

    p_filter = top.add_parser("filter", help="run a rejection filter")
    filter_sub = p_filter.add_subparsers(dest="which", required=True)

    def add_pairs(sp, coloring_help=None):
        for flag in ("--u", "--v", "--i", "--j"):
            sp.add_argument(flag, type=int)
        sp.add_argument("--coloring", help=coloring_help)

    fp = filter_sub.add_parser("pair", help="row-distance bound d(M_u,M_v) >= d(S_i,S_j)")
    fp.add_argument("--m", required=True)
    fp.add_argument("--s", required=True)
    add_pairs(fp, "scan all vertex pairs of this coloring")
    _add_common(fp, _pair_scan)

    fs = filter_sub.add_parser("simple", help="simple-graph bound d(S_i,S_j) <= 2(r-h)")
    fs.add_argument("--s", required=True)
    fs.add_argument("--r", required=True)
    fs.add_argument("--h", type=int, required=True)
    fs.add_argument("--adjacent", action="store_true")
    fs.add_argument("--i", type=int, required=True)
    fs.add_argument("--j", type=int, required=True)
    _add_common(fs, _cmd_filter_simple)

    ft = filter_sub.add_parser("two-color", help="window h <= b+c <= 2r-h (h+2 if adjacent)")
    ft.add_argument("--r", required=True)
    ft.add_argument("--h", type=int, required=True)
    ft.add_argument("--adjacent", action="store_true")
    ft.add_argument("--b", required=True)
    ft.add_argument("--c", required=True)
    _add_common(ft, _cmd_filter_two_color)

    fw = filter_sub.add_parser("power", help="row-distance bound on M^l against S^l")
    fw.add_argument("--m", required=True)
    fw.add_argument("--s", required=True)
    fw.add_argument("--l", type=_positive, required=True)
    add_pairs(fw)
    _add_common(fw, _pair_scan)

    fd = filter_sub.add_parser("drg", help="ball/sphere bounds in a distance-regular graph")
    fd.add_argument("--graph", required=True)
    fd.add_argument("--s", required=True)
    fd.add_argument("--radius", type=_positive, required=True)
    add_pairs(fd)
    _add_common(fd, _pair_scan)

    p_circ = top.add_parser("circulant", help="circulant graph tools")
    circ_sub = p_circ.add_subparsers(dest="which", required=True)
    ch = circ_sub.add_parser("h", help="common neighbors of x and x+t")
    ch.add_argument("--d", required=True, help="connection multiset, e.g. 1,2,4")
    ch.add_argument("--t", type=_positive, required=True)
    _add_common(ch, _cmd_circulant_h)
    cp = circ_sub.add_parser("period-filter", help="period divisibility constraints")
    cp.add_argument("--d", required=True)
    cp.add_argument("--b", required=True)
    cp.add_argument("--c", required=True)
    cp.add_argument("--t-max", type=_positive, required=True)
    _add_common(cp, _cmd_circulant_period_filter)
    cq = circ_sub.add_parser("quotient", help="quotient multigraph on Z_T")
    cq.add_argument("--d", required=True)
    cq.add_argument("--T", type=_positive, required=True)
    _add_common(cq, _cmd_circulant_quotient, node_budget=True)
    ce = circ_sub.add_parser("enumerate", help="all perfect colorings of period T")
    ce.add_argument("--d", required=True)
    ce.add_argument("--T", type=_positive, required=True)
    ce.add_argument("--k", type=_positive, required=True)
    _add_common(ce, _cmd_circulant_enumerate, node_budget=True)

    p_grid = top.add_parser("grid", help="plane grid tools")
    grid_sub = p_grid.add_subparsers(dest="which", required=True)

    def add_grid_spec(sp):
        sp.add_argument("--grid", choices=("square", "triangular"))
        sp.add_argument("--offsets", help='explicit offsets, e.g. "1,0;0,1;1,-1"')

    gh = grid_sub.add_parser("h", help="common neighbors of x and x+delta")
    add_grid_spec(gh)
    gh.add_argument("--delta", required=True, help="difference, e.g. 1,1")
    _add_common(gh, _cmd_grid_h)
    gr = grid_sub.add_parser("reject", help="two-color window scan over differences")
    add_grid_spec(gr)
    gr.add_argument("--b", required=True)
    gr.add_argument("--c", required=True)
    gr.add_argument("--window", type=_positive)
    _add_common(gr, _cmd_grid_reject, node_budget=True)
    gt = grid_sub.add_parser("torus-search", help="witness search at fixed periods")
    add_grid_spec(gt)
    gt.add_argument("--p", type=_positive, required=True)
    gt.add_argument("--q", type=_positive, required=True)
    gt.add_argument("--b")
    gt.add_argument("--c")
    gt.add_argument("--s", help="explicit parameter matrix JSON")
    gt.add_argument("--all", action="store_true", help="collect every witness")
    _add_common(gt, _cmd_torus_search, node_budget=True)
    gp = grid_sub.add_parser("patch-search", help="exhaustive window nonexistence search")
    add_grid_spec(gp)
    gp.add_argument("--b")
    gp.add_argument("--c")
    gp.add_argument("--s")
    gp.add_argument("--width", type=_positive, required=True)
    gp.add_argument("--height", type=_positive, required=True)
    _add_common(gp, _cmd_patch_search, node_budget=True)

    p_repro = top.add_parser("repro", help="re-derive the bundled grid and circulant results")
    p_repro.add_argument("suite", nargs="?", default="paper", choices=("paper",))
    p_repro.add_argument("--patch-max", type=_positive, default=8)
    _add_common(p_repro, _cmd_repro)

    return parser


@cache
def _parser() -> _Parser:
    """The one parser of this process, built on the first ``main`` call.

    Parsing reads the parser and never changes it, so every call can share it.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    Results are exact, so they may have more digits than the interpreter's
    cap on int <-> decimal str conversions: the command runs without the
    cap, which is put back while input files are read and when ``main``
    returns.
    """
    global _input_digits
    args = _parser().parse_args(argv)
    with _int_digits(0) as _input_digits:
        try:
            return args.run(args)
        except CliDataError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except BudgetExceededError as exc:
            print(f"budget exceeded: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        except MemoryError:
            # print would allocate, raise MemoryError again and exit 1, the code of a rejection
            os.write(2, b"out of memory: an allocation failed\n")
            return EXIT_BUDGET
        except (ValueError, IndexError, KeyError) as exc:
            print(f"invalid input: {exc}", file=sys.stderr)
            return EXIT_DATA
        finally:
            _input_digits = None


if __name__ == "__main__":
    sys.exit(main())
