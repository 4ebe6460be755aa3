"""Spans around the calls into each perfcolor layer, for the traced run.

While a traced pass runs, the public functions of each module, and the
RationalMatrix and Polynomial operators, are replaced at their module and
class attributes by wrappers that record a span: name, job id, parent span,
start and end.  Every module that imported a function by name gets the
wrapper too, so calls between layers are seen.  The originals are put back
after the pass.  Spans stay in memory; a span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from statistics import median_low


def _search_counts(prefix):
    def observe(tracer, result, args):
        tracer.counts[prefix + ".nodes"] += result.stats.nodes
        tracer.counts[prefix + ".witnesses"] += len(result.witnesses)
        tracer.counts["periodic.search.incomplete"] += not result.stats.complete

    return observe


def _count(key, value):
    def observe(tracer, result, args):
        tracer.counts[key] += value(result)

    return observe


def _verdict_counts(tracer, result, args):
    verdicts = result if isinstance(result, tuple) else (result,)
    tracer.counts["filters.verdicts"] += len(verdicts)
    tracer.counts["filters.infeasible"] += sum(v.infeasible for v in verdicts)


def _graph_prep(tracer, result, args):
    tracer.counts["graphs.prep_calls"] += 1
    tracer.graphs.add((tracer.job, id(args[0])))


def _mul_counts(tracer, result, args):
    a, b = args
    if hasattr(b, "cols"):
        tracer.counts["ratmat.mul.entry_mults"] += a.rows * a.cols * b.cols


# (span name, attribute path under perfcolor, observer of the result)
TARGETS = (
    ("periodic.patch_search", "periodic.patch_search", _search_counts("periodic.patch_search")),
    ("periodic.torus_search", "periodic.torus_search", _search_counts("periodic.torus_search")),
    ("periodic.grid_reject_2color", "periodic.grid_reject_2color", None),
    ("periodic.torus_quotient", "periodic.torus_quotient", None),
    ("periodic.circulant_enumerate", "periodic.circulant_enumerate", _count("periodic.circulant_enumerate.found", len)),
    ("periodic.circulant_quotient", "periodic.circulant_quotient", None),
    ("coloring.induced_parameters", "coloring.induced_parameters",
     _count("coloring.induced_parameters.hits", lambda s: s is not None)),
    ("coloring.verify_perfect", "coloring.verify_perfect", None),
    ("coloring.poly_lift", "coloring.poly_lift", None),
    ("graphs.intersection_array", "graphs.intersection_array", _graph_prep),
    ("graphs.distance_matrices", "graphs.distance_matrices", _graph_prep),
    ("graphs.distance_polynomials", "graphs.distance_polynomials", None),
    ("ratmat.mul", "ratmat.RationalMatrix.__mul__", _mul_counts),
    ("ratmat.pow", "ratmat.RationalMatrix.__pow__", None),
    ("ratmat.eval_poly", "ratmat.Polynomial.__call__", None),
    ("ratmat.l1_row_distance", "ratmat.l1_row_distance", None),
    ("filters.drg_check", "filters.drg_check", _verdict_counts),
    ("filters.distance_power_check", "filters.distance_power_check", _verdict_counts),
    ("cli.main", "cli.main", None),
)


class Tracer:
    """Records spans for one traced pass; ``job`` is set by the caller per job."""

    def __init__(self) -> None:
        self.spans: list = []  # span id -> (name, job, parent id, start, end)
        self.counts: dict[str, int] = defaultdict(int)
        self.graphs: set = set()  # (job, graph) pairs that reached graph-level preparation
        self.job: int | None = None
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, tracer.job, parent, start, end)
            if observe is not None:
                observe(tracer, result, args)
            return result

        return span

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "perfcolor" or key.startswith("perfcolor.")]
        for name, path, observe in TARGETS:
            module, *owners, attr = path.split(".")
            owner = importlib.import_module("perfcolor." + module)
            for cls in owners:
                owner = getattr(owner, cls)
            if owners:  # an operator: patch the class, which every caller goes through
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, observe))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded so far."""
        child = [0.0] * len(self.spans)
        for name, job, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        candidates = 0
        for sid, (name, job, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[sid]
            total_s[name] += end - start
            if name == "coloring.induced_parameters" and parent >= 0 and self.spans[parent][0] == "periodic.circulant_enumerate":
                candidates += 1
        out: dict[str, float] = {}
        for name, _, _ in TARGETS:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        c = self.counts
        for search in ("periodic.patch_search", "periodic.torus_search"):
            out[search + ".nodes"] = c[search + ".nodes"]
            out[search + ".nodes_per_s"] = _ratio(c[search + ".nodes"], total_s[search])
        out["periodic.torus_search.witnesses"] = c["periodic.torus_search.witnesses"]
        out["periodic.search.incomplete"] = c["periodic.search.incomplete"]
        out["periodic.circulant_enumerate.candidates"] = candidates
        out["periodic.circulant_enumerate.found"] = c["periodic.circulant_enumerate.found"]
        out["periodic.circulant_enumerate.yield_ratio"] = _ratio(c["periodic.circulant_enumerate.found"], candidates)
        out["coloring.induced_parameters.hit_ratio"] = _ratio(
            c["coloring.induced_parameters.hits"], calls["coloring.induced_parameters"]
        )
        out["graphs.prep_per_graph"] = _ratio(c["graphs.prep_calls"], len(self.graphs))
        out["ratmat.mul.entry_mults"] = c["ratmat.mul.entry_mults"]
        out["filters.infeasible_ratio"] = _ratio(c["filters.infeasible"], c["filters.verdicts"])
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, job, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "job": job, "parent": parent, "start": start, "end": end}) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over passes, taken as a sample so that counts stay whole."""
    return {key: median_low(p[key] for p in passes) for key in passes[0]}
