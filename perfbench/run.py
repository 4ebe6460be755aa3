#!/usr/bin/env python3
"""Run one workload of the perfcolor benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
The workload's fixed job list is run as a closed loop (one client, one
thread, the next job sent when the previous one returns) in passes until
``--seconds`` would be exceeded.  Every job's output is checked after it
returns, outside the timed region.

A shared machine's speed can drift by tens of percent over seconds when other
tenants share its cores, so every end-to-end time is reported at a fixed reference
speed: a small reference kernel that does not touch perfcolor runs before
and after each job (and each set-up), and the job's time is scaled by
REF_KERNEL_S over the kernel's measured time.  Raw times are printed on a
separate line.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics, including ``trace_overhead``.  Spans of the last traced
pass are written to ``.perfbench/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
REF_KERNEL_S = 0.0025  # the reference kernel's time at reference speed (about that on a 2.1 GHz Xeon)
clock = time.perf_counter

_REF_MATRIX = [[Fraction(x, 1 + (i + j) % 3) for j, x in enumerate(row)]
               for i, row in enumerate(oracle.named_graphs()["C6"])]
_REF_TORUS = oracle.torus_neighbours(oracle.TRIANGULAR, 2, 4)


def reference_time() -> float:
    """Seconds taken by a fixed kernel of exact rational products and a small colouring search."""
    start = clock()
    m = _REF_MATRIX
    for _ in range(2):
        m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*_REF_MATRIX)] for row in m]
    oracle.count_colorings(_REF_TORUS, oracle.two_color_rows(2, 2, 6))
    return clock() - start


def at_reference_speed(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * 2 * REF_KERNEL_S / (kernel_before + kernel_after)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help="set up the workload and exit (times setup_s)")
    return parser.parse_args(argv)


def measure_setup(args) -> float:
    """Median time from starting a fresh process until it has imported and built the job list.

    The child prints the wall-clock time at which it became ready; taking
    that instead of waiting for its exit keeps interpreter teardown out.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_time()
        start = time.time()
        ready = subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.PIPE, text=True).stdout
        times.append(at_reference_speed(float(ready) - start, before, reference_time()))
    return median(times)


def run_pass(jobs, tracer=None):
    """Send every job once, each after the previous returned.

    Returns each job's raw time, its time at reference speed, and its
    (result, name of the exception raised) outcome.
    """
    raw, scaled, outcomes = [], [], []
    before = reference_time()
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = idx
        start = clock()
        try:
            result, error = job.call(), None
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            result, error = None, type(exc).__name__  # dropping the traceback frees its frames now
        elapsed = clock() - start
        after = reference_time()
        raw.append(elapsed)
        scaled.append(at_reference_speed(elapsed, before, after))
        outcomes.append((result, error))
        before = after
    return raw, scaled, outcomes


class Tally:
    """Failed jobs (raised, incomplete or wrong) and wrong outputs, by job name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: dict[str, str] = {}
        self.failed_count = 0
        self.wrong: dict[str, str] = {}

    def add(self, jobs, outcomes) -> None:
        for job, (result, error) in zip(jobs, outcomes):
            self.attempted += 1
            reason = None
            if error is not None:
                reason = f"raised {error}"
            elif not getattr(getattr(result, "stats", None), "complete", True):
                reason = "search incomplete"
            else:
                try:
                    wrong = job.check(result)
                except Exception as exc:  # malformed output
                    wrong = f"output could not be checked: {exc!r}"
                if wrong:
                    self.wrong[job.name] = wrong
                    reason = "wrong: " + wrong
            if reason:
                self.failed_count += 1
                self.failed[job.name] = reason


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(args, jobs, tally, begin) -> dict:
    raw_walls, walls, latencies = [], [], []
    while True:
        start = clock()
        raw, lat, outcomes = run_pass(jobs)
        tally.add(jobs, outcomes)
        raw_walls.append(sum(raw))
        walls.append(sum(lat))
        latencies += lat
        if clock() - begin + (clock() - start) > args.seconds:
            break
    n = len(latencies)
    q90 = min(0.9, 1 - 10 / n)  # the highest percentile with at least ten jobs beyond it
    print(f"{args.workload}: {len(walls)} passes of {len(jobs)} jobs, {n} job samples; "
          f"job_p90_ms is the p{100 * q90:.1f} percentile; raw wall_s {median(raw_walls):.4f}")
    return {
        "wall_s": (median(walls), "s"),
        "job_p50_ms": (1000 * percentile(latencies, 0.5), "ms"),
        "job_p90_ms": (1000 * percentile(latencies, q90), "ms"),
        "ok_ratio": ((tally.attempted - tally.failed_count) / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def unit_of(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("ratio", "overhead", "per_graph")):
        return "ratio"
    return "count"


def per_layer(args, jobs, tally, begin) -> dict:
    import spans
    import workloads

    untraced, traced, layers = [], [], []
    while True:
        start = clock()
        _, lat, outcomes = run_pass(jobs)
        tally.add(jobs, outcomes)
        untraced.append(sum(lat))
        tracer = spans.Tracer()
        tracer.install()
        try:
            _, lat, outcomes = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        tally.add(jobs, outcomes)
        traced.append(sum(lat))
        metrics = tracer.layer_metrics()
        for tag in workloads.BASELINES.values():
            metrics[f"baseline.{tag}.nodes"] = 0
        for job, (result, error) in zip(jobs, outcomes):
            if job.baseline and error is None:
                metrics[f"baseline.{job.baseline}.nodes"] = result.stats.nodes
        layers.append(metrics)
        if clock() - begin + (clock() - start) > args.seconds:
            break
    tracer.write(WORK / f"trace-{args.workload}.jsonl")
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced passes of {len(jobs)} jobs")
    out = {name: (value, unit_of(name)) for name, value in spans.median_metrics(layers).items()}
    out["trace_overhead"] = (median(traced) / median(untraced) - 1, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "perfcolor" / "__init__.py").is_file():
        print(f"error: perfcolor sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import perfcolor.cli  # noqa: F401  (the whole package: part of set-up)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not Path(perfcolor.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: perfcolor was imported from {perfcolor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        if args.setup_only:
            print(time.time())
            return 0
        setup_s = None if args.trace else measure_setup(args)
        tally = Tally()
        begin = clock()
        if args.trace:
            metrics = per_layer(args, jobs, tally, begin)
        else:
            metrics = end_to_end(args, jobs, tally, begin)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, reason in sorted(tally.failed.items()):
        print(f"failed: {name}: {reason}")
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed_count,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
