"""Benchmark of the imw command line.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 40 --trace 0

One process, one client, no threads, closed loop: the next op starts when
the previous one returns. An op is one CLI command run in-process through
``imw.cli.cli_main`` with its standard output and error captured, so the
measured output never mixes with this script's own printing. Every op's
output is checked (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (see ``tracer.py``) plus ``trace.overhead_ratio``. Both print a summary,
write ``perfbench/out/<workload>-seed<seed>-trace<t>.json`` with every
metric, its sample count, the commit, the Python version and ``nproc``, and
end with one JSON line holding the metrics that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import workloads
from tracer import Tracer

SETUP_REPEATS = 3  # a fixed count, so that peak memory does not vary with it
P90_MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile


@dataclass
class Pass:
    traced: bool
    wall: float
    op_times: list
    layers: dict | None


def set_up(workload: str, seed: int):
    """Import imw afresh and build the inputs, several times; the last one is used."""
    times = []
    for _ in range(SETUP_REPEATS):
        workloads.purge_modules()
        start = time.perf_counter()
        cli = workloads.import_cli()
        ops = workloads.WORKLOADS[workload](seed)
        times.append(time.perf_counter() - start)
    return cli, ops, times


def run_op(cli, op):
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.cli_main(list(op.argv))
        except Exception:
            rc, crash = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue(), crash


def measure(cli, ops, seconds: float, tracer: Tracer | None):
    """Whole passes until the next one would overrun ``seconds``.

    With a tracer, passes alternate untraced and traced and at least one of
    each runs. Outputs are checked after each pass, outside its timing, and
    every pass must print exactly what the first one printed.
    """
    passes: list[Pass] = []
    failures: list[dict] = []
    first_out: dict[int, str] = {}
    attempted = 0
    longest = 0.0
    start = time.perf_counter()
    while len(passes) < (2 if tracer else 1) or \
            time.perf_counter() - start + longest <= seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        results = []
        gc.collect()
        if traced:
            tracer.install()
        try:
            pass_start = time.perf_counter()
            for op in ops:
                if traced:
                    tracer.begin_op()
                results.append(run_op(cli, op))
            wall = time.perf_counter() - pass_start
        finally:
            if traced:
                tracer.uninstall()
        attempted += len(ops)
        for i, (op, (_, rc, out, err, crash)) in enumerate(zip(ops, results)):
            problem = crash or op.check(rc, out, err)
            if problem is None and first_out.setdefault(i, out) != out:
                problem = "output differs from the first pass"
            if problem is not None:
                failures.append({"pass": len(passes), "traced": traced, "op": op.name,
                                 "exit": rc, "problem": problem})
        passes.append(Pass(traced, wall, [r[0] for r in results],
                           tracer.end_pass() if traced else None))
        longest = max(longest, wall)
    return passes, failures, attempted


def end_to_end(passes: list[Pass], setup_times: list[float]) -> dict:
    """The median op is taken in each pass, then over passes: with two ops of
    very different cost per pass (``enumerate``), the median of all ops would
    rest on the slowest fast op and the fastest slow one."""
    walls = [p.wall for p in passes]
    op_times = [t for p in passes for t in p.op_times]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes"),
        "op_p50_s": (statistics.median(statistics.median(p.op_times) for p in passes), "s",
                     f"median over {len(passes)} passes of the median of "
                     f"{len(passes[0].op_times)} ops"),
        "peak_rss_mb": (rss_kb / 1024, "MB", "whole process"),
    }
    if len(op_times) >= P90_MIN_OPS:
        out["op_p90_s"] = (statistics.quantiles(op_times, n=10)[-1], "s",
                           f"{len(op_times)} ops")
    return out


def per_layer(passes: list[Pass]) -> tuple[dict, list[str]]:
    """Self times are medians over traced passes; every count and ratio must
    repeat exactly from pass to pass."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    out, problems = {}, []
    for key in traced[0].layers:
        values = [p.layers[key] for p in traced]
        if key.endswith(".self_s"):
            out[key] = (statistics.median(values), "s", f"median of {len(values)} traced passes")
            continue
        if any(v != values[0] for v in values):
            problems.append(f"{key} differs between traced passes: {values}")
        unit = "ratio" if key.endswith("_ratio") or key.endswith(".per_monoid") else "count"
        out[key] = (values[0], unit, "per pass")
    overhead = statistics.median(p.wall for p in traced) / \
        statistics.median(p.wall for p in plain) - 1
    out["trace.overhead_ratio"] = (overhead, "ratio",
                                   f"{len(traced)} traced / {len(plain)} untraced passes")
    return out, problems


def git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(workloads.ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the imw command line")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        contract = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        cli, ops, setup_times = set_up(args.workload, args.seed)
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    passes, failures, attempted = measure(cli, ops, args.seconds, tracer)
    if tracer:
        metrics, problems = per_layer(passes)
        wanted = contract["per_layer"]
    else:
        metrics, problems = end_to_end(passes, setup_times), []
        wanted = contract["end_to_end"]
    failed = len(failures)  # at most one per op run

    workloads.OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_path = workloads.OUT / f"{stem}.json"
    spans_path = workloads.OUT / f"{stem}-spans.tsv.gz"
    if tracer:
        with gzip.open(spans_path, "wt", encoding="utf-8") as f:
            tracer.write_spans(f)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "loop": "closed, one client, one process",
        "setup_s": setup_times,
        "passes": [{"traced": p.traced, "wall_s": p.wall,
                    "ops": dict(zip((op.name for op in ops), p.op_times))} for p in passes],
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "failures": failures[:50], "problems": problems,
        "spans": str(spans_path.relative_to(workloads.ROOT)) if tracer else None,
    }
    results_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"imw benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"commit={record['commit'] or 'unknown'} python={record['python']} "
          f"nproc={record['nproc']}")
    for key, (value, unit, samples) in metrics.items():
        if value:
            print(f"  {key:<52} {value:>14.6g} {unit:<6} {samples}")
    if not tracer and "op_p90_s" not in metrics:
        print(f"  {'op_p90_s':<52} {'n/a':>14} {'s':<6} "
              f"needs {P90_MIN_OPS} ops, run had {sum(len(p.op_times) for p in passes)}")
    print(f"  {'fail_ratio':<52} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} ops failed")
    for problem in [f["problem"] for f in failures[:5]] + problems:
        print(f"  problem: {problem}")
    print(f"  results: {results_path.relative_to(workloads.ROOT)}")
    line = {"correct": not failures and not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                        for m in wanted}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
