#!/usr/bin/env python3
"""Outside-in benchmark for trilat.

    python3 perfbench/run.py --workload exact_search --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The benchmark imports trilat from the
checkout's `src/`, sets up the workload (median of several set-ups), then
runs the workload's fixed task list in passes, one task after another in one
process (a closed loop with one client).  Passes repeat while at least half
of the next one fits in `--seconds` (at least one; two with `--trace 1`).  Every task result is
checked; a failed check, an exception or a wrong exit code counts as failed.

With `--trace 0` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with `--trace 1` passes alternate untraced and traced, and it
reports the per-layer metrics from the traced passes.  Lines before it list
per-task times and the timing groups.  Exit code 0 when every task passed,
1 when one failed, 2 when the checkout has no trilat sources.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("lattice", "triangles", "counting", "coloring", "solver",
           "constructions", "triples", "cli")
SETUP_REPEATS = 5


def import_trilat():
    """A fresh import of every trilat module from the checkout's src/."""
    for name in [n for n in sys.modules if n == "trilat" or n.startswith("trilat.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"trilat.{name}") for name in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise ImportError(f"trilat imported from {origin}, not from this checkout")
    return modules


def run_pass(tasks, tracer):
    """Run every task once, in order; returns (wall seconds, per-task results)."""
    results = []
    start = time.perf_counter()
    for task in tasks:
        if tracer:
            tracer.begin_task(task.name)
        t0 = time.perf_counter()
        t1 = None
        try:
            out = task.run()
            t1 = time.perf_counter()
            detail, ok = task.check(out), True
        except Exception as exc:  # a failing task is counted; the loop goes on
            t1 = t1 or time.perf_counter()
            detail, ok = f"FAILED {type(exc).__name__}: {exc}", False
        if tracer:
            tracer.end_task()
        results.append((task, t1 - t0, ok, detail))
    return time.perf_counter() - start, results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "trilat" / "__init__.py").is_file() or not (ROOT / "certificates").is_dir():
        print(f"perfbench: no trilat sources or certificates/ under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 64
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            modules = import_trilat()
            tasks = workloads.WORKLOADS[args.workload](
                workloads.Context(ROOT, work, args.seed, modules))
            setups.append(time.perf_counter() - t0)
        tracer = spans.Tracer(modules) if args.trace else None

        passes = []  # (traced, first span, last span, wall, results)
        start = time.perf_counter()
        while True:
            traced = bool(tracer) and len(passes) % 2 == 1
            first = len(tracer.spans) if tracer else 0
            if traced:
                tracer.install()
            try:
                wall, results = run_pass(tasks, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            passes.append((traced, first, len(tracer.spans) if tracer else 0, wall, results))
            # Start another pass only if at least half of it fits the budget.
            elapsed = time.perf_counter() - start
            if len(passes) >= (2 if tracer else 1) and elapsed + wall / 2 > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p[4]) for p in passes)
    failed = sum(not ok for p in passes for _, _, ok, _ in p[4])
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} setup_runs={[round(s, 4) for s in setups]}")
    for i, task in enumerate(tasks):
        times = [p[4][i][1] for p in passes]
        print(f"# task {task.name:24s} {task.group or '-':12s} "
              f"median_s={statistics.median(times):.4f} {passes[-1][4][i][3]}")
    groups = {}
    for task in tasks:
        if task.group:
            groups[task.group] = statistics.median(
                sum(t for task_, t, _, _ in p[4] if task_.group == task.group) for p in passes)
    print("# groups " + " ".join(f"{g}={v:.4f}" for g, v in groups.items()))

    if tracer:
        values = spans.median_metrics(
            [spans.layer_metrics(tracer.spans, p[1], p[2], p[3], tracer.wrapper_s)
             for p in passes if p[0]])
        values["failed_frac"] = failed / attempted
        declared = spec["per_layer"]
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl",
                    {"workload": args.workload, "seed": args.seed,
                     "passes": [{"traced": p[0], "wall_s": p[3]} for p in passes]})
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(sum(t for _, t, _, _ in p[4]) for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
