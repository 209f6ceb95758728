#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise run-to-run spread.

    python3 perfbench/repeat.py --workloads exact_search certify_large \
        --seeds 1-10 [--trace 0|1] [--json summary.json]

Runs `perfbench/run.py` once per (workload, seed), one run at a time, with
`run_seconds` from BENCHMARK.json.  For every metric it prints the median,
the quartiles and the spread: (Q3 - Q1) / median, with the quartiles of
`statistics.quantiles(values, n=4)`, next to the metric's bound.  Timing
groups, per-task times and node counts from the `#` lines are summarised
too, and `--json` writes everything to one file.  Exit code 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def run_one(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    groups, tasks, nodes = {}, {}, {}
    for line in lines:
        if line.startswith("# groups "):
            groups = {k: float(v) for k, v in (kv.split("=") for kv in line.split()[2:])}
        elif line.startswith("# task "):
            name = line.split()[2]
            tasks[name] = float(re.search(r" median_s=(\S+)", line)[1])
            if m := re.search(r" nodes=(\d+)", line):
                nodes[name] = int(m[1])
    return proc.returncode, result, groups, tasks, nodes, proc.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", default=None, help="write the summary to this file")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report, bad = {}, 0
    for workload in args.workloads:
        metrics, groups, tasks, node_runs = {}, {}, {}, []
        for seed in args.seeds:
            rc, result, g, t, nodes, err = run_one(workload, seed, spec["run_seconds"], args.trace)
            if rc != 0 or result is None or not result["correct"]:
                bad += 1
                print(f"{workload} seed {seed}: exit {rc} {err.strip()[-300:]}", file=sys.stderr)
                if result is None:
                    continue
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            for name, v in g.items():
                groups.setdefault(name, []).append(v)
            for name, v in t.items():
                tasks.setdefault(name, []).append(v)
            node_runs.append(nodes)
        repeat = all(n == node_runs[0] for n in node_runs)
        report[workload] = {
            "metrics": {k: summary(v) for k, v in metrics.items() if len(v) >= 2},
            "groups": {k: summary(v) for k, v in groups.items() if len(v) >= 2},
            "task_median_s": {k: statistics.median(v) for k, v in tasks.items()},
            "nodes": node_runs[0] if node_runs else {},
            "nodes_repeat_exactly": repeat,
        }
        print(f"== {workload} ({len(node_runs)} runs, nodes repeat exactly: {repeat})")
        for kind in ("metrics", "groups"):
            for name, s in report[workload][kind].items():
                bound = bounds.get(name)
                print(f"  {name:32s} median={s['median']:<12.6g} spread={s['spread']:.4f}"
                      + (f"  bound={bound}" if bound is not None else ""))
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
