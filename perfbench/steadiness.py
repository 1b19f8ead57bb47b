#!/usr/bin/env python3
"""Steadiness report: how much each end-to-end metric moves between runs.

    python3 perfbench/steadiness.py [--workloads tpch-analytic,plan-mix]
        [--runs 10] [--seed 1] [--seconds 20] [--trace 0] [--second-seed 1001]

Runs perfbench/run.py once per seed (seed, seed+1, ...) on each workload,
then once more on a second, unrelated seed. For every metric it prints the
median, the quartiles (statistics.quantiles, n=4), the spread -- the
interquartile distance as a share of the median -- and, for end-to-end
metrics, that spread as a share of the metric's bound in BENCHMARK.json.
A benchmark is steady when every spread but setup_s's stays well inside its
bound. The second seed's value is shown as a share of the median: inputs
drawn from a seed not used before should land inside the same spread.
Raw values go to .perfbench-work/steadiness-<workload>-trace<t>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="tpch-analytic,plan-mix,durable-writes")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--second-seed", type=int, default=1001)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = [run(workload, args.seed + i, seconds, args.trace) for i in range(args.runs)]
        second = run(workload, args.second_seed, seconds, args.trace)
        out = ROOT / ".perfbench-work" / f"steadiness-{workload}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"runs": runs, "second_seed": second}, indent=1) + "\n")
        print(f"\n## {workload}: {args.runs} runs of {seconds} s, seeds {args.seed}.."
              f"{args.seed + args.runs - 1}; second seed {args.second_seed}\n")
        print("| metric | median | q1 | q3 | spread | spread/bound | second seed / median |")
        print("|---|---|---|---|---|---|---|")
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            vs_bound = f"{spread / bounds[name]:.2f}" if name in bounds else "-"
            rel = second[name] / med if med else float("nan")
            print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {vs_bound} "
                  f"| {rel:.3f} |")


if __name__ == "__main__":
    main()
