#!/usr/bin/env python3
"""End-to-end benchmark of the htqo query service and paged storage.

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: tpch-analytic, plan-mix, durable-writes (see perfbench/README.md).
With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
replays the same request stream through each layer's public functions and
reports the per-layer metrics. Every answer is checked; the last line of
standard output is the result record

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the metrics BENCHMARK.json names. The exit code is non-zero if any
answer or durability check failed.

Smoke test (tiny data, all workloads, both modes, a few seconds each):
    python3 perfbench/run.py --smoke

Run from the root of a source checkout: the script builds the benchmark
package (perfbench/Cargo.toml) against the checkout's crates, offline, into
$CARGO_TARGET_DIR (default .bench_build). Working files go to
.perfbench-work/ and are removed when the run ends, except the last
result record of each workload and mode and its span dump.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tpch-analytic", "plan-mix", "durable-writes")
# Crates the benchmark builds against; without them it cannot run.
REQUIRED = ("Cargo.toml", "crates/service/Cargo.toml", "crates/storage/Cargo.toml",
            "crates/tpch/Cargo.toml", "crates/workloads/Cargo.toml", "perfbench/Cargo.toml")
# Set-ups per run: setup_s is their median.
SETUPS = {"tpch-analytic": 3, "plan-mix": 15, "durable-writes": 3}
RUN_TIMEOUT_S = 170

# BENCHMARK.json names one metric for what each workload measures under
# its own name: latency of a query or of a commit, queries or mutations
# per second.
ALIASES = {
    "latency_p50_ms": ("query_p50_ms", "commit_p50_ms"),
    "latency_tail_ms": ("query_p95_ms", "commit_p99_ms"),
    "throughput_per_s": ("qps", "mutations_per_s"),
}

# Every end-to-end metric each workload prints (fail_ratio is derived here).
E2E_NAMED = {
    "tpch-analytic": ("setup_s", "query_p50_ms", "query_p95_ms", "qps", "space_amp",
                      "peak_rss_mb", "fail_ratio"),
    "plan-mix": ("setup_s", "query_p50_ms", "query_p95_ms", "qps", "peak_rss_mb", "fail_ratio"),
    "durable-writes": ("setup_s", "commit_p50_ms", "commit_p99_ms", "mutations_per_s",
                       "recovery_s", "space_amp", "peak_rss_mb", "fail_ratio"),
}

QUERY_LAYERS = (
    "cq.parse_us", "cq.isolate_us", "optimizer.flatten_us", "optimizer.plan_us",
    "service.overhead_us", "hypergraph.canon_us", "core.decomp_ms",
    "optimizer.plan_hit_ratio", "optimizer.exact_hit_ratio", "eval.qhd_ms",
    "eval.factorized_ratio", "eval.float_mismatches", "engine.tuples_per_row",
    "engine.hash_builds", "engine.index_seeks", "engine.spill_bytes", "stats.analyze_s",
    "stats.answer_qerror_p50", "trace.coverage", "trace.overhead_pct",
    "share.planning_pct", "share.eval_pct",
)
WRITE_LAYERS = (
    "storage.checkpoints", "storage.wal_bytes_per_user_byte", "storage.pages_redone_per_batch",
)
STORAGE_TIMES = ("storage.ingest_s", "storage.recover_s", "storage.load_database_s")
# Every per-layer metric each workload's traced run prints.
LAYER_NAMED = {
    "tpch-analytic": QUERY_LAYERS + WRITE_LAYERS + STORAGE_TIMES + tuple(
        f"eval.qhd_ms.{c}" for c in ("q1", "q3", "q5", "q8", "q9", "q10")),
    # plan-mix is served from memory: no storage times.
    "plan-mix": QUERY_LAYERS + WRITE_LAYERS + tuple(
        f"eval.qhd_ms.{c}" for c in ("prepared", "isomorph", "novel")),
    "durable-writes": QUERY_LAYERS + WRITE_LAYERS + STORAGE_TIMES
    + ("storage.checkpoint_apply_ms",),
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")


def build():
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        fail("not a source checkout, missing: " + ", ".join(missing))
    cmd = ["cargo", "build", "--release", "--offline", "--locked",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target_dir() / "release" / "perfbench"


def revision():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown (not a git checkout)"
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(binary, workload, seed, seconds, trace, smoke):
    work = ROOT / ".perfbench-work"
    run_dir = work / f"{workload}-{seed}-{trace}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", str(run_dir), "--revision", revision(),
           "--setups", str(1 if smoke else SETUPS[workload])]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(run_dir, ignore_errors=True)
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        shutil.rmtree(run_dir, ignore_errors=True)
        fail(f"{workload} run failed (exit {proc.returncode})", 1)
    record = json.loads(lines[-1])
    # Keep the last record and span dump of each workload and mode.
    keep = work / "last"
    keep.mkdir(parents=True, exist_ok=True)
    (keep / f"{workload}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for spans in run_dir.glob("spans-*.tsv"):
        shutil.move(str(spans), keep / spans.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    return record


def metric_table(record, trace):
    """All metrics of a record, as name -> (value, unit), with fail_ratio."""
    table = {k: (v["value"], v["unit"]) for k, v in record["layer" if trace else "e2e"].items()}
    if not trace:
        table["fail_ratio"] = (record["failed"] / max(record["attempted"], 1), "ratio")
    return table


def contract_metrics(spec, table, trace):
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name = m["name"]
        source = next((a for a in (name,) + ALIASES.get(name, ()) if a in table), None)
        if source is None or table[source][0] is None:
            fail(f"metric {name} missing from the run's record", 1)
        out[name] = {"value": table[source][0], "unit": m["unit"]}
    return out


def print_record(workload, record, table):
    print(f"# {workload}")
    print("config: " + ", ".join(f"{k}={v}" for k, v in record["config"].items()))
    width = max(len(k) for k in table)
    for name, (value, unit) in table.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<{width}}  {shown} {unit}")
    for note in record["notes"]:
        print(f"note: {note}")
    print(f"checks: attempted={record['attempted']} failed={record['failed']}")


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def smoke(binary, spec):
    problems = []
    t0 = time.time()
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run_binary(binary, workload, 7, 1, trace, smoke=True)
            table = metric_table(record, trace)
            print_record(f"{workload} (smoke, trace {trace})", record, table)
            if record["failed"]:
                problems.append(f"{workload}/trace{trace}: {record['failed']} failed checks")
            named = LAYER_NAMED[workload] if trace else E2E_NAMED[workload]
            missing = [n for n in named if n not in table or table[n][0] is None]
            if missing:
                problems.append(f"{workload}/trace{trace}: missing {', '.join(missing)}")
            for m in spec["per_layer" if trace else "end_to_end"]:
                if not any(a in table for a in (m["name"],) + ALIASES.get(m["name"], ())):
                    problems.append(f"{workload}/trace{trace}: no value for {m['name']}")
    for p in problems:
        print(f"SMOKE FAILURE: {p}")
    print(f"smoke: {'FAILED' if problems else 'ok'} in {time.time() - t0:.1f} s")
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's own test")
    args = ap.parse_args()
    spec = load_spec()
    binary = build()
    if args.smoke:
        smoke(binary, spec)
    if args.workload is None:
        fail("--workload is required")
    trace = bool(args.trace)
    record = run_binary(binary, args.workload, args.seed, args.seconds, args.trace, smoke=False)
    table = metric_table(record, trace)
    print_record(args.workload, record, table)
    metrics = contract_metrics(spec, table, trace)
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
