#!/usr/bin/env python3
"""Entry point of the benchmark: builds perfbench from source, runs one
workload, and prints the result record as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build lands in .bench_build/perfbench.
With --trace 0 the record carries the end-to-end metrics of BENCHMARK.json,
measured by the untraced binary. With --trace 1 it carries the per-layer
metrics, measured by the traced binary, plus trace.overhead_pct, taken from
an untraced run of the same seed and length made just before it. Spans go to
.bench_build/spans/<workload>-<seed>.jsonl. Exits non-zero, without a
record, when the build fails, a run fails, or an output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = {"fleet-churn", "tenant-traffic", "chaos-sweep"}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release", *generator])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def run_binary(name, workload, seed, seconds, extra=()):
    command = [os.path.join(BUILD, name), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), *extra]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name} exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{name} printed no result (exit {done.returncode})")
    if done.returncode != 0 or not record.get("correct"):
        for error in record.get("errors", []):
            print(f"perfbench: check failed: {error}", file=sys.stderr)
        fail(f"{name} --workload {workload} --seed {seed}: output check failed")
    return record


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    build()
    if args.trace == 0:
        wanted = spec["end_to_end"]
        record = run_binary("perfbench", args.workload, args.seed, args.seconds)
    else:
        wanted = spec["per_layer"]
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        plain = run_binary("perfbench", args.workload, args.seed, args.seconds)
        record = run_binary(
            "perfbench_traced", args.workload, args.seed, args.seconds,
            ["--spans", os.path.join(spans, f"{args.workload}-{args.seed}.jsonl")])
        # Tracing overhead: the headline rate of the untraced run over the
        # traced run's, as a percentage slowdown.
        untraced = plain["metrics"]["ops_per_s"]["value"]
        traced = record["metrics"]["ops_per_s"]["value"]
        record["metrics"]["trace.overhead_pct"] = {
            "value": (untraced / traced - 1.0) * 100.0, "unit": "%"}

    measured = record["metrics"]
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            metrics[m["name"]] = {"value": measured[m["name"]]["value"],
                                  "unit": m["unit"]}
        elif args.trace == 1:
            # A layer this workload does not reach reads 0 (see README.md).
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail(f"metric {m['name']} was not measured")
    print(f"perfbench: {args.workload} outcome digest {record['digest']}")
    print(json.dumps({"correct": True, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
