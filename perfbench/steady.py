#!/usr/bin/env python3
"""Steadiness runner: two sets of runs of each workload, one seed per run,
and for every end-to-end metric the median, the quartiles and the spread
(interquartile range over the median) against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
                                [--record perfbench/BASELINE.json]

Run it from the repository root. A set passes when every spread except
setup_s's stays within its metric's bound; the second set passes when, in
addition, no median is worse than the first set's by more than the bound.
With --record the medians, quartiles and spreads, the machine's core count
and the run settings are written to the given JSON file. Exits non-zero
when a run fails or a set does not pass.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady: run failed: {' '.join(command)}")
    return json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", default="")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    metrics = spec["end_to_end"]

    ok = True
    record = {"nproc": os.cpu_count(), "machine": platform.machine(),
              "run_seconds": spec["run_seconds"], "runs_per_set": args.runs,
              "date": time.strftime("%Y-%m-%d"), "workloads": {}}
    for workload in names:
        sets = []
        for s in range(args.sets):
            seeds = [args.first_seed + s * args.runs + i for i in range(args.runs)]
            runs = [run_once(workload, seed, spec["run_seconds"]) for seed in seeds]
            table = {m["name"]: summarize([r["metrics"][m["name"]]["value"]
                                           for r in runs]) for m in metrics}
            sets.append({"seeds": seeds, "metrics": table})
        record["workloads"][workload] = sets
        for s, data in enumerate(sets):
            print(f"{workload} set {s + 1} (seeds {data['seeds'][0]}..{data['seeds'][-1]})")
            for m in metrics:
                row = data["metrics"][m["name"]]
                verdict = "ok"
                gated = m["name"] != "setup_s"
                if gated and row["spread"] > m["bound"]:
                    verdict = "FAIL: spread over the bound"
                    ok = False
                elif gated and row["spread"] > m["bound"] / 3:
                    verdict = "spread over a third of the bound"
                if s > 0:
                    base = sets[0]["metrics"][m["name"]]["median"]
                    worse = (row["median"] - base) / base
                    if m["better"] == "higher":
                        worse = -worse
                    if worse > m["bound"]:
                        verdict = "FAIL: median worse than set 1 by over the bound"
                        ok = False
                print(f"  {m['name']:<14} median {row['median']:>12.5g} {m['unit']:<4} "
                      f"q1 {row['q1']:>12.5g} q3 {row['q3']:>12.5g} "
                      f"spread {row['spread']:.3f} bound {m['bound']}  {verdict}")
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
