#!/usr/bin/env python3
"""Runs each workload repeatedly and reports each metric's spread.

    python3 perfbench/stability.py [--workloads a,b] [--seeds 1,2,...]
                                   [--seconds S]

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread (q3 - q1) /
median, next to the bound in BENCHMARK.json, plus the share of failed
operations in every run. Results also go to perfbench-out/stability.json.
The bounds in BENCHMARK.json are set from these spreads.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]

    report = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds)
            runs.append(result)
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                workload, seed, result["correct"], result["attempted"],
                result["failed"]), flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        summary = {"failed_shares": shares,
                   "all_correct": all(r["correct"] for r in runs),
                   "metrics": {}}
        for name in sorted(runs[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median) if median else float("inf")
            summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                        "spread": spread, "values": values}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "  (%.2f of bound %.2f)" % (spread / bound, bound)
            print("  %-40s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.4f%s" % (
                name, median, q1, q3, spread, flag))
        print("  failed share per run: %s, every run correct: %s" % (
            shares, summary["all_correct"]), flush=True)
        report[workload] = summary
    os.makedirs(os.path.join(ROOT, "perfbench-out"), exist_ok=True)
    with open(os.path.join(ROOT, "perfbench-out", "stability.json"), "w") as f:
        json.dump(report, f, indent=2)
    print("worst spread / bound: %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
