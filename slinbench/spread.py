#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports, per metric, the median
and the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound.

Usage, from the root of a checkout:

    python3 slinbench/spread.py [--seeds 10] [--first-seed 1]
                                [--trace 0] [workload ...]

With no workload named, every workload in BENCHMARK.json runs. Also checks
that every run was correct and that the share of failed operations is the
same in every run of a workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, trace):
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("%s seed %d: exit %d" % (workload, seed,
                                                   out.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        values, shares, correct = {}, set(), True
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(bench, workload, seed, args.trace)
            correct = correct and result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s: correct=%s failed-share=%s" % (
            workload, correct, sorted(shares)))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = " ok" if spread < bound / 3 else (
                    " within" if spread <= bound else " WIDE")
            print("  %-32s median %-14.6g spread %.4f bound %s%s" % (
                name, med, spread, bound, flag))
            print("    values: " + " ".join("%.6g" % v for v in vals))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
