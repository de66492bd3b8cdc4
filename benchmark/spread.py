#!/usr/bin/env python3
"""Run the benchmark N times per workload, each with another seed, and
print for every end-to-end metric the median and the spread: the
distance between the first and the third quartile as a share of the
median, next to the metric's bound in BENCHMARK.json. The driver accepts
the benchmark only if every spread except that of setup_s stays within
the bound; aim below a third of it.

usage: benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME]...
Run from the repository root after benchmark/run.sh has built once.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(command, stdout=subprocess.PIPE, check=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            share = spread / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            print(f"{workload:<16} {name:<15} median {median:>10.4f}  spread {spread:6.1%}  "
                  f"bound {bounds[name]:4.0%}  spread/bound {share:5.2f}  "
                  f"min {min(series):.4f} max {max(series):.4f}", flush=True)
    print(f"worst spread/bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
