#!/usr/bin/env python3
"""Steadiness check for the benchmark, as the driver makes it.

Runs BENCHMARK.json's command several times per workload, each time with
another --seed, and prints for every end-to-end metric the distance between
the first and third quartile of its values as a share of their median, next
to the metric's bound. The spread should stay below a third of the bound.
With --rounds 2 it does all of that twice and also prints by how much each
median of the second round is worse than the first round's, which must stay
within the bound too.

    python3 benchmark/spread.py [--runs 10] [--rounds 1] [--first-seed 1] [WORKLOAD ...]

Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def one_round(spec, names, bounds, args):
    """Medians by (workload, metric), and the largest spread/bound seen."""
    medians = {}
    worst = 0.0
    for name in names:
        values = {m: [] for m in bounds}
        started = time.time()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed}: {result['failed']} of {result['attempted']} calls failed")
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        per_run = (time.time() - started) / args.runs
        print(f"{name}  ({per_run:.1f} s a run)")
        for metric, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            median = statistics.median(xs)
            medians[name, metric] = median
            spread = (q3 - q1) / median
            share = spread / bounds[metric]
            if metric != "setup_s":
                worst = max(worst, share)
            print(f"  {metric:<14} median {median:>16.4f}  spread {spread:7.2%}"
                  f"  bound {bounds[metric]:4.0%}  spread/bound {share:5.2f}")
        sys.stdout.flush()
    print(f"largest spread/bound outside setup_s: {worst:.2f} (aim for below 0.33)")
    return medians


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    rounds = [one_round(spec, names, bounds, args) for _ in range(args.rounds)]
    if len(rounds) < 2:
        return
    first, last = rounds[0], rounds[-1]
    worst = 0.0
    print("last round's medians against the first's (positive is worse)")
    for (name, metric), a in first.items():
        b = last[name, metric]
        worse = (a - b if higher[metric] else b - a) / a
        worst = max(worst, worse / bounds[metric])
        print(f"  {name:<14} {metric:<14} {worse:+7.2%}  bound {bounds[metric]:4.0%}")
    print(f"largest worsening/bound: {worst:.2f} (must stay below 1)")


if __name__ == "__main__":
    main()
