#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload serve --seeds 1-10 [--seconds N] [--trace 0]

For every metric it prints the median and the interquartile distance
(statistics.quantiles(values, n=4), Q3 - Q1) as a share of the median,
next to the regression bound BENCHMARK.json gives it, and flags spreads
wider than a third of the bound. --seconds defaults to BENCHMARK.json's
run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            sys.exit("seed %d: exit %d" % (seed, out.returncode))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: incorrect result %s" % (seed, result))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    print("%-32s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  WIDE" if spread <= bound else "  OVER BOUND"
        print("%-32s %14.6g %8.4f %8s%s" % (name, med, spread,
                                             "-" if bound is None else bound, flag))


if __name__ == "__main__":
    main()
