#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, compared.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Runs `perfbench/run.py --trace 0` --runs times per set and workload, in two
sets, each run on its own seed (set 2 continues the seeds of set 1). For
every workload and end-to-end metric of BENCHMARK.json it prints, per set,
the median, the quartiles and the spread (Q3 - Q1) / median, and whether

  * spread: each set's spread is within the metric's bound;
  * drift: set 2's median is not worse than set 1's by more than the bound;
  * failed share: the share of failed operations is identical in both sets.

Exits 1 when any check fails or any run is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(2):
            seeds = range(args.first_seed + s * args.runs,
                          args.first_seed + (s + 1) * args.runs)
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                print("%s set %d seed %d: %s" % (
                    workload, s + 1, seed, " ".join(
                        "%s=%.4g" % (k, v["value"])
                        for k, v in runs[-1]["metrics"].items())),
                      flush=True)
            sets.append(runs)
            for r in runs:
                if not r["correct"]:
                    ok = False
                    print("%s: incorrect run" % workload)
        shares = {(r["failed"] / r["attempted"]) for runs in sets for r in runs}
        print("\n%s: %d run(s) per set, failed share %s" %
              (workload, args.runs, sorted(shares)))
        if len(shares) != 1:
            ok = False
        print("%-15s %11s %11s %11s %7s | %11s %7s | %6s %s" %
              ("metric", "median1", "q1", "q3", "spread1", "median2",
               "spread2", "bound", "verdict"))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            verdict = []
            if any(spread > bound for _, _, _, spread in stats):
                verdict.append("SPREAD")
            m1, m2 = stats[0][0], stats[1][0]
            worse = (m2 - m1) / m1 if metric["better"] == "lower" \
                else (m1 - m2) / m1
            if worse > bound:
                verdict.append("DRIFT %.3f" % worse)
            print("%-15s %11.4f %11.4f %11.4f %7.3f | %11.4f %7.3f | %6.3f %s"
                  % (name, m1, stats[0][1], stats[0][2], stats[0][3], m2,
                     stats[1][3], bound, " ".join(verdict) or "ok"))
            ok = ok and not verdict
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
