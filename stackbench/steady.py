#!/usr/bin/env python3
"""Steadiness check: run two sets of benchmark runs of the same build and
say whether they agree within the bounds in BENCHMARK.json.

Run from the root of a checkout:

    python3 stackbench/steady.py [--workloads local-mixed,local-hot] [--runs 10]

Set s (0 or 1) runs seeds 1000*(s+1)+1 .. 1000*(s+1)+runs. For each
workload and end-to-end metric it prints each set's median, first and
third quartile (statistics.quantiles(values, n=4)) and spread, the
interquartile distance as a share of the median. The sets agree when every
spread is within the metric's bound, the second set's median is no worse
than the first's by more than the bound, and the share of failed
operations is the same in every run. Exit code 0 means they agree.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" % (p.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse(first, later, better):
    """Relative amount by which later is worse than first."""
    if first == 0:
        return 0.0
    return (later - first) / first if better == "lower" else (first - later) / first


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    ok = True
    for wl in args.workloads.split(","):
        sets = []
        for s in range(SETS):
            runs = [run_once(spec, wl, 1000 * (s + 1) + i) for i in range(1, args.runs + 1)]
            sets.append(runs)
            print("%s set %d: failed share %s" % (
                wl, s, sorted({r["failed"] / r["attempted"] for r in runs})), flush=True)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) > 1:
            ok = False
            print("%s: failed share differs between runs: %s" % (wl, sorted(shares)))
        print("%-16s %-30s %4s %14s %14s %14s %8s %8s %8s" % (
            "workload", "metric", "set", "median", "q1", "q3", "spread", "bound", "worse"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for s, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                if len(vals) < len(runs):
                    ok = False
                    print("%-16s %-30s %4d missing in %d runs" % (wl, name, s, len(runs) - len(vals)))
                    continue
                med, q1, q3, spread = summary(vals)
                w = 0.0 if first is None else worse(first, med, m["better"])
                if first is None:
                    first = med
                flag = ""
                if spread > bound:
                    flag, ok = " SPREAD", False
                if w > bound:
                    flag, ok = flag + " WORSE", False
                print("%-16s %-30s %4d %14.4f %14.4f %14.4f %8.4f %8.3f %8.4f%s" % (
                    wl, name, s, med, q1, q3, spread, bound, w, flag), flush=True)
    print("sets agree within bounds" if ok else "sets DO NOT agree within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
