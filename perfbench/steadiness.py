#!/usr/bin/env python3
"""Steadiness check: runs two sets of runs of the same commit and compares
each end-to-end metric against its bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10

For every workload and end-to-end metric it prints each set's median and
quartiles, the spread (third minus first quartile, as a share of the
median, from statistics.quantiles(values, n=4)) and how far the second
set's median moved from the first in the metric's worse direction. A
metric passes when each set's spread stays within its bound and the
shift does too; the failed share of requests must be identical in every
run. Every run uses its own seed (set s, run i: 100 + 1000 s + i). Raw
results go to <build dir>/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEED_BASE = 100


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, universal_newlines=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s" % " ".join(cmd))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    metrics = bench["end_to_end"]
    raw = {}
    all_ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(SETS):
            results = []
            for i in range(args.runs):
                seed = SEED_BASE + 1000 * s + i
                res = run(workload, seed, args.seconds)
                if not res["correct"]:
                    print("%s seed %d: outputs NOT correct" % (workload, seed))
                    all_ok = False
                results.append(res)
            sets.append(results)
        raw[workload] = sets

        shares = {r["failed"] / r["attempted"] for rs in sets for r in rs}
        share_ok = len(shares) == 1
        all_ok &= share_ok
        print("\n== %s: %d sets x %d runs, %.0f s each; failed share %s %s"
              % (workload, SETS, args.runs, args.seconds,
                 sorted(shares), "ok" if share_ok else "DIFFERS"))
        print("%-15s %-6s %12s %12s %12s %8s %8s %8s  %s" % (
            "metric", "set", "q1", "median", "q3", "spread", "shift",
            "bound", "verdict"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                shift = 0.0
                if s > 0:
                    shift = (med - medians[0]) / medians[0]
                    if m["better"] == "higher":
                        shift = -shift
                ok = shift <= bound and spread <= bound
                all_ok &= ok
                print("%-15s %-6d %12.5g %12.5g %12.5g %7.1f%% %7.1f%% %7.1f%%"
                      "  %s" % (name, s + 1, q1, med, q3, 100 * spread,
                                100 * shift, 100 * bound,
                                "ok" if ok else "OUT OF BOUND"))
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "steadiness.json"), "w") as f:
        json.dump(raw, f)
    print("\nsteady" if all_ok else "\nNOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
