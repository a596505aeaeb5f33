#!/usr/bin/env python3
"""Builds the deltarepair library and the perfbench binary from source, then
runs one workload and prints its result line.

Run from the repository root:

    python3 perfbench/run.py --workload batch_repair --seed 1 --seconds 25 --trace 0

--workload is one of the workloads BENCHMARK.json lists, or all (each
workload in its own process, one after another); --seconds defaults to
its run_seconds. --trace 1 reports the per-layer metrics instead of the
end-to-end ones and writes a Chrome trace of the benchmark's own spans
next to the build. --self-test corrupts one result per check and
confirms that the check fails.

The build goes to $CARGO_TARGET_DIR, or .bench_build when it is unset. The
last line of standard output is the result JSON; its "correct" field says
whether every output check passed. The exit code is 0 whenever a result
was printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RUN_TIMEOUT_S = 170

# Every check with the workload whose outputs it covers; --self-test
# corrupts one result per pair and expects the check to fire.
SELF_TEST = [
    ("batch_repair", "stabilizing"),
    ("batch_repair", "containment"),
    ("batch_repair", "cardinality"),
    ("batch_repair", "optimal"),
    ("batch_repair", "cqa_end"),
    ("batch_repair", "cqa_independent"),
    ("cqa_shared_cone", "stabilizing"),
    ("cqa_shared_cone", "containment"),
    ("cqa_shared_cone", "cardinality"),
    ("cqa_shared_cone", "optimal"),
    ("cqa_shared_cone", "cqa_end"),
    ("cqa_shared_cone", "cqa_independent"),
    ("serve_mixed", "serve_response"),
    ("serve_mixed", "store_reopen"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures and builds into build_dir(); returns the binary path or
    None. Build output goes to stderr so stdout stays the result."""
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log("perfbench: cannot run %s: %s" % (cmd[0], err))
            return None
        if proc.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def run_one(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout text)."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    if trace:
        cmd += ["--trace-out",
                os.path.join(build_dir(), "trace-%s-%s.json" % (workload, seed))]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, universal_newlines=True)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, ""
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def self_test(binary, seed):
    ok = True
    for workload in WORKLOADS:
        code, out = run_one(binary, workload, seed, 0.01, False)
        res = result_of(out)
        good = code == 0 and res is not None and res["correct"]
        ok &= good
        print("%-16s %-16s %s" % (workload, "(none)",
                                  "correct, as expected" if good
                                  else "UNEXPECTED: not correct"))
    for workload, check in SELF_TEST:
        code, out = run_one(binary, workload, seed, 0.01, False,
                            ["--corrupt", check])
        res = result_of(out)
        fired = [l.strip() for l in out.splitlines()
                 if l.strip().startswith("CHECK FAILED: %s:" % check)]
        good = (code == 0 and res is not None and not res["correct"]
                and bool(fired))
        ok &= good
        print("%-16s %-16s %s" % (workload, check,
                                  fired[0] if good
                                  else "UNEXPECTED: check did not fire"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary, args.seed)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        code, out = run_one(binary, workload, args.seed, args.seconds,
                            args.trace == 1)
        res = result_of(out)
        if code != 0 or res is None:
            log("perfbench: %s exited %d without a result" % (workload, code))
            return 1
        sys.stdout.write(out)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
