#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the repository root:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Builds perfbench/ (the library from src/ plus the driver) with CMake into
.bench_build/, or into $CARGO_TARGET_DIR when that is set, runs the driver
for one workload, and relays its output. The last line of standard output
is the result object. Before relaying it, the script checks that its
metrics are exactly the ones BENCHMARK.json lists for the mode (end_to_end
for --trace 0, per_layer for --trace 1), with the same units. The health
floor each workload must meet is read from its "why" in BENCHMARK.json
("health_clear>=F").
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd to completion; returns (exit code, captured stdout).

    The child never outlives this script: it is killed and reaped on a
    timeout, and on any exit of ours (SIGTERM included, see main).
    """
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} did not finish within {timeout} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run_checked(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run_checked(
        ["cmake", "--build", build_dir, "--target", "perfbench_driver",
         "-j", jobs],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench_driver")


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    workload = next((w for w in spec["workloads"]
                     if w["name"] == args.workload), None)
    if workload is None:
        fail(f"unknown workload {args.workload!r}")
    floor = re.search(r"health_clear>=([0-9.]+)", workload["why"])
    if floor is None:
        fail(f"BENCHMARK.json states no health_clear floor for {args.workload}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    driver = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--health-floor", floor.group(1), "--trace-out",
           os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    code, out = run_checked(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                            text=True)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"driver exited {code} without a result line")

    expected = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unlisted {extra}, unit mismatch {units}")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
