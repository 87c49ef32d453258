#!/usr/bin/env python3
"""Build and run the AutoBraid repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mid-anneal --seed 1 --seconds 30 --trace 0

The first run configures and builds the library and the benchmark
program (Release) into .bench_build/perfbench; later runs only check the
build. --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics and a profile tree. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is
non-zero, with no JSON printed, when the build or the run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "autobraid_perfbench")
SETUP_PROBES = 8  # before the run, and as many again after it
WORKLOADS = ("mid-anneal", "paper-route", "wide-route", "serve-zipf")


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "autobraid_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def setup_probes(workload, samples):
    """Append SETUP_PROBES fresh-process set-up times (see main.cpp)."""
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [BINARY, "--setup-probe", "--workload", workload],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True, check=False)
        if proc.returncode:
            return False
        samples.append(float(proc.stdout.split()[-1]))
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Set-up probes before and after the run, so their median spans the
    # host's speed over the whole run rather than one moment of it.
    setup = []
    if not args.trace and not setup_probes(args.workload, setup):
        print("perfbench: set-up probe failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, check=False)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode or result is None:
        sys.stderr.write(proc.stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1

    if not args.trace:
        if not setup_probes(args.workload, setup):
            print("perfbench: set-up probe failed", file=sys.stderr)
            return 1
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
