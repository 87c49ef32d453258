#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs (--small), one fixed seed.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Checks, for every workload:
  * the run reports correct=true with no failed operation (every compile
    certified, every traced compile's metricsSummary byte-identical to
    the untraced one, every serve reply equal to a fresh compile);
  * two traced runs print identical per-circuit digests of the
    telemetry work counters and of metricsSummary;
  * the end-to-end and per-layer metric sets match BENCHMARK.json.
Exits 1 on the first failed check.
"""

import json
import subprocess
import sys

SEED = "7"


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", SEED, "--seconds", "1", "--trace", str(trace), "--small"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=False)
    if proc.returncode:
        sys.exit("FAIL %s trace=%d: exit %d" % (workload, trace,
                                                proc.returncode))
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-1]), [l for l in lines if l.startswith("counters ")]


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for w in (w["name"] for w in spec["workloads"]):
        untraced, _ = run(w, 0)
        first, digests = run(w, 1)
        second, digests_again = run(w, 1)
        for name, result, want in (("trace=0", untraced, e2e),
                                   ("trace=1", first, layers),
                                   ("trace=1 again", second, layers)):
            if not result["correct"] or result["failed"]:
                sys.exit("FAIL %s %s: %d of %d operations failed"
                         % (w, name, result["failed"], result["attempted"]))
            if set(result["metrics"]) != want:
                sys.exit("FAIL %s %s: metric set differs from "
                         "BENCHMARK.json: %s" % (
                             w, name, sorted(set(result["metrics"]) ^ want)))
        if digests != digests_again:
            sys.exit("FAIL %s: work counters or metricsSummary changed "
                     "between two traced runs:\n%s\n%s"
                     % (w, "\n".join(digests), "\n".join(digests_again)))
        print("ok %s (%d circuits with repeatable counters)" % (w,
                                                               len(digests)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
