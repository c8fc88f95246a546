#!/usr/bin/env python3
"""Self-test of the benchmark's failure accounting and seeding.

    python3 perfbench/selftest.py [--workload <name>] [--seconds <s>]

Run from the repository root. For each workload (all by default):

- a run with one result corrupted on purpose counts exactly that unit as
  failed, reports correct=false and exits nonzero;
- two runs with one seed print the same input digest, sim digest and
  sim_us_per_unit;
- two traced runs with that seed report identical kernel.* and sim.*
  metrics, and their span files parse as strict JSON;
- a run with a second seed verifies every unit with different inputs.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)

SEED_A = 7
SEED_B = 8
CORRUPT_UNIT = 1


def bench(binary, workload, seed, seconds, trace, extra=()):
    """Run the benchmark binary; returns (exit code, JSON result,
    {printed key: value} for the digest and modelled-time lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, cwd=run.ROOT, env=run.clean_env(),
                       stdout=subprocess.PIPE, timeout=run.RUN_TIMEOUT_S)
    lines = p.stdout.decode("utf-8").strip().splitlines()
    digests = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 2 and parts[0] in ("input_digest", "sim_digest",
                                            "sim_us_per_unit"):
            digests[parts[0]] = parts[1]
    return p.returncode, json.loads(lines[-1]), digests


def check_workload(binary, workload, seconds):
    failures = []

    def expect(ok, what):
        print("  %-4s %s" % ("ok" if ok else "FAIL", what))
        if not ok:
            failures.append("%s: %s" % (workload, what))

    print(workload)
    rc, res, dig_a = bench(binary, workload, SEED_A, seconds, 0)
    expect(rc == 0 and res["correct"] and res["failed"] == 0,
           "seed %d verifies" % SEED_A)

    rc, res, dig = bench(binary, workload, SEED_A, seconds, 0,
                         ["--corrupt-unit", str(CORRUPT_UNIT)])
    expect(rc != 0 and not res["correct"] and res["failed"] == 1,
           "a corrupted result counts as failed (%d of %d)"
           % (res["failed"], res["attempted"]))
    expect(dig == dig_a and len(dig) == 3,
           "same seed, same input digest, sim digest and sim_us_per_unit")

    layers = []
    for k in range(2):
        spans = os.path.join(run.build_dir(), "selftest-spans-%s-%d.json"
                             % (workload, k))
        rc, res, _ = bench(binary, workload, SEED_A, seconds, 1,
                           ["--spans", spans])
        expect(rc == 0 and res["correct"], "traced run %d verifies" % k)
        with open(spans, encoding="utf-8") as f:
            doc = json.load(f)
        expect(len(doc["spans"]) > 0 and doc["self_ms_by_layer"],
               "span file %d parses as strict JSON" % k)
        layers.append({name: m["value"] for name, m in res["metrics"].items()
                       if name.startswith(("kernel.", "sim."))})
    expect(layers[0] == layers[1] and any(layers[0].values()),
           "kernel.* and sim.* repeat exactly across traced runs")

    rc, res, dig_b = bench(binary, workload, SEED_B, seconds, 0)
    expect(rc == 0 and res["correct"] and res["failed"] == 0,
           "seed %d verifies" % SEED_B)
    expect(dig_b["input_digest"] != dig_a["input_digest"],
           "seed %d makes other inputs" % SEED_B)
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=run.WORKLOADS,
                    help="one workload (default: all)")
    ap.add_argument("--seconds", type=float, default=5.0)
    args = ap.parse_args()
    binary = run.build()
    failures = []
    for w in [args.workload] if args.workload else run.WORKLOADS:
        failures += check_workload(binary, w, args.seconds)
    print("selftest: %s" % ("FAILED: " + "; ".join(failures)
                            if failures else "all checks hold"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
