#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The binary is built with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the root; the first run
compiles the library, later runs only check that it is up to date. The
benchmark's output is passed through unchanged: its last line is one
JSON object with the keys correct, attempted, failed and metrics. The
exit code is the benchmark's own (nonzero when any unit fails
verification or a consistency check fails), 2 when the build fails.
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pbs-serve", "pir-serve", "ckks-conv")
# A run must end within 180 s; stop a wedged run before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def clean_env():
    """The benchmark fixes its own engine and policies; TRINITY_* knobs
    from the caller's environment must not change what it measures.
    Temporary files (the compiler's) stay under the build directory."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TRINITY_")}
    env["TMPDIR"] = os.path.join(build_dir(), "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build():
    """Configure (once) and build the benchmark binary; returns its
    path, or exits 2 with the build log on stderr."""
    out = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime",
                                       "pbs_server.h")):
        sys.stderr.write("error: library sources (src/) not found next "
                         "to perfbench/\n")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "trinity_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                               stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.stderr.write("error: build step failed: %s\n" % e)
            sys.exit(2)
        if p.returncode != 0:
            sys.stderr.write(p.stdout.decode("utf-8", "replace"))
            sys.stderr.write("error: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, "trinity_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in (0, 120]")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir(), "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
