#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

    python3 pipebench/run.py --workload ddh --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first run configures and compiles the
paygo library plus pipebench/pipeline_bench.cc into $CARGO_TARGET_DIR (or
.bench_build when unset) under the checkout; later runs only re-check the
build. The benchmark's last stdout line is its JSON result; build output and
progress go to stderr. With --trace 1 the spans are also written as Chrome
trace JSON to <build dir>/traces/<workload>-seed<seed>.json.

The exit code is the benchmark's: nonzero when an output check fails, when
the build fails, or when the library sources are not in the checkout.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 175


def run_logged(cmd, timeout):
    """Runs cmd with its stdout sent to our stderr; returns the exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return 124


def build(build_dir):
    """Configures once, then builds incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code = run_logged(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], timeout=300)
        if code != 0:
            return None
    if run_logged(["cmake", "--build", build_dir, "-j4"], timeout=850) != 0:
        return None
    return os.path.join(build_dir, "pipeline_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("pipebench: no library sources at %s/src; run from a full "
              "checkout" % ROOT, file=sys.stderr)
        return 1

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "pipebench")
    binary = build(build_dir)
    if binary is None or not os.path.isfile(binary):
        print("pipebench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("pipebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
