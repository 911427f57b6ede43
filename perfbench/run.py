#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload engine --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory, configured once and brought up to date on every run; the build
log goes to stderr. The workload's own output, whose last line is the JSON
result, goes to stdout. The exit code is the benchmark's: nonzero on an
oracle mismatch, an overload flag, or a failed build.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("engine", "serve", "serve-rw", "restart")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd):
    """Runs a build step with its output on stderr; fails on error."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}")


def build(source_dir, build_dir):
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", source_dir, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", jobs])
    if not os.path.exists(binary):
        fail("build produced no perfbench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(source_dir, "..", "src",
                                       "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(out_root, "perfbench")
    binary = build(source_dir, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(out_root, "work")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
