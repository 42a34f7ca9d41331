#!/usr/bin/env python3
"""fsdep benchmark entry point.

Run from the root of an fsdep checkout:

    python3 fsbench/run.py --workload amplify-cold --seed 1 --seconds 20 --trace 0

Builds the harness (fsbench/CMakeLists.txt, which compiles the fsdep
libraries from ../src) into .bench_build/fsbench, runs the harness
self-tests, then runs the named workload in a process of its own. The
harness prints every metric by name, unit and sample count; the last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1, as listed in BENCHMARK.json).

Exit status: 0 when every output check passed, 1 when a check failed or
the result line is malformed, 2 when the checkout or build is unusable.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("amplify-cold", "serve-mixed", "campaign")
BUILD_DIR = os.path.join(".bench_build", "fsbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
HARNESS = os.path.join(BUILD_DIR, "fsbench")
# Per step; the first build of a checkout compiles every fsdep library.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("fsbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("fsbench: %s: %s" % (" ".join(cmd), err), file=sys.stderr)
        return False
    return done.returncode == 0


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail(2, "no fsdep sources (src/CMakeLists.txt) under %s" % os.getcwd())
    if shutil.which("cmake") is None:
        fail(2, "cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "fsbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if not run_logged(configure, BUILD_TIMEOUT_S):
            fail(2, "configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_logged(["cmake", "--build", BUILD_DIR, "--target", "fsbench", "-j", jobs],
                      BUILD_TIMEOUT_S):
        fail(2, "build failed")


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return False
    names = expected_metrics(trace)
    if names is not None and set(result["metrics"]) != set(names):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        print("fsbench: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (missing, extra), file=sys.stderr)
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail(2, "--seconds must be positive and --seed non-negative")

    build()
    # Sockets, disk caches and span dumps of earlier runs go.
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    try:
        selftest = subprocess.run([HARNESS, "--selftest"], stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, "self-tests timed out")
    sys.stdout.write(selftest.stdout)
    if selftest.returncode != 0:
        fail(1, "harness self-tests failed")

    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ".", "--work-dir", WORK_DIR]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, "workload %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if not valid_result(lines[-1], args.trace == 1):
        fail(1, "the harness printed no valid result line (exit %d)" % run.returncode)
    print(lines[-1])
    sys.stdout.flush()
    return 0 if run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
