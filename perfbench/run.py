#!/usr/bin/env python3
"""Build and run one workload of the layered benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the repository's libraries from src/)
into .bench_build/ with CMake in Release mode, runs pmdb_perfbench, and
passes its output through: the metric lines and, last, one JSON object
with the keys correct, attempted, failed and metrics. Exits non-zero
without a result when the build fails, and non-zero after the result
when a correctness check failed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
BINARY = os.path.join(CMAKE_DIR, "pmdb_perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("pmdk_mix", "bulk_persist", "service_ingest", "crash_explore")


def build():
    """Configure (once) and build pmdb_perfbench; returns True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        # Concurrent runs in one checkout build once, in turn.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", CMAKE_DIR, "-j",
                      str(os.cpu_count() or 1), "--target", "pmdb_perfbench"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                sys.stderr.write("run.py: build failed: %s\n" % " ".join(step))
                return False
    return True


def git_sha():
    """The checkout's commit, or "unknown" when it is not a git work tree."""
    root = os.path.dirname(HERE)
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10,
                             stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def valid_result(line):
    """True when line is a result object: exactly correct, attempted,
    failed and metrics, with attempted >= 1."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["correct"], bool)
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 3
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--pins", os.path.join(HERE, "pins.txt"),
               "--work-dir", os.path.join(BUILD_DIR, "run"),
               "--git-sha", git_sha()]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, stdin=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: pmdb_perfbench timed out\n")
        return 4
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines or \
            not valid_result(lines[-1]):
        # No trustworthy result: keep it off the last line of stdout.
        sys.stderr.write(run.stdout)
        sys.stderr.write("run.py: pmdb_perfbench exited %d without a "
                         "result\n" % run.returncode)
        return run.returncode or 4
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
