#!/usr/bin/env python3
"""Run the layered benchmark over several seeds and judge its steadiness.

    python3 perfbench/stability.py run --out FILE [--workloads a,b]
                                       [--runs 10] [--first-seed 1]
    python3 perfbench/stability.py check FILE [FILE2]

`run` appends one JSON line per run (workload, seed, result) to FILE.
`check` reports, per workload and end-to-end metric of BENCHMARK.json,
the median and the spread (first-to-third quartile distance over the
median, from statistics.quantiles(values, n=4)); with FILE2 it also
compares FILE2's medians against FILE's. It exits 1 when a spread other
than setup_s exceeds the metric's bound, or a median of FILE2 is worse
than FILE's by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """Interquartile distance of values as a share of their median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(base, other, better):
    """How much worse other's median is than base's, as a share of base's."""
    change = (statistics.median(other) - statistics.median(base)) / \
        statistics.median(base)
    return change if better == "lower" else -change


def problems(metrics, first, second=None):
    """Bound violations of the end-to-end metrics in the run sets.

    first and second map workload -> metric name -> list of values.
    Returns one line per violation.
    """
    found = []
    for workload in sorted(first):
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            values = first[workload].get(name, [])
            if len(values) < 2:
                found.append("%s %s: %d values" % (workload, name,
                                                   len(values)))
                continue
            if name != "setup_s" and spread(values) > bound:
                found.append("%s %s: spread %.4f > bound %.4f" % (
                    workload, name, spread(values), bound))
            if second is not None:
                other = second.get(workload, {}).get(name, [])
                if not other:
                    found.append("%s %s: missing in the second set" % (
                        workload, name))
                elif worsening(values, other, metric["better"]) > bound:
                    found.append("%s %s: second median worse by %.4f > "
                                 "bound %.4f" % (workload, name,
                                                 worsening(values, other,
                                                           metric["better"]),
                                                 bound))
    return found


def load(path):
    """workload -> metric -> values from a file written by `run`."""
    sets = {}
    with open(path) as lines:
        for line in lines:
            row = json.loads(line)
            for name, metric in row["result"]["metrics"].items():
                sets.setdefault(row["workload"], {}).setdefault(
                    name, []).append(metric["value"])
    return sets


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return json.load(spec)


def run(args):
    spec = benchmark_spec()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                command = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                      text=True, stdin=subprocess.DEVNULL)
                lines = done.stdout.splitlines()
                if done.returncode != 0 or not lines:
                    sys.stderr.write(done.stdout + done.stderr)
                    sys.stderr.write("%s seed %d failed (exit %d)\n" % (
                        workload, seed, done.returncode))
                    return 1
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
                print(workload, seed, " ".join(
                    "%s=%.6g" % (k, v["value"])
                    for k, v in result["metrics"].items()), flush=True)
    return 0


def check(args):
    metrics = benchmark_spec()["end_to_end"]
    first = load(args.file)
    second = load(args.file2) if args.file2 else None
    for workload in sorted(first):
        for metric in metrics:
            values = first[workload].get(metric["name"], [])
            if len(values) >= 2:
                print("%-15s %-17s n=%-3d median=%-12.6g spread=%.4f "
                      "(bound %.2f)" % (workload, metric["name"],
                                        len(values),
                                        statistics.median(values),
                                        spread(values), metric["bound"]))
    found = problems(metrics, first, second)
    for line in found:
        print("PROBLEM:", line)
    return 1 if found else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run_parser = sub.add_parser("run")
    run_parser.add_argument("--out", required=True)
    run_parser.add_argument("--workloads", default="")
    run_parser.add_argument("--runs", type=int, default=10)
    run_parser.add_argument("--first-seed", type=int, default=1)
    check_parser = sub.add_parser("check")
    check_parser.add_argument("file")
    check_parser.add_argument("file2", nargs="?")
    args = parser.parse_args()
    return run(args) if args.mode == "run" else check(args)


if __name__ == "__main__":
    sys.exit(main())
