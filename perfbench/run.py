#!/usr/bin/env python3
"""Build and run the wormsim repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Builds the wormsim libraries and the perfbench program from source into
.bench_build/perfbench (CMake, RelWithDebInfo), runs one workload, and
checks that the program's last output line names exactly the metrics that
BENCHMARK.json lists for the mode (end_to_end with --trace 0, per_layer
with --trace 1), each with its unit.  That line is also this script's last
line of output.  --smoke runs every workload at tiny size in both modes
and checks the same; it is the benchmark's own test.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("wormsim sources not found under " + ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr; stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(step))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    """Returns a list of problems with the program's result line."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON: " + line[:200]]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are " + ", ".join(sorted(result)))
        return problems
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            problems.append(key + " is not a whole number")
    if result["attempted"] < 1:
        problems.append("no checks attempted")
    metrics = result["metrics"]
    expected = expected_metrics(trace)
    for name in sorted(set(expected) ^ set(metrics)):
        problems.append("metric %s is %s" % (
            name, "missing" if name in expected else "not in BENCHMARK.json"))
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append("metric %s has no numeric value" % name)
        if entry.get("unit") != unit:
            problems.append("metric %s has unit %r, expected %r"
                            % (name, entry.get("unit"), unit))
        if not trace and isinstance(value, (int, float)) and value <= 0:
            problems.append("end-to-end metric %s is not positive" % name)
    return problems


def run(workload, seed, seconds, trace, smoke, deadline):
    """Runs the program; echoes its output; returns (exit code, problems)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--repo", ROOT, "--out", OUT]
    if smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return 1, ["timed out"]
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, validate(lines[-1], trace)


def smoke():
    deadline = time.monotonic() + RUN_TIMEOUT_S
    failures = 0
    for workload in ("large_n_saturation", "quick_sweep_cache"):
        for trace in (False, True):
            code, problems = run(workload, 1, 1, trace, True, deadline)
            for problem in problems:
                log("%s trace=%d: %s" % (workload, trace, problem))
            if code or problems:
                log("%s trace=%d: FAILED (exit %d)" % (workload, trace, code))
                failures += 1
    print("smoke: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=20250707)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.smoke:
        return smoke()
    code, problems = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), False,
                         time.monotonic() + RUN_TIMEOUT_S)
    for problem in problems:
        log(problem)
    if code == 0 and problems:
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
