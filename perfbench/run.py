#!/usr/bin/env python3
"""End-to-end benchmark of the Cyclone pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload ler_sweep --seed 1 --seconds 20 --trace 0

Workloads: ler_sweep, design_sweep, stream_serve, spool_campaign (see
perfbench/WORKLOADS.md). The first run configures and builds the library
and the benchmark binary (Release) under .bench_build/; later runs only
rebuild what changed. The binary prints one line per measurement and
check, then the JSON result line, which this script validates against
BENCHMARK.json and prints last. The exit code is non-zero when the build
fails, a correctness check fails or the result is malformed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
SOURCE = os.path.join(ROOT, "perfbench")
BINARY = os.path.join(BUILD, "cyclone_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; output goes to a log."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "cyclone_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step))


def validate(result, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are not correct/attempted/failed/metrics")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if list(result["metrics"]) != names:
        fail("result metrics differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            fail("metric %s has a bad unit or value" % m["name"])
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive whole number")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT,
               "--golden", os.path.join(SOURCE, "golden.txt")]
    # The binary forks spool workers; run it in its own process group so
    # a timeout can stop all of them.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            process_group=0)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)

    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        print(lines[-1])
        fail("run failed with exit code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result")
    validate(result, args.trace == 1)
    if not result["correct"]:
        fail("correctness checks failed")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
