#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace 0
    python3 perfbench/run.py --self-test

`--workload all` runs the four workloads one after another, each in its
own process, and prints each one's report.

Run from the root of a checkout. The benchmark is compiled from the
checkout's own sources (CMake, Release) into .bench_build/perfbench on
first use; later runs rebuild only what changed. Build output goes to
stderr, so the last line on stdout is always the benchmark's JSON result.
The last traced run's spans are written under .bench_build/results/.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RESULTS = os.path.join(BUILD_ROOT, "results")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ["sim_mega", "paper_grid", "live_process", "live_threaded"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no coupon sources (src/CMakeLists.txt) next to perfbench/; "
             "run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            fail("cmake configure failed")
    step = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if step.returncode != 0:
        fail("build failed")


def option(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def run(args):
    command = [BINARY] + args
    if "--self-test" not in args:
        command += ["--spans", os.path.join(RESULTS, "spans")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")


def main():
    args = sys.argv[1:]
    build()
    os.makedirs(RESULTS, exist_ok=True)
    if option(args, "--workload") != "all":
        sys.exit(run(args))
    i = args.index("--workload") + 1
    for workload in WORKLOADS:
        status = run(args[:i] + [workload] + args[i + 1:])
        if status != 0:
            sys.exit(status)


if __name__ == "__main__":
    main()
