#!/usr/bin/env python3
"""Builds the benchmark program (vbench) from this checkout's sources and
runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build tree is .bench_build/perfbench; the
first run configures and builds it (about a minute on 4 cores), later runs
rebuild only what changed. Every argument is passed on to vbench, which
prints its metrics as one JSON object on the last line of standard output.
Build output goes to standard error.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src/CMakeLists.txt", "tests/integration/matrix_harness.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("missing %s: run from a full checkout of the repository" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "vbench", "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout)
            fail("build step failed: " + " ".join(cmd))


def main():
    build()
    cmd = [os.path.join(ROOT, BUILD, "vbench")] + sys.argv[1:] + ["--out", BUILD]
    try:
        res = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
