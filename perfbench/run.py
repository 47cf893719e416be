#!/usr/bin/env python3
"""End-to-end service benchmark: build, then run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which builds the library
from ../src through the repository's CMakeLists.txt) into .bench_build/ on
first use, then runs the benchmark binary with the given arguments. The
binary's last stdout line is the result JSON; build output goes to stderr.
Workloads: table2_tau, sweep8, ghz_fleet, vqe_loop. Extra flags (--tiny,
--out DIR) pass through to the binary.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_e2e")


def build():
    """Configure (once) and build the benchmark; True on success."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench_e2e", "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if "--out" not in args:
        args += ["--out", os.path.join(BUILD, "out")]
    return subprocess.run([BINARY] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
