#!/usr/bin/env python3
"""Builds the repository benchmark in Release and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload paper_noisy_churn --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench under the repository root and is
reused by later runs. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit code is the benchmark's,
or 1 when the build fails (for example when the library sources under
src/ are missing).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD, "-j4"]):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(1)


def main():
    args = sys.argv[1:]
    build()
    if args == ["--selftest"]:
        program = [os.path.join(BUILD, "perfbench_selftest")]
    else:
        program = [os.path.join(BUILD, "perfbench")] + args
    sys.exit(subprocess.run(program, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
