#!/usr/bin/env python3
"""Builds and runs the kanon end-to-end benchmark.

Usage (from the repository root):

    python3 kbench/run.py --workload serve|solve|scale --seed N \
        --seconds S --trace 0|1

The first call configures and builds kbench/CMakeLists.txt (the kanon
library from src/ plus the runner) into .bench_build/; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the runner's JSON result. Exits non-zero, printing no result,
when the sources are missing or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD_DIR, "kbench_runner")
# The runner ends a run within --seconds plus set-up and one last round;
# anything beyond this is a hang.
RUNNER_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "kbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "kbench_runner",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            print("kbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    try:
        done = subprocess.run([RUNNER] + sys.argv[1:], cwd=ROOT,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("kbench: runner did not finish within %d s" % RUNNER_TIMEOUT_S,
              file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
