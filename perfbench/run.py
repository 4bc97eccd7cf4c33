#!/usr/bin/env python3
"""Builds and runs jinfer's session-level benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <inproc-lookahead|wire-hot|wire-churn>
                             --seed N --seconds S --trace 0|1

Run from the root of a jinfer checkout. Configures perfbench/CMakeLists.txt
(which builds the library from the checkout's own sources) into
.bench_build/perfbench, builds session_bench, runs it, and passes its
output through: the last stdout line is the result JSON object. Build
output goes to stderr. Everything it writes stays under .bench_build/.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "perfbench-run")
BINARY = os.path.join(BUILD_DIR, "session_bench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_build_step(cmd):
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    for needed in ("CMakeLists.txt", "src", os.path.join("perfbench",
                                                          "CMakeLists.txt")):
        if not os.path.exists(needed):
            fail("run from the root of a jinfer checkout (missing %s)" %
                 needed)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", BUILD_DIR, "--target",
                    "session_bench", "-j", jobs])


def commit_id():
    """The checkout's commit, when it is a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["inproc-lookahead", "wire-hot",
                                 "wire-churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--commit", commit_id()]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("session_bench exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
