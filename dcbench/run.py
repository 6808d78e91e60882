#!/usr/bin/env python3
"""Builds the dcbench binary from source and runs one benchmark workload.

    python3 dcbench/run.py --workload drift --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/dcbench under the repository root and is
incremental after the first run. Traced runs (--trace 1) write their trace
and per-layer table to .bench_out/. The last line of stdout is the result
object; build output and logs go to stderr. Exits non-zero, without a
result, when the build or the run fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dcbench")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-G", "Unix Makefiles",
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD, "--target", "dcbench", "-j", jobs]
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [compile_]
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            steps.insert(0, configure)
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "dcbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
