#!/usr/bin/env python3
"""Build hbc-perfbench from this checkout's sources and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

The first call configures and builds the library plus hbc-perfbench under
.bench_build/perfbench (later calls rebuild only what changed). The program
prints progress and a metric table on stderr and, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. Build failures exit non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hbc-perfbench")
BUILD_LOG = os.path.join(BUILD_DIR, "build.log")
WORKLOADS = ("sweep", "serve", "fleet")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "hbc-perfbench",
                  "-j", jobs])
    with open(BUILD_LOG, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            if rc != 0:
                log.flush()
                with open(BUILD_LOG) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(3)
    sys.exit(rc)


if __name__ == "__main__":
    main()
