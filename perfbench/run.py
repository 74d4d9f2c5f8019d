#!/usr/bin/env python3
"""End-to-end benchmark of the sketchd daemon.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload ingest_values --seed 1 --seconds 10 --trace 0

Builds the daemon and the load generator from source into
.bench_build/perfbench (perfbench/CMakeLists.txt, Release), then runs one
measurement and prints its result as the last line of stdout. Build
output goes to stderr. Exits non-zero, without a result line, when the
build or the run fails. See perfbench/README.md for what is measured.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("ingest_values", "merge_sketches", "query_ranges")
BUILD_TIMEOUT_S = 840
# A run may take this long beyond --seconds (set-ups, restarts, checks,
# the traced replay); the generator's own watchdog fires 10 s earlier.
RUN_ALLOWANCE_S = 160


def build():
    """Configures (once) and builds; returns the load generator's path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return (os.path.join(BUILD_DIR, "sketchd_loadgen"),
            os.path.join(BUILD_DIR, "libperfbench_nosync.so"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        loadgen, nosync = build()
    except (subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [loadgen, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(BUILD_ROOT, "perfbench-work")]
    try:
        # fsync returns at once in the generator and the daemon, as on
        # tmpfs (loadgen/nosync.cc explains why).
        env = dict(os.environ, LD_PRELOAD=nosync)
        run = subprocess.run(command, cwd=ROOT, env=env,
                             timeout=args.seconds + RUN_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
