#!/usr/bin/env python3
"""Builds the benchmark harness if needed, then runs one workload.

    python3 zbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The harness and libzeus are built from
source into .bench_build/zbench (Release); build output goes to stderr so
the last line of stdout stays the harness's result line.  A traced run
also writes its spans to .bench_build/traces/<workload>.json (the last
traced run of each workload).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "zbench")
WORKLOADS = ("compile-scaled", "sim-ports", "fault-campaign", "serve-farm")


def build():
    """Configures and builds the harness; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no src/ tree next to zbench/; nothing to build",
              file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    if subprocess.run(["cmake", "--build", BUILD, "--target", "zeus_bench",
                       "-j", "4"], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "zeus_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, args.workload + ".json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
