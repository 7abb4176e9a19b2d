#!/usr/bin/env python3
"""TPC-D suite benchmark of the ordopt engine.

Builds the engine and the benchmark from source with CMake, then runs one
workload in its own process:

    python3 tpcdbench/run.py --workload olap_hash_par4 --seed 1 \
        --seconds 10 --trace 0
    python3 tpcdbench/run.py --selftest

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/tpcdbench (default .bench_build/tpcdbench); result files,
span files and sort spill files stay under that directory. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. BENCHMARK.json lists the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("olap_hash_par4", "olap_sort_serial", "service_mixed")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "tpcdbench")


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    bdir = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        return None
    return os.path.join(bdir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("tpcdbench: no engine sources in %s/src" % ROOT,
              file=sys.stderr)
        return 1

    binary = build("tpcd_bench_selftest" if args.selftest else "tpcd_bench")
    if binary is None:
        print("tpcdbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([binary]).returncode

    out_dir = os.path.join(build_dir(), "results")
    spill_dir = os.path.join(build_dir(), "spill")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(spill_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--spill-dir", spill_dir]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
