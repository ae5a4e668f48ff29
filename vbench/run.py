#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 vbench/run.py --workload stream_hpc --seed 1 --seconds 10 --trace 0
    python3 vbench/run.py --list
    python3 vbench/run.py --selftest

The first call configures and builds the library modules and the vbench
binary (Release) into $CARGO_TARGET_DIR, or .bench_build when unset; later
calls only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Workloads, metrics and seeds
are described in vbench/METRICS.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        if args.selftest:
            tests = build(build_dir, "vbench_tests")
            return subprocess.run([tests], stdout=sys.stderr).returncode
        binary = build(build_dir, "vbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"vbench: build failed: {err}", file=sys.stderr)
        return 2

    if args.list:
        command = [binary, "--list"]
    else:
        if not args.workload:
            parser.error("--workload is required")
        command = [binary, "--workload", args.workload, "--seconds", args.seconds,
                   "--trace", args.trace]
        if args.seed is not None:
            command += ["--seed", args.seed]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"vbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
