#!/usr/bin/env python3
"""Build the emusim host benchmark from source, then run one workload.

    python3 hostbench/run.py --workload emu_chase_1024|xeon_chase|irregular_rw
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run it from the repository root.  The library and the hostbench binary are
built with CMake into .bench_build/hostbench (the repository's default
RelWithDebInfo build type); build output goes to stderr, so the last line of
stdout is the binary's JSON result.  With --trace 1 the span trace is
written to .bench_build/hostbench/traces/<workload>-seed<N>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
WORKLOADS = ("emu_chase_1024", "xeon_chase", "irregular_rw")


def step(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit(f"hostbench: failed: {' '.join(cmd)}")


def build():
    """Configure and build the hostbench binary (a no-op when up to date);
    return its path."""
    step(["cmake", "-S", HERE, "-B", BUILD,
          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD, "-j", jobs, "--target", "hostbench"])
    return os.path.join(BUILD, "hostbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        sys.exit("hostbench: --seed and --seconds must be non-negative")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, cmd)


if __name__ == "__main__":
    main()
