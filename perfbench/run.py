#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale tiny]

Run from the repository root.  The first call configures and builds the
perfbench binary (the library from src/ plus the sources in perfbench/cpp)
into .bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench when that
is set; later calls rebuild incrementally.  Build output goes to stderr.
The binary's stdout passes through unchanged: its last line is the JSON
result.  Trace and count-digest files land in <build dir>/out.  See
perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Exit deadlines: a run that has to build may take 900 s, any other 180 s.
BUILD_RUN_DEADLINE_S = 880
RUN_DEADLINE_S = 175


def build(build_dir):
    """Configure (first time) and build the binary; return True if a fresh
    configure happened."""
    fresh = not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    if fresh:
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(os.cpu_count() or 4)],
        stdout=sys.stderr, check=True)
    return fresh


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    start = time.monotonic()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        fresh = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    deadline = BUILD_RUN_DEADLINE_S if fresh else RUN_DEADLINE_S
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--out-dir", out_dir]
    try:
        return subprocess.run(
            cmd, timeout=max(1.0, deadline - (time.monotonic() - start))
        ).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its deadline", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
