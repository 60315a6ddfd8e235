#!/usr/bin/env python3
"""Build and run the whole-run benchmark (one workload per invocation).

    python3 perfbench/run.py --workload rack64-contended --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest      # the benchmark's arithmetic tests

Run from the repository root.  The benchmark is built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use;
later runs only re-check the build.  Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir(name):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, name)


def build(out, target, extra_flags=()):
    """Configure (once) and build `target` in `out`; exits 1 on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
                      *extra_flags])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(1)
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.selftest:
        exe = build(build_dir("perfbench-tests"), "perfbench_tests",
                    ["-DPERFBENCH_TESTS=ON"])
        sys.exit(subprocess.run([exe]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    out = build_dir("perfbench")
    exe = build(out, "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(out, "out"), "--source-root", ROOT]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
