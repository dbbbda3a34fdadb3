#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload cold_scan --seed 1 --seconds 20 --trace 0

The harness is configured and built under .bench_build/perfbench on first
use (later runs only re-check the build). With --trace 1 the span dump is
written to .bench_build/spans/<workload>-<seed>.tsv. The last line of
standard output is the harness's JSON result; the command exits non-zero,
without a result line, when the build fails or the harness produces no
valid result.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Runs cmd to completion; on timeout the child is killed and reaped."""
    with subprocess.Popen(cmd, **kw) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench_harness"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            return False
    return os.path.exists(HARNESS)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isfile(os.path.join(ROOT, "bench", "bench_util.h"))):
        print("no library sources next to perfbench/; nothing to build",
              file=sys.stderr)
        return 2
    if not build():
        print("harness build failed", file=sys.stderr)
        return 2

    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        span_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(span_dir, exist_ok=True)
        cmd += ["--span-dump",
                os.path.join(span_dir, f"{args.workload}-{args.seed}.tsv")]
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True,
                    cwd=ROOT)
    lines = out.rstrip("\n").split("\n") if out else []
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        valid = False
    if not valid:
        sys.stdout.write(out or "")
        print("harness produced no result line", file=sys.stderr)
        return code or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
