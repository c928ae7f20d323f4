#!/usr/bin/env python3
"""Build and run the spothost benchmark.

    python3 perfbench/run.py --workload <fleet_month|fleet_mixed|paper_sweep> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the library from the
checkout's sources) into .bench_build/ (or $CARGO_TARGET_DIR); later runs
only rebuild what changed. Build output goes to stderr. The benchmark's
standard output is passed through; its last line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_month", "fleet_mixed", "paper_sweep")
# A run measures for --seconds and finishes the repetition in progress; the
# slowest repetition takes a few seconds, so this is a generous ceiling.
RUN_SLACK_S = 120


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds spotbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    exe = os.path.join(bdir, "spotbench")
    return exe if os.path.exists(exe) else None


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    # spotbench checks the ranges of --seed and --seconds.
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    parser.add_argument("--reference",
                        default=os.path.join(HERE, "reference.txt"),
                        help="reference result digests")
    args = parser.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--reference", args.reference]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == "1":
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(0.0, args.seconds) + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not valid_result(lines[-1]):
        sys.stdout.write(proc.stdout if proc.returncode == 0 else "")
        print(f"perfbench: benchmark failed (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
