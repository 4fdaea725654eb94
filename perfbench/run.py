#!/usr/bin/env python3
"""Build and run the end-to-end pipeline benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload skeleton_er --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the library from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
pipeline_bench once. Every stdout line of the driver is passed through; the
last one is the result object. The result is refused (exit 1) unless its
metric names and units are exactly those BENCHMARK.json lists for the mode:
end_to_end with --trace 0, per_layer with --trace 1. --size tiny selects the
self-test sizes. Reports and span files land in <build dir>/results.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("skeleton_er", "fib_rmat_serve", "maintain_churn_faults")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configure once, then build only the driver and what it links."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "pipeline_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(out, "pipeline_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--out", results]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if not lines:
        print("perfbench: driver printed nothing", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        print(f"perfbench: metric set differs from BENCHMARK.json: missing "
              f"{missing} extra {extra} unit mismatch {wrong}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
