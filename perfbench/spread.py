#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads skeleton_er fib_rmat_serve \
        --seeds 1 2 3 4 5 6 7 8 9 10

Runs perfbench/run.py once per (workload, seed) with BENCHMARK.json's
run_seconds and --trace 0, then prints the longest wall time of a run and,
per metric, the median and the quartile spread (Q3 - Q1) / median next to
the metric's bound. A spread above a third of its bound is flagged. Exit
code 1 if any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    ok = True
    for wl in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        walls = []
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            walls.append(time.monotonic() - t0)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print(f"== {wl} ({len(args.seeds)} seeds, longest run "
              f"{max(walls):.1f} s)")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "  <-- above bound/3" if spread > m["bound"] / 3 else ""
            print(f"  {m['name']:22s} median {med:14.6g} {m['unit']:8s} "
                  f"spread {spread:7.4f} bound {m['bound']}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
