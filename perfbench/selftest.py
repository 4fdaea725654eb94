#!/usr/bin/env python3
"""Self-test of the pipeline benchmark at tiny sizes.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through perfbench/run.py with
--size tiny, once untraced and once traced, and asserts that:
  - each run exits 0 and its last line is the result object;
  - the result names every end-to-end (untraced) or per-layer (traced)
    metric of BENCHMARK.json with its unit, and nothing else;
  - correct is true and failed is 0 (error rate 0 over `attempted` ops);
  - every end-to-end value is a positive number;
  - the report line carries cpu_cores, thread counts and the identity block.
Exit code 0 when all hold, 1 otherwise.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(spec, workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    errors = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"failed {result['failed']} of {result['attempted']}")
    if result["attempted"] < 1:
        errors.append("no attempted ops")
    defs = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in defs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        errors.append(f"metric names/units differ: {sorted(set(got) ^ set(want))}")
    for name, m in result["metrics"].items():
        v = m["value"]
        if not isinstance(v, (int, float)) or (not trace and v <= 0):
            errors.append(f"{name} = {v!r}")
    if report.get("error_rate") != 0:
        errors.append(f"report error_rate {report.get('error_rate')}")
    if report.get("cpu_cores", 0) < 1 or report["threads"]["serve"] < 1:
        errors.append("cpu_cores / thread counts missing")
    for key in ("build_trace_digest", "index_digest", "query_checksum",
                "maintain_trace_digest"):
        if key not in report.get("identity", {}):
            errors.append(f"identity lacks {key}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check_run(spec, w["name"], trace)
            status = "ok" if not errors else "FAIL: " + "; ".join(errors)
            print(f"{w['name']} trace={trace}: {status}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
