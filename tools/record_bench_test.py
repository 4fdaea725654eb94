#!/usr/bin/env python3
"""Contract test of tools/record_bench.py, run on a sandbox copy.

Usage: python3 tools/record_bench_test.py

Copies the recorder and BENCHMARK.json into a temporary checkout, so the
committed BENCH_pipeline.json is never touched, then feeds it synthetic
perfbench output: two full runs must append two records (one per line,
commit null outside git), and a run with one metric deleted, a unit changed,
--size tiny, no cpu_cores or no identity block must exit 1 and leave the
file byte-identical. Exit code 0 when all hold, 1 otherwise.
"""
import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_lines(spec, trace=0):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    report = {"workload": "skeleton_er", "seed": 1, "size": "full",
              "trace": trace, "cpu_cores": 4,
              "identity": {"instance_seed": 32, "build_trace_digest": "1",
                           "index_digest": "2", "query_checksum": "3",
                           "maintain_trace_digest": "4"},
              "attempted": 1, "failed": 0, "error_rate": 0,
              "metrics": metrics}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": copy.deepcopy(metrics)}
    return {"report": report}, result


def record(box, report, result):
    text = json.dumps(report) + "\n" + json.dumps(result) + "\n"
    return subprocess.run(
        [sys.executable, os.path.join(box, "tools", "record_bench.py")],
        input=text, text=True, stderr=subprocess.PIPE).returncode


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    box = tempfile.mkdtemp(prefix="record_bench_test.")
    try:
        os.makedirs(os.path.join(box, "tools"))
        shutil.copy(os.path.join(ROOT, "tools", "record_bench.py"),
                    os.path.join(box, "tools"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), box)
        out = os.path.join(box, "BENCH_pipeline.json")

        for trace in (0, 1):
            if record(box, *run_lines(spec, trace)) != 0:
                errors.append(f"a full --trace {trace} run was refused")
        with open(out) as f:
            text = f.read()
        records = json.loads(text)
        if len(records) != 2 or len(text.splitlines()) != 4:
            errors.append(f"want 2 records one per line, got:\n{text}")
        for r in records:
            if (r["commit"] is not None or r["dirty"] is not None
                    or len(r["src_sha256"]) != 64 or r["correct"] is not True):
                errors.append(f"bad provenance {r}")

        def drop_metric(rep, res):
            name = spec["end_to_end"][0]["name"]
            del rep["report"]["metrics"][name]
            del res["metrics"][name]

        def change_unit(rep, res):
            rep["report"]["metrics"]["qps"]["unit"] = "1/s"

        def tiny(rep, res):
            rep["report"]["size"] = "tiny"

        def no_cores(rep, res):
            del rep["report"]["cpu_cores"]

        def no_identity(rep, res):
            del rep["report"]["identity"]

        for mutate in (drop_metric, change_unit, tiny, no_cores, no_identity):
            rep, res = run_lines(spec)
            mutate(rep, res)
            rc = record(box, rep, res)
            with open(out) as f:
                after = f.read()
            if rc != 1 or after != text:
                errors.append(f"{mutate.__name__}: exit {rc}, file "
                              f"{'unchanged' if after == text else 'changed'}")
        if record(box, {"report": {}}, {}) != 1:
            errors.append("a malformed run was not refused")
    finally:
        shutil.rmtree(box)
    for e in errors:
        print(f"record_bench_test: FAIL: {e}")
    print("record_bench_test: " + ("FAIL" if errors else "OK"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
