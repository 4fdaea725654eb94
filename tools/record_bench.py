#!/usr/bin/env python3
"""Append one perfbench run to BENCH_pipeline.json as a committed record.

Usage:

    python3 <checkout>/perfbench/run.py --workload W --seed S --seconds 30 \\
        --trace T | python3 tools/record_bench.py [<checkout>]

<checkout> is the tree that ran the benchmark; it defaults to this tool's
own. The last two stdin lines must be perfbench's report line and result
line. The tool appends {commit, dirty, src_sha256, correct, report} to
BENCH_pipeline.json at the root of its own checkout. That file is a JSON
array with one record per line, rewritten through a temp file and a rename.

- commit: HEAD of <checkout>, or null when <checkout> is not the top of a
  git work tree (a `git archive` export, say);
- dirty: whether src/, perfbench/ or BENCHMARK.json differ from that commit
  (null without git);
- src_sha256: SHA-256 over the sorted relative paths, byte lengths and bytes
  of every file under src/ and perfbench/ (minus __pycache__) and of
  BENCHMARK.json. A run recorded before its commit, or in an export, still
  names the code it measured;
- correct: the result line's verdict; report: the report line's object.

A run is refused (exit 1, file untouched) when its metric names or units
differ from the list <checkout>'s BENCHMARK.json gives for the report's
trace mode (end_to_end for --trace 0, per_layer for --trace 1), when its
size is not "full", or when cpu_cores or the identity block is missing.
"""
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IDENTITY = ("build_trace_digest", "index_digest", "query_checksum",
            "maintain_trace_digest")


def src_sha256(checkout):
    files = [os.path.join(checkout, "BENCHMARK.json")]
    for top in ("src", "perfbench"):
        for d, dirs, names in os.walk(os.path.join(checkout, top)):
            dirs[:] = [x for x in dirs if x != "__pycache__"]
            files += [os.path.join(d, n) for n in names]
    h = hashlib.sha256()
    for rel in sorted(os.path.relpath(f, checkout) for f in files):
        with open(os.path.join(checkout, rel), "rb") as f:
            data = f.read()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def git(checkout, *args):
    try:
        proc = subprocess.run(["git", "-C", checkout, *args], text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(checkout):
    """(commit, dirty) of the checkout, or (None, None) without git."""
    top = git(checkout, "rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(checkout):
        return None, None
    status = git(checkout, "status", "--porcelain", "--", "src", "perfbench",
                 "BENCHMARK.json")
    return git(checkout, "rev-parse", "HEAD"), bool(status)


def refusal(checkout, report, result):
    """Why the run may not be recorded, or None."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if report["trace"] else "end_to_end"]}
    for line, metrics in (("report", report["metrics"]),
                          ("result", result["metrics"])):
        got = {k: v["unit"] for k, v in metrics.items()}
        if got != want:
            return (f"{line} metrics differ from BENCHMARK.json: "
                    f"{sorted(set(got.items()) ^ set(want.items()))}")
    if report["size"] != "full":
        return f"size is {report['size']!r}, not 'full'"
    if not isinstance(report.get("cpu_cores"), int):
        return "cpu_cores is missing"
    if not all(k in report.get("identity", {}) for k in IDENTITY):
        return "the identity block is missing"
    return None


def main():
    checkout = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ROOT)
    out = os.path.join(ROOT, "BENCH_pipeline.json")
    try:
        lines = [l for l in sys.stdin.read().splitlines() if l.strip()]
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        correct = result["correct"]
        why = refusal(checkout, report, result)
    except (IndexError, KeyError, TypeError, AttributeError, ValueError,
            OSError) as e:
        why = f"not a perfbench report and result ({type(e).__name__}: {e})"
    if why:
        print(f"record_bench: refused: {why}", file=sys.stderr)
        return 1

    commit, dirty = provenance(checkout)
    records = []
    if os.path.exists(out):
        with open(out) as f:
            records = json.load(f)
    records.append({"commit": commit, "dirty": dirty,
                    "src_sha256": src_sha256(checkout),
                    "correct": correct, "report": report})
    tmp = out + ".tmp"
    with open(tmp, "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    os.replace(tmp, out)
    print(f"record_bench: {report['workload']} seed {report['seed']} trace "
          f"{report['trace']} -> record {len(records)} of {out}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
