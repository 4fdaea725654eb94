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

Comparing a parent with a change:

    python3 tools/record_bench.py --compare <parent> <change>

selects the records of BENCH_pipeline.json whose src_sha256 or commit
starts with each selector (a selector must name one src_sha256). For every
workload, seed and trace mode both sides ran, it checks that all their
identity blocks are equal. For every workload's --trace 0 runs it pairs the
runs of each seed, latest with latest, and over those pairs prints each
end-to-end metric's median and interquartile range per side, the
change/parent ratio of the medians, and how many pairs the change won
(ties win for neither). "bound" is WORSE when the change's median is
worse than the parent's by more than the metric's BENCHMARK.json bound. A
gain is "yes" when at least 10 pairs ran, the change won at least 9 in 10
of them, and its median beat the parent's by more than the parent's
interquartile range. Exit 1 on any identity mismatch or incorrect run, 2 on
a selector that names no records or more than one src_sha256, or when both
name the same one.
"""
import hashlib
import json
import os
import statistics
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


def select(records, selector):
    """The records a selector names, or an error string."""
    chosen = [r for r in records
              if r["src_sha256"].startswith(selector)
              or (r["commit"] or "").startswith(selector)]
    shas = {r["src_sha256"] for r in chosen}
    if len(shas) != 1:
        return f"selector {selector!r} names {len(shas)} src_sha256 values"
    return chosen


def quartiles(xs):
    """(q1, median, q3) of a non-empty sample."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def compare(parent_sel, change_sel):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "BENCH_pipeline.json")) as f:
        records = json.load(f)
    sides = [select(records, parent_sel), select(records, change_sel)]
    for side in sides:
        if isinstance(side, str):
            print(f"record_bench: {side}", file=sys.stderr)
            return 2
    if sides[0][0]["src_sha256"] == sides[1][0]["src_sha256"]:
        print("record_bench: both selectors name the same code",
              file=sys.stderr)
        return 2

    def key(r):
        rep = r["report"]
        return rep["workload"], rep["trace"], rep["seed"]

    runs = [{}, {}]  # per side: key -> records in file order
    for side, chosen in zip(runs, sides):
        for r in chosen:
            side.setdefault(key(r), []).append(r)
    failures = 0
    for r in sides[0] + sides[1]:
        if not r["correct"]:
            print(f"INCORRECT {key(r)} src {r['src_sha256'][:12]}")
            failures += 1
    for k in sorted(set(runs[0]) & set(runs[1])):
        ids = [r["report"]["identity"] for r in runs[0][k] + runs[1][k]]
        if any(i != ids[0] for i in ids):
            print(f"IDENTITY MISMATCH {k}: " +
                  "; ".join(json.dumps(i, sort_keys=True) for i in ids))
            failures += 1

    metrics = spec["end_to_end"]
    for w in sorted({k[0] for k in set(runs[0]) & set(runs[1])}):
        seeds = sorted(k[2] for k in runs[0] if k[:2] == (w, 0)
                       and (w, 0, k[2]) in runs[1])
        pairs = [(p, c) for s in seeds
                 for p, c in zip(reversed(runs[0][(w, 0, s)]),
                                 reversed(runs[1][(w, 0, s)]))]
        if not pairs:
            continue
        print(f"{w}: {len(pairs)} pairs, seeds {seeds}")
        print(f"  {'metric':<20}{'parent':>12}{'p_iqr':>10}{'change':>12}"
              f"{'c_iqr':>10}{'ratio':>7}{'wins':>8}  bound  gain")
        for m in metrics:
            vals = [[r["report"]["metrics"][m["name"]]["value"] for r in side]
                    for side in zip(*pairs)]
            (p1, pm, p3), (c1, cm, c3) = quartiles(vals[0]), quartiles(vals[1])
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(sign * (p - c) > 0 for p, c in zip(*vals))
            worse = sign * (cm - pm) > m["bound"] * abs(pm)
            gain = (len(pairs) >= 10 and wins * 10 >= 9 * len(pairs)
                    and sign * (pm - cm) > p3 - p1)
            ratio = f"{cm / pm:.3f}" if pm else "-"
            print(f"  {m['name']:<20}{pm:>12.5g}{p3 - p1:>10.3g}{cm:>12.5g}"
                  f"{c3 - c1:>10.3g}{ratio:>7}{wins:>5}/{len(pairs):<2}  "
                  f"{'WORSE' if worse else 'ok':<5}  "
                  f"{'yes' if gain else 'no'}")
    print("record_bench: compare " +
          (f"FAIL ({failures} problems)" if failures else "OK"))
    return 1 if failures else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--compare":
        if len(sys.argv) != 4:
            print("usage: record_bench.py --compare <parent> <change>",
                  file=sys.stderr)
            return 2
        return compare(sys.argv[2], sys.argv[3])
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
