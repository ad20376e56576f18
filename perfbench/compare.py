#!/usr/bin/env python3
"""Summarise or compare benchmark result files.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

A result file holds one JSON object per line, as `run.py --append FILE`
writes them. For each workload this prints, per end-to-end metric, the
median and quartiles over the plain runs and their spread (quartile
distance over median). Given a second file it adds the change of the
median, flags a metric that got worse by more than its BENCHMARK.json
bound, and lists the per-layer metrics of the traced runs whose median
moved, so a perf change can show which layer moved.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), []).append(r)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def change(base, new):
    if base == 0:
        return "   n/a" if new != 0 else " +0.0%"
    return "%+6.1f%%" % (100.0 * (new - base) / abs(base))


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    files = [load(p) for p in sys.argv[1:]]
    base = files[0]
    new = files[1] if len(files) == 2 else None
    workloads = [w["name"] for w in spec["workloads"]]
    worse = []
    for w in workloads:
        plain = base.get((w, 0), [])
        print("== %s (%d plain runs%s)" % (
            w, len(plain),
            ", %d in the second file" % len(new.get((w, 0), [])) if new else ""))
        for m in spec["end_to_end"]:
            a = values(plain, m["name"])
            if not a:
                continue
            q1, med, q3 = quartiles(a)
            line = "  %-12s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f" % (
                m["name"], m["unit"], med, q1, q3, (q3 - q1) / med if med else 0.0)
            b = values(new.get((w, 0), []), m["name"]) if new else []
            if b:
                bq1, bmed, bq3 = quartiles(b)
                line += "  ->  median %-12.6g q1 %-12.6g q3 %-12.6g %s" % (
                    bmed, bq1, bq3, change(med, bmed))
                loss = (bmed - med) if m["better"] == "lower" else (med - bmed)
                if med and loss / abs(med) > m["bound"]:
                    line += "  WORSE than bound %.2f" % m["bound"]
                    worse.append((w, m["name"]))
            print(line)
        traced = base.get((w, 1), [])
        traced_new = new.get((w, 1), []) if new else []
        if not traced:
            continue
        print("  per-layer (%d traced runs%s):" % (
            len(traced), ", %d in the second file" % len(traced_new) if new else ""))
        for m in spec["per_layer"]:
            a = values(traced, m["name"])
            if not a or not any(a):
                continue  # a layer this workload bypasses
            med = statistics.median(a)
            line = "    %-36s %-14s %-14.6g" % (m["name"], m["unit"], med)
            b = values(traced_new, m["name"])
            if b:
                bmed = statistics.median(b)
                line += " -> %-14.6g %s" % (bmed, change(med, bmed))
            print(line)
    if worse:
        print("worse than the bound: " + ", ".join("%s/%s" % p for p in worse))


if __name__ == "__main__":
    main()
