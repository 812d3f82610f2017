#!/usr/bin/env python3
"""Compares two sets of benchmark results recorded with run.py --record.

    python3 perfbench/compare.py base.jsonl new.jsonl

A result is compared only with the result of the same workload, seed and
trace setting from the other file, and only when both were measured in the
same host context (CPU count, build type, compiler, fiber backend, worker
pinning); any other difference in context is refused with exit code 2. For
each workload the end-to-end metrics are reported as the median over the
paired seeds, with the verdict under BENCHMARK.json's bound: "worse" when
the new median is worse than the base median by more than the bound,
"unresolved" when the base's own spread (interquartile range over median)
exceeds the bound and not every new run beats every base run. Per-layer
metrics are listed without a verdict. Exit code 1 if any metric is worse or
any run failed its correctness check.
"""
import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "build_type", "compiler", "fiber_backend", "host_pin_workers")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def key(rec):
    c = rec["context"]
    return (c["workload"], c["trace"], c["seed"])


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    hosts = {tuple((k, r["context"].get(k)) for k in HOST_KEYS) for r in base + new}
    if len(hosts) != 1:
        print("refused: results come from different host contexts:", file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in h), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    new_by_key = {key(r): r for r in new}
    pairs = {}
    for r in base:
        k = key(r)
        if k in new_by_key:
            pairs.setdefault(k[:2], []).append((r["result"], new_by_key[k]["result"]))
    unpaired = len(base) + len(new) - 2 * sum(len(v) for v in pairs.values())
    if unpaired:
        print(f"note: {unpaired} results have no partner with the same seed and were skipped")

    bad = False
    for (workload, trace), runs in sorted(pairs.items()):
        failed = sum(not b["correct"] or not n["correct"] for b, n in runs)
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'}, "
              f"{len(runs)} paired seeds, {failed} with failed checks)")
        bad |= failed > 0
        for name in runs[0][0]["metrics"]:
            b = [r[0]["metrics"][name]["value"] for r in runs]
            n = [r[1]["metrics"][name]["value"] for r in runs]
            unit = runs[0][0]["metrics"][name]["unit"]
            mb, mn = statistics.median(b), statistics.median(n)
            line = f"  {name:34s} {mb:14.6g} -> {mn:14.6g} {unit:6s}"
            if trace or name not in bounds:
                print(line)
                continue
            lower = bounds[name]["better"] == "lower"
            worse_by = ((mn - mb) if lower else (mb - mn)) / mb if mb else 0.0
            all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
            if worse_by > bounds[name]["bound"]:
                verdict, bad = "worse", True
            elif spread(b) > bounds[name]["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            change = mn / mb - 1 if mb else 0.0
            print(f"{line} {change:+7.1%} (bound {bounds[name]['bound']:.0%} "
                  f"{bounds[name]['better']}-is-better, base spread "
                  f"{spread(b):.1%}) {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
