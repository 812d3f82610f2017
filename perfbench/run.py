#!/usr/bin/env python3
"""Builds the SiMany benchmark from source and runs one workload.

    python3 perfbench/run.py --workload explore-1024 --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it gives the run context. --record FILE also appends the result and
its context to FILE as one JSON line, for perfbench/compare.py.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run must end within 180 s once built
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("SiMany sources not found: expected src/ next to perfbench/")
    cmds = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", HERE, "-B", bdir, *gen,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)])
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "simany_perfbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the result with its context to this file")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    out_dir = os.path.join(bdir, "out")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print(f"perfbench: benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    record = json.loads(lines[-1])
    context = record.pop("context")
    context["trace"] = args.trace

    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(record["metrics"]):
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(declared ^ set(record['metrics']))}", file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "a", encoding="utf-8") as f:
            f.write(json.dumps({"context": context, "result": record}) + "\n")

    print(f"run: {time.monotonic() - t0:.1f} s")
    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
