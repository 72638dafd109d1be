#!/usr/bin/env python3
"""Repository benchmark for ccq: four workloads, end-to-end and per-layer metrics.

Usage (from the root of a ccq checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the ccq libraries from src/ plus the ccq_perfbench executable,
Release) into .bench_build/perfbench, then runs the workload in its own
process, so one workload's memory high-water mark and page-cache warmth never
leak into another's. With --trace 0 the result holds the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Lines before it record the host and build settings (nproc, CCQ_POOL_THREADS,
CCQ_KERNEL_THREADS, CCQ_SIMD, detected SIMD level, build type), the failure
reasons if any, and the sample count behind every metric. The exit code is
non-zero, with no result line, when the build or the run fails.

Workloads (the reasons are in BENCHMARK.json and beside each definition in
engine.cpp / service.cpp):
    bfs-path-n256     many small collectives; scheduler, node and plane time
    apsp-dense-n512   dense 3-D (min,+) schedule; local kernels, pack/unpack
    apsp-sparse-n512  sparse schedule with its dense fallback; spgemm_auto
    ccqd-mix          ccqd daemon, 4 closed-loop clients, both caches
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec(root):
    path = root / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(build_dir):
    """Configure and build incrementally (both quick when up to date)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "ccq_perfbench",
              "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path.cwd()
    spec = load_spec(root)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = root / ".bench_build" / "perfbench"
    build(build_dir)

    # The daemon's Unix socket is created in the working directory, which
    # keeps it inside the checkout and its path short.
    cmd = [str(build_dir / "ccq_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # The op budget grows with --seconds: 120 s covers set-up, and 3 s per
    # requested second covers ops that run slower than their nominal time.
    timeout_s = 120 + 3 * args.seconds
    try:
        proc = subprocess.run(cmd, cwd=build_dir, stdout=subprocess.PIPE,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {timeout_s} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("ccq_perfbench printed no result")

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    extra = set(raw["metrics"]) - set(metrics)
    if extra:
        fail("metrics not in BENCHMARK.json: " + ", ".join(sorted(extra)))

    print("env " + json.dumps(raw["env"], sort_keys=True))
    print(f"ops attempted={raw['attempted']} succeeded={raw['succeeded']} "
          f"failed={raw['failed']}")
    for reason in raw["failures"]:
        print("failure: " + reason)
    print("samples " + json.dumps(
        {name: raw["metrics"][name]["samples"] for name in metrics}))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
