#!/usr/bin/env python3
"""Paired perfbench A/B between two git revisions.

Exports each revision with `git archive` into its own directory under
--scratch, then runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in both checkouts for every seed (one seed = one pair) and every workload,
alternating which side goes first from pair to pair so drift in the host's
load falls on both sides alike. perfbench/run.py builds its own Release
tree inside each checkout, so the first pair also pays for two builds
(outside the measured processes).

Prints, per workload and end-to-end metric of BENCHMARK.json: each side's
median [q1, q3], the ratio head/base of the medians, how many pairs the
head won, whether the medians differ by more than the base's interquartile
range, and whether the head is worse than the metric's bound. Lines marked
NOT IDENTICAL name workloads whose rounds, bits or ops_ok_frac differ in
some pair (these are deterministic per seed). Exit status 1 when any
metric is worse than its bound, a run fails, or a deterministic metric
differs; 0 otherwise.

Usage, from the repository root:

    python3 tools/perf_ab.py --base HEAD~1 --head HEAD \\
        --scratch /tmp/perf_ab --seeds 11-20 --seconds 10 [--workloads a,b]

To measure uncommitted changes, stage them and pass the index's tree:
`git add -A && python3 tools/perf_ab.py --head $(git write-tree) ...`.
--json writes every run's parsed result for later analysis. Never edits
perfbench/ or BENCHMARK.json; the environment (CCQ_POOL_THREADS, ...) is
passed through to both sides.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# Deterministic per seed: any difference between the sides is a finding,
# not noise.
IDENTICAL = ("rounds", "bits", "ops_ok_frac")


def git(*args):
    return subprocess.run(["git", *args], cwd=REPO, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, scratch):
    """Returns a checkout of `rev` (a commit or tree), exporting it once."""
    sha = git("rev-parse", "--verify", rev + "^{tree}")
    root = scratch / sha[:12]
    done = root / ".perf_ab_exported"
    if not done.exists():
        root.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", "--format=tar", sha],
                                 cwd=REPO, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(root)], input=archive,
                       check=True)
        done.write_text(rev + "\n")
    return root


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    # Build or run failure: keep its last words for the operator.
    print("\n".join(proc.stderr.strip().splitlines()[-5:]), file=sys.stderr)
    return None


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def fmt(x):
    if x == 0:
        return "0"
    if abs(x) >= 100:
        return f"{x:.0f}"
    if abs(x) >= 10:
        return f"{x:.1f}"
    if abs(x) >= 1:
        return f"{x:.2f}"
    return f"{x:.3g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="reference revision")
    ap.add_argument("--head", required=True, help="revision under test")
    ap.add_argument("--scratch", required=True, type=Path,
                    help="directory for the exported checkouts")
    ap.add_argument("--seeds", default="1-10",
                    help="one pair per seed: '11-20' or '3,5,8'")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--workloads", default="",
                    help="comma list (default: every BENCHMARK.json workload)")
    ap.add_argument("--json", type=Path, help="write every run's result here")
    args = ap.parse_args()

    scratch = args.scratch.resolve()
    sides = {"base": export(args.base, scratch),
             "head": export(args.head, scratch)}
    spec = json.loads((sides["base"] / "BENCHMARK.json").read_text())
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    seeds = parse_seeds(args.seeds)

    # runs[workload][side] = list of per-seed results (None = failed run)
    runs = {w: {"base": [], "head": []} for w in workloads}
    for i, seed in enumerate(seeds):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for w in workloads:
            for side in order:
                r = run_one(sides[side], w, seed, args.seconds)
                runs[w][side].append(r)
                status = "failed" if r is None else "ok"
                print(f"pair {i + 1}/{len(seeds)} seed {seed} {w} {side}: "
                      f"{status}", file=sys.stderr, flush=True)

    if args.json:
        args.json.write_text(json.dumps(
            {"base": args.base, "head": args.head, "seeds": seeds,
             "seconds": args.seconds, "runs": runs}, indent=1) + "\n")

    bad = False
    print(f"base {args.base}  head {args.head}  seeds {args.seeds}  "
          f"--seconds {args.seconds}  pairs {len(seeds)}")
    print()
    print("| workload | metric | base median [q1, q3] | head median [q1, q3] "
          "| head/base | head wins | resolved | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        pairs = [(b, h) for b, h in zip(runs[w]["base"], runs[w]["head"])
                 if b is not None and h is not None]
        failed = 2 * len(seeds) - 2 * len(pairs)
        if failed:
            bad = True
            print(f"| {w} | (runs) | | | | | | {failed} runs FAILED |")
        if not pairs:
            continue
        if not all(b["correct"] and h["correct"] for b, h in pairs):
            bad = True
            print(f"| {w} | (correct) | | | | | | a run reported "
                  "correct: false |")
        for m in metrics:
            name = m["name"]
            bv = [b["metrics"][name]["value"] for b, _ in pairs]
            hv = [h["metrics"][name]["value"] for _, h in pairs]
            bq1, bmed, bq3 = quartiles(bv)
            hq1, hmed, hq3 = quartiles(hv)
            lower = m["better"] == "lower"
            wins = sum(1 for b, h in zip(bv, hv) if (h < b if lower else h > b))
            ratio = hmed / bmed if bmed else float("nan")
            resolved = abs(hmed - bmed) > (bq3 - bq1)
            worse = (hmed - bmed) if lower else (bmed - hmed)
            verdict = "ok"
            if bmed and worse / abs(bmed) > m["bound"]:
                verdict = f"WORSE than bound {m['bound']}"
                bad = True
            if name in IDENTICAL and bv != hv:
                verdict = "NOT IDENTICAL per seed"
                bad = True
            print(f"| {w} | {name} | {fmt(bmed)} [{fmt(bq1)}, {fmt(bq3)}] | "
                  f"{fmt(hmed)} [{fmt(hq1)}, {fmt(hq3)}] | {ratio:.3f} | "
                  f"{wins}/{len(pairs)} | {'yes' if resolved else 'no'} | "
                  f"{verdict} |")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
