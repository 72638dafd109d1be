#!/usr/bin/env python3
"""Perf-trajectory gate over BENCH_matrix.json (CI `bench-smoke` job).

Compares a freshly measured scenario matrix against the committed baseline
and exits non-zero on any regression:

* **Costs** — rounds, messages, bits, collectives, max_sent and
  max_received — are deterministic model quantities: any increase over the
  baseline for the same cell id is a hard failure, on any machine. A
  *decrease* is reported as an improvement (refresh the baseline to lock it
  in).

* **Identity** — faults, output_fp and ledger_fp — is deterministic too,
  but has no better direction: any change is a hard failure (a different
  output fingerprint is a different answer; a different fault count is a
  different chaos schedule; a different ledger fingerprint is a different
  per-collective account of the run, even when the totals agree). A row
  without a field (a baseline written before it existed) skips it.

* **Wall-clock** is machine-shaped, so the default mode (`normalized`)
  first estimates the machine-speed ratio as the median of
  wall_now/wall_base over all shared cells, then fails any cell slower
  than `median * (1 + tolerance)` (default 15%). A uniformly slower
  machine passes; one cell regressing against the fleet does not.
  `--wall-mode=absolute` compares raw times (same-machine trajectories,
  e.g. tools/refresh_bench.sh users); `--wall-mode=off` disables the gate.
  Cells whose baseline time is under `--wall-min-ms` (default 2 ms) are
  excluded from the wall gate — sub-millisecond timings cannot support a
  15% bound — but their deterministic fields still gate exactly.

Cells present only in the baseline are reported but do not fail (CI runs
the smoke manifest, a subset of the default grid); cells present only in
the current run are new scenarios awaiting a baseline refresh.

With `--service` the gate reads BENCH_service.json (bench_service: the
ccqd daemon bench) instead, keyed by (mode, clients). Throughput
(jobs_per_sec) and tail latency (p99_ms) are machine-shaped, so both are
normalized to the median current/baseline ratio across configs — a config
falling behind the fleet by more than `--service-tolerance` fails, a
uniformly slower machine does not. The warm-over-cold invariant (warm
jobs/sec strictly above cold at every shared client count) is checked
within the *current* run, unnormalized: it is the service's reason to
exist, not a machine artifact.

`--selftest` exercises the gate against synthetic fixtures — including the
"baseline round count hand-lowered" case — and exits non-zero if the gate
fails to fire. No dependencies beyond the standard library.
"""

# Deterministic cell fields: costs may only fall, identities never change.
COST_FIELDS = ("rounds", "messages", "bits", "collectives", "max_sent",
               "max_received")
IDENTITY_FIELDS = ("faults", "output_fp", "ledger_fp")

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def read_rows(path):
    """A BENCH_*.json file's top-level array."""
    try:
        rows = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"check_trajectory: cannot read {path}: {e}")
    if not isinstance(rows, list):
        sys.exit(f"check_trajectory: {path}: expected a JSON array")
    return rows


def load_cells(path):
    """Parse a BENCH_matrix.json array into {cell_id: row}."""
    rows = read_rows(path)
    cells = {}
    for row in rows:
        cid = row.get("cell")
        if cid is None:
            continue  # non-cell rows (e.g. appended phase tables)
        if cid in cells:
            sys.exit(f"check_trajectory: {path}: duplicate cell id '{cid}'")
        cells[cid] = row
    if not cells:
        sys.exit(f"check_trajectory: {path}: no cell rows found")
    return cells


def median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def compare(baseline, current, wall_mode, tolerance, wall_min_ms=0.0):
    """Returns (failures, notes): lists of diagnostic strings."""
    failures, notes = [], []
    shared = [cid for cid in current if cid in baseline]
    only_base = [cid for cid in baseline if cid not in current]
    only_cur = [cid for cid in current if cid not in baseline]
    if only_base:
        notes.append(
            f"{len(only_base)} baseline cell(s) not in this run "
            f"(a subset run?): {', '.join(sorted(only_base)[:3])}"
            f"{', ...' if len(only_base) > 3 else ''}")
    if only_cur:
        notes.append(
            f"{len(only_cur)} new cell(s) with no baseline yet "
            f"(run tools/refresh_bench.sh to pin them): "
            f"{', '.join(sorted(only_cur)[:3])}"
            f"{', ...' if len(only_cur) > 3 else ''}")
    if not shared:
        failures.append("no cells in common with the baseline — the gate "
                        "cannot certify anything")
        return failures, notes

    # Deterministic quantities: exact, machine-independent.
    for cid in shared:
        base, cur = baseline[cid], current[cid]
        for field in COST_FIELDS:
            b, c = base.get(field), cur.get(field)
            if b is None or c is None:
                continue
            if c > b:
                failures.append(
                    f"{cid}: {field} regressed {b} -> {c}")
            elif c < b:
                notes.append(
                    f"{cid}: {field} improved {b} -> {c} "
                    f"(refresh the baseline to lock it in)")
        for field in IDENTITY_FIELDS:
            b, c = base.get(field), cur.get(field)
            if b is not None and c is not None and b != c:
                failures.append(f"{cid}: {field} changed {b} -> {c}")

    # Wall clock: machine-shaped, gate per --wall-mode.
    if wall_mode != "off":
        ratios = {}
        skipped = 0
        for cid in shared:
            b = baseline[cid].get("wall_ms")
            c = current[cid].get("wall_ms")
            if b is None or c is None or b <= 0:
                continue
            if b < wall_min_ms:
                skipped += 1  # below the noise floor: rounds still gate it
                continue
            ratios[cid] = c / b
        if skipped:
            notes.append(f"{skipped} cell(s) under the {wall_min_ms:g} ms "
                         f"noise floor excluded from the wall gate")
        if ratios:
            scale = median(ratios.values()) if wall_mode == "normalized" else 1.0
            bound = scale * (1 + tolerance)
            for cid, r in sorted(ratios.items()):
                if r > bound:
                    failures.append(
                        f"{cid}: wall-clock regressed "
                        f"{baseline[cid]['wall_ms']:.2f} ms -> "
                        f"{current[cid]['wall_ms']:.2f} ms "
                        f"(x{r:.2f} vs allowed x{bound:.2f}, "
                        f"machine scale x{scale:.2f})")
    return failures, notes


def load_service(path):
    """Parse a BENCH_service.json array into {"mode/clients=N": row}."""
    rows = read_rows(path)
    configs = {}
    for row in rows:
        mode, clients = row.get("mode"), row.get("clients")
        if mode is None or clients is None:
            continue
        key = f"{mode}/clients={clients}"
        if key in configs:
            sys.exit(f"check_trajectory: {path}: duplicate config '{key}'")
        configs[key] = row
    if not configs:
        sys.exit(f"check_trajectory: {path}: no service config rows found")
    return configs


def compare_service(baseline, current, tolerance):
    """Service gate: (failures, notes) over BENCH_service.json configs."""
    failures, notes = [], []
    shared = [k for k in current if k in baseline]
    only_base = [k for k in baseline if k not in current]
    only_cur = [k for k in current if k not in baseline]
    if only_base:
        notes.append(f"{len(only_base)} baseline config(s) not in this run: "
                     f"{', '.join(sorted(only_base))}")
    if only_cur:
        notes.append(f"{len(only_cur)} new config(s) with no baseline yet: "
                     f"{', '.join(sorted(only_cur))}")

    # Warm-over-cold: checked within the current run, per client count.
    # This is the acceptance invariant — the warm engine cache must buy
    # actual throughput — so it holds on any machine, unnormalized.
    clients_seen = sorted({row["clients"] for row in current.values()})
    for n in clients_seen:
        warm = current.get(f"warm/clients={n}")
        cold = current.get(f"cold/clients={n}")
        if warm is None or cold is None:
            continue
        w, c = warm.get("jobs_per_sec", 0), cold.get("jobs_per_sec", 0)
        if not w > c:
            failures.append(
                f"warm/clients={n}: warm throughput {w:.1f} jobs/sec not "
                f"above cold {c:.1f} — the engine cache buys nothing")

    # Rejected-then-hung detector: the bench answers every job or fails
    # itself, so a nonzero error count in a committed/current file is a
    # hard failure, not a perf matter.
    for key, row in sorted(current.items()):
        if row.get("errors", 0):
            failures.append(f"{key}: {row['errors']} unanswered/errored "
                            f"job(s) in a bench run")

    if not shared:
        if baseline:
            failures.append("no service configs in common with the baseline")
        return failures, notes

    # Throughput: normalized to the median machine-speed ratio, like the
    # matrix wall gate. Falling behind the fleet fails; a slow machine
    # does not.
    ratios = {}
    for key in shared:
        b = baseline[key].get("jobs_per_sec")
        c = current[key].get("jobs_per_sec")
        if b and c and b > 0:
            ratios[key] = c / b
    if ratios:
        scale = median(ratios.values())
        floor = scale * (1 - tolerance)
        for key, r in sorted(ratios.items()):
            if r < floor:
                failures.append(
                    f"{key}: jobs/sec regressed "
                    f"{baseline[key]['jobs_per_sec']:.1f} -> "
                    f"{current[key]['jobs_per_sec']:.1f} "
                    f"(x{r:.2f} vs allowed x{floor:.2f}, "
                    f"machine scale x{scale:.2f})")

    # p99 latency: same normalization, upper-bounded. p99 over a short
    # closed loop is the noisiest statistic here, so it shares the
    # (generous) service tolerance rather than the matrix wall tolerance.
    ratios = {}
    for key in shared:
        b = baseline[key].get("p99_ms")
        c = current[key].get("p99_ms")
        if b and c and b > 0:
            ratios[key] = c / b
    if ratios:
        scale = median(ratios.values())
        bound = scale * (1 + tolerance)
        for key, r in sorted(ratios.items()):
            if r > bound:
                failures.append(
                    f"{key}: p99 latency regressed "
                    f"{baseline[key]['p99_ms']:.3f} ms -> "
                    f"{current[key]['p99_ms']:.3f} ms "
                    f"(x{r:.2f} vs allowed x{bound:.2f}, "
                    f"machine scale x{scale:.2f})")
    return failures, notes


def run_service_gate(args):
    baseline = load_service(args.baseline)
    current = load_service(args.current)
    failures, notes = compare_service(baseline, current,
                                      args.service_tolerance)
    for n in notes:
        print(f"note: {n}")
    for f in failures:
        print(f"FAIL: {f}")
    shared = len([k for k in current if k in baseline])
    if failures:
        print(f"\ncheck_trajectory: {len(failures)} service regression(s) "
              f"across {shared} shared config(s)", file=sys.stderr)
        return 1
    print(f"check_trajectory: OK ({shared} service config(s) within "
          f"trajectory, warm > cold holds)")
    return 0


def run_gate(args):
    baseline = load_cells(args.baseline)
    current = load_cells(args.current)
    failures, notes = compare(baseline, current, args.wall_mode,
                              args.wall_tolerance, args.wall_min_ms)
    for n in notes:
        print(f"note: {n}")
    for f in failures:
        print(f"FAIL: {f}")
    shared = len([c for c in current if c in baseline])
    if failures:
        print(f"\ncheck_trajectory: {len(failures)} regression(s) across "
              f"{shared} shared cell(s)", file=sys.stderr)
        return 1
    print(f"check_trajectory: OK ({shared} cell(s) within trajectory)")
    return 0


def selftest():
    """The gate must fire on synthetic regressions and stay quiet on noise."""
    def cell(cid, rounds, wall):
        return {"cell": cid, "rounds": rounds, "messages": rounds * 10,
                "bits": rounds * 100, "collectives": 2, "max_sent": 7,
                "max_received": 7, "faults": 0,
                "output_fp": "00000000000000aa",
                "ledger_fp": "00000000000000bb", "wall_ms": wall}

    base = {r["cell"]: r for r in
            [cell("a/x/n=64", 8, 1.0), cell("b/x/n=64", 12, 2.0),
             cell("c/x/n=64", 3, 4.0)]}
    same = {cid: dict(row) for cid, row in base.items()}

    checks = []

    f, _ = compare(base, same, "normalized", 0.15)
    checks.append(("identical runs pass", not f))

    # The acceptance demonstration: hand-lower a baseline round count and
    # the gate must fail (the current run now "regresses" above it).
    lowered = {cid: dict(row) for cid, row in base.items()}
    lowered["b/x/n=64"]["rounds"] = 11
    f, _ = compare(lowered, same, "off", 0.15)
    checks.append(("hand-lowered baseline rounds fail", any(
        "rounds regressed 11 -> 12" in x for x in f)))

    worse = {cid: dict(row) for cid, row in same.items()}
    worse["a/x/n=64"]["rounds"] = 9
    f, _ = compare(base, worse, "off", 0.15)
    checks.append(("round regression fails", any(
        "rounds regressed 8 -> 9" in x for x in f)))

    # Every deterministic field gates, not only the paper's three meters.
    raised = {cid: dict(row) for cid, row in same.items()}
    raised["b/x/n=64"]["max_received"] = 8
    f, _ = compare(base, raised, "off", 0.15)
    checks.append(("raised max_received fails", any(
        "max_received regressed 7 -> 8" in x for x in f)))

    fp = {cid: dict(row) for cid, row in same.items()}
    fp["c/x/n=64"]["output_fp"] = "00000000000000ab"
    f, _ = compare(base, fp, "off", 0.15)
    checks.append(("changed output_fp fails", any(
        "c/x/n=64: output_fp changed" in x for x in f)))

    # A renamed span moves no meter and no output, only the ledger.
    ledger = {cid: dict(row) for cid, row in same.items()}
    ledger["b/x/n=64"]["ledger_fp"] = "00000000000000bc"
    f, _ = compare(base, ledger, "off", 0.15)
    checks.append(("changed ledger_fp fails", any(
        "b/x/n=64: ledger_fp changed" in x for x in f)))

    # A fault count has no better direction: fewer faults fail too.
    faults = {cid: dict(row) for cid, row in base.items()}
    faults["a/x/n=64"]["faults"] = 3
    f, _ = compare(faults, same, "off", 0.15)
    checks.append(("changed fault count fails", any(
        "a/x/n=64: faults changed 3 -> 0" in x for x in f)))

    # Uniformly 3x slower machine: normalized mode passes, absolute fails.
    slow = {cid: dict(row, wall_ms=row["wall_ms"] * 3) for cid, row
            in same.items()}
    f, _ = compare(base, slow, "normalized", 0.15)
    checks.append(("uniform slowdown passes normalized", not f))
    f, _ = compare(base, slow, "absolute", 0.15)
    checks.append(("uniform slowdown fails absolute", len(f) == 3))

    # One cell 2x slower than the fleet: normalized mode catches it.
    skew = {cid: dict(row) for cid, row in same.items()}
    skew["c/x/n=64"]["wall_ms"] *= 2
    f, _ = compare(base, skew, "normalized", 0.15)
    checks.append(("single-cell wall regression fails normalized", any(
        "c/x/n=64: wall-clock regressed" in x for x in f)))

    # Noise floor: a sub-floor cell's wall jitter is ignored, but its
    # rounds still gate exactly.
    jitter = {cid: dict(row) for cid, row in same.items()}
    jitter["a/x/n=64"]["wall_ms"] *= 2  # baseline 1.0 ms < 2 ms floor
    f, notes = compare(base, jitter, "normalized", 0.15, wall_min_ms=2.0)
    checks.append(("sub-floor wall jitter ignored",
                   not f and any("noise floor" in n for n in notes)))
    jitter["a/x/n=64"]["rounds"] = 9
    f, _ = compare(base, jitter, "normalized", 0.15, wall_min_ms=2.0)
    checks.append(("sub-floor cell rounds still gate", any(
        "rounds regressed 8 -> 9" in x for x in f)))

    # Subset run (smoke manifest): missing baseline cells are a note only.
    subset = {"a/x/n=64": dict(base["a/x/n=64"])}
    f, notes = compare(base, subset, "normalized", 0.15)
    checks.append(("subset run passes with a note",
                   not f and any("not in this run" in n for n in notes)))

    # --- service gate fixtures (BENCH_service.json shape) ---
    def svc(mode, clients, jps, p99):
        return {"mode": mode, "clients": clients, "jobs_per_sec": jps,
                "p99_ms": p99, "errors": 0}

    sbase = {f"{r['mode']}/clients={r['clients']}": r for r in [
        svc("cold", 1, 100.0, 12.0), svc("cold", 8, 150.0, 60.0),
        svc("warm", 1, 300.0, 4.0), svc("warm", 8, 450.0, 20.0)]}
    ssame = {k: dict(row) for k, row in sbase.items()}

    f, _ = compare_service(sbase, ssame, 0.40)
    checks.append(("identical service runs pass", not f))

    # Uniformly half-speed machine: normalized gate stays quiet.
    shalf = {k: dict(row, jobs_per_sec=row["jobs_per_sec"] / 2,
                     p99_ms=row["p99_ms"] * 2) for k, row in ssame.items()}
    f, _ = compare_service(sbase, shalf, 0.40)
    checks.append(("uniform service slowdown passes", not f))

    # One config falling behind the fleet: throughput gate fires.
    sdrop = {k: dict(row) for k, row in ssame.items()}
    sdrop["warm/clients=8"]["jobs_per_sec"] = 200.0
    f, _ = compare_service(sbase, sdrop, 0.40)
    checks.append(("single-config jobs/sec drop fails", any(
        "warm/clients=8: jobs/sec regressed" in x for x in f)))

    # One config's tail latency blowing up: p99 gate fires.
    stail = {k: dict(row) for k, row in ssame.items()}
    stail["cold/clients=8"]["p99_ms"] = 300.0
    f, _ = compare_service(sbase, stail, 0.40)
    checks.append(("single-config p99 blowup fails", any(
        "cold/clients=8: p99 latency regressed" in x for x in f)))

    # Warm no faster than cold in the current run: invariant fires even
    # if the baseline had the same (broken) shape.
    sflat = {k: dict(row) for k, row in ssame.items()}
    sflat["warm/clients=8"]["jobs_per_sec"] = sflat["cold/clients=8"][
        "jobs_per_sec"]
    f, _ = compare_service(sflat, sflat, 0.40)
    checks.append(("warm <= cold fails", any(
        "not above cold" in x for x in f)))

    # Errored jobs in a bench run are a hard failure, not noise.
    serr = {k: dict(row) for k, row in ssame.items()}
    serr["warm/clients=1"]["errors"] = 2
    f, _ = compare_service(sbase, serr, 0.40)
    checks.append(("errored service jobs fail", any(
        "unanswered/errored" in x for x in f)))

    ok = True
    for name, passed in checks:
        print(f"  selftest: {'ok' if passed else 'FAILED'} — {name}")
        ok &= passed
    print(f"check_trajectory --selftest: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default=str(REPO / "BENCH_matrix.json"),
                    help="committed baseline (default: repo BENCH_matrix.json)")
    ap.add_argument("--current", default="BENCH_matrix.current.json",
                    help="freshly measured matrix to gate")
    ap.add_argument("--wall-tolerance", type=float, default=0.15,
                    help="allowed wall-clock slack (default 0.15 = 15%%)")
    ap.add_argument("--wall-mode", choices=("normalized", "absolute", "off"),
                    default="normalized",
                    help="wall gate: normalized to the median machine-speed "
                         "ratio (default), absolute, or off")
    ap.add_argument("--wall-min-ms", type=float, default=2.0,
                    help="exclude cells whose baseline wall time is below "
                         "this floor from the wall gate (default 2 ms)")
    ap.add_argument("--service", action="store_true",
                    help="gate BENCH_service.json (ccqd daemon bench) "
                         "instead of the scenario matrix")
    ap.add_argument("--service-tolerance", type=float, default=0.40,
                    help="allowed normalized jobs/sec + p99 slack for "
                         "--service (default 0.40 = 40%%)")
    ap.add_argument("--selftest", action="store_true",
                    help="verify the gate fires on synthetic regressions")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.service:
        return run_service_gate(args)
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main())
