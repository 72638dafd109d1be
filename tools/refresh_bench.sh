#!/usr/bin/env bash
# Regenerate every committed perf baseline in one command.
#
# Rebuilds the Release tree and reruns each JSON-writing bench with its
# default sweep, rewriting the BENCH_*.json files at the repo root:
#
#   BENCH_kernels.json    bench_kernels     (local-compute kernels)
#   BENCH_chaos.json      bench_chaos_verifiers (soundness campaign)
#   BENCH_matrix.json     bench_matrix      (scenario matrix, default manifest)
#   BENCH_scale.json      bench_matrix      (scale manifest: routing_uniform
#                                            at n = 4096 over four team caps;
#                                            about a minute, ~9 GB resident)
#   BENCH_service.json    bench_service     (ccqd daemon, warm vs cold load)
#
# Every bench self-verifies (fatal on any result divergence), so a baseline
# refresh cannot silently bake in a correctness regression. Each bench runs
# under a guard that names the culprit and aborts on the first failure —
# a partial refresh never masquerades as a complete one. Run from anywhere;
# writes relative to the repo root.
#
# Usage: refresh_bench.sh [--only=<bench>]...
#   --only=<bench>  refresh only the named bench (repeatable; must be one of
#                   the BENCHES below — an unknown name aborts before
#                   anything is built or overwritten)
#
# After refreshing, sanity-check the new matrix baseline against itself:
#   python3 tools/check_trajectory.py --baseline BENCH_matrix.json \
#       --current BENCH_matrix.json

set -uo pipefail
cd "$(dirname "$0")/.."

BUILD=build-rel
BENCHES=(
  bench_kernels bench_chaos_verifiers bench_matrix bench_service
)

# --only=<bench> selects a subset; the selection is validated against
# BENCHES up front so a typo aborts instead of silently refreshing nothing.
ONLY=()
for arg in "$@"; do
  case "$arg" in
    --only=*)
      sel="${arg#--only=}"
      known=0
      for b in "${BENCHES[@]}"; do
        [[ "$b" == "$sel" ]] && known=1
      done
      if [[ $known -eq 0 ]]; then
        echo "refresh_bench: unknown bench '$sel' (choose from:" \
             "${BENCHES[*]})" >&2
        exit 1
      fi
      ONLY+=("$sel")
      ;;
    *)
      echo "usage: $0 [--only=<bench>]..." >&2
      exit 1
      ;;
  esac
done

# selected <name> — true when <name> should be refreshed this run.
selected() {
  [[ ${#ONLY[@]} -eq 0 ]] && return 0
  local b
  for b in "${ONLY[@]}"; do
    [[ "$b" == "$1" ]] && return 0
  done
  return 1
}

TARGETS=()
for b in "${BENCHES[@]}"; do
  selected "$b" && TARGETS+=("$b")
done

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release || {
  echo "refresh_bench: FAILED during cmake configure" >&2; exit 1; }
cmake --build "$BUILD" -j --target "${TARGETS[@]}" || {
  echo "refresh_bench: FAILED during build" >&2; exit 1; }

# Run one bench (skipping it when deselected by --only); on failure, name it
# and abort so nobody trusts a half-refreshed set of baselines.
run_bench() {
  local name=$1; shift
  selected "$name" || return 0
  echo "=== $name $*"
  if ! ./"$BUILD"/bench/"$name" "$@"; then
    echo >&2
    echo "refresh_bench: FAILED in $name — baselines are NOT fully" \
         "refreshed; fix $name before committing any BENCH_*.json" >&2
    exit 1
  fi
}

run_bench bench_kernels
run_bench bench_chaos_verifiers
run_bench bench_matrix --manifest=bench/manifests/default.json --check \
  --out=BENCH_matrix.json
run_bench bench_matrix --manifest=bench/manifests/scale.json \
  --out=BENCH_scale.json
run_bench bench_service --check --out=BENCH_service.json

echo
echo "refreshed:"
ls -l BENCH_*.json
