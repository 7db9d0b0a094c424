#!/usr/bin/env bash
# h2bench entry point.
#
# One run (what BENCHMARK.json's command invokes; the last stdout line is the
# result object):
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# A whole set, each run in a fresh process so peak_rss_mib is its own
# (writes benchmark/out/results.json):
#   bash benchmark/run.sh [--seed S] [--runs K] [--trace 0|1] [--seconds S] [--quick] [--pair]
# runs every workload untraced with seeds S..S+K-1 and, with --trace 1, once
# more traced with seed S. Exits non-zero if any run fails a check.
# --pair makes every run twice, into two sets interleaved run by run with
# alternating order, so that the host's drift lands on both alike (writes
# benchmark/out/results.a.json and results.b.json).
set -euo pipefail
source "$(dirname "${BASH_SOURCE[0]}")/build.sh"

seed=1 runs=1 trace=0 pair=0 workload="" extra=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --seconds) extra+=("$1" "$2"); shift 2 ;;
    --pair) pair=1; shift ;;
    --quick|--perturb) extra+=("$1"); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

one() { # workload seed trace
  local cmd=("$BIN/h2bench")
  [ "$3" = 1 ] && cmd=("$BIN/h2bench-traced")
  "${cmd[@]}" --workload "$1" --seed "$2" --trace "$3" ${extra[@]+"${extra[@]}"}
}

if [ -n "$workload" ]; then
  one "$workload" "$seed" "$trace"
  exit
fi

status=0
rm -rf benchmark/out/run_*.json benchmark/out/set_a benchmark/out/set_b
sets=(a)
[ "$pair" = 1 ] && sets=(a b)
mkdir -p "${sets[@]/#/benchmark/out/set_}"
turn=0
both() { # workload seed trace: one run per set, alternating which goes first
  local order=("${sets[@]}") s
  [ $((turn++ % 2)) = 1 ] && [ "$pair" = 1 ] && order=(b a)
  for s in "${order[@]}"; do
    one "$1" "$2" "$3" | grep -v '^{' || status=1
    mv "benchmark/out/run_$1_t$3_s$2.json" "benchmark/out/set_$s/"
  done
}
for w in stored_f64 otf_sphere_f64 sketched_cached_panel serve_tenants_mmap churn; do
  for ((k = 0; k < runs; k++)); do
    both "$w" $((seed + k)) 0
  done
  [ "$trace" = 1 ] && both "$w" "$seed" 1
done
git_rev="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "$pair" = 1 ]; then
  for s in a b; do
    "$BIN/h2bench" merge --out "benchmark/out/results.$s.json" --git "$git_rev" benchmark/out/set_$s/run_*.json
  done
else
  "$BIN/h2bench" merge --out benchmark/out/results.json --git "$git_rev" benchmark/out/set_a/run_*.json
fi
exit $status
