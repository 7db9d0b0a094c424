#!/usr/bin/env bash
# Harness smoke, NOT a measurement: every workload at tiny n, untraced and
# traced, one second each; the numbers are discarded. It proves that the
# harness, its correctness checks and its tools run, in under 30 s once built.
set -euo pipefail
source "$(dirname "${BASH_SOURCE[0]}")/build.sh"

cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
"$BIN/h2bench" schema-check BENCHMARK.json

start=$SECONDS
for w in stored_f64 otf_sphere_f64 sketched_cached_panel serve_tenants_mmap churn; do
  "$BIN/h2bench" --workload "$w" --seconds 1 --trace 0 --quick >/dev/null
  "$BIN/h2bench-traced" --workload "$w" --seconds 1 --trace 1 --quick >/dev/null
  echo "ok $w"
done

# A perturbed result must fail the run: one flipped mantissa bit in the first
# result is caught by the bitwise cross-check.
if "$BIN/h2bench" --workload stored_f64 --seconds 1 --trace 0 --quick --perturb >/dev/null 2>&1; then
  echo "check.sh: a perturbed result was accepted" >&2
  exit 1
fi
echo "ok perturbed run rejected"

"$BIN/h2bench" compare benchmark/baselines/BENCH_11.a.json benchmark/baselines/BENCH_11.b.json
echo "H2BENCH_CHECK_OK ($((SECONDS - start)) s)"
