#!/bin/bash
# Repo gate: formatting, lints, and the full test suite. Run before
# committing; CI-equivalent for this repository. All commands are offline
# (the container has no crates.io access; every dependency is vendored).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test =="
# One run asserts each invariant once. The tests that carry each gate:
# - thread-count invariance (widths 1/2/3/8 bitwise equal; ranks stay at
#   width 1): h2-core tests/sweep.rs; `width_one` / `schedule_keeps` in
#   h2-dist (both transports); `thread_pool*` in tests/end_to_end.rs.
# - builder width invariance (operator bytes and build counters equal at
#   widths 1/2/3/8; panics cross barriers): `builder_width*` in h2-core
#   tests/sweep.rs; h2-linalg `exec`; h2-sampling `root_closure`; h2-core
#   `panicking_factor_rule`; an update sequence's operator files and
#   products at widths 1/2/3: h2-core tests/widths.rs.
# - precision (f32 / mixed vs f64): h2-core tests/precision.rs; the `f32` /
#   `mixed` / `precision` tests of h2-dist and h2-serve.
# - block table (every budget x precision x width bitwise normal, an
#   update carries clean blocks by Arc, invariant, concurrency): h2-core's
#   `cache::table` module and tests/cache.rs; the `cache` tests of h2-dist
#   and h2-serve.
# - cache residency (resident set = f(operator, budget), equal to a
#   re-budgeted clone after updates and at product widths 1/2/3/8; readers
#   beside a re-plan): `residency_is_a_function_of_operator_and_budget` in
#   h2-core tests/sweep.rs; h2-core `concurrent_readers_and_a_replanner`.
# - dynamic operator (churn ≡ fresh rebuild across kernels / precisions /
#   modes / budgets): h2-core tests/churn.rs and its `update` unit tests.
# - mmap zero copy (mapped ≡ owned decode, bitwise): the `mmap` tests of
#   h2-serve.
cargo test -q --workspace --offline

echo "== cargo test --release (the configuration that ships; bit comparisons follow the NaN rule of scalar::bits) =="
timeout 1200 cargo test -q --workspace --offline --release

echo "== multi-process serving gate (real worker processes, hard timeout) =="
# Spawns h2serve shard-worker child processes over loopback TCP; the
# timeout turns any distributed hang into a loud failure.
timeout 420 cargo test -q --offline -p h2-serve --test multiprocess -- --ignored --test-threads=1

echo "== one of each: threading mechanism (no rayon, no par_iter, one std::thread::scope under the construction crates, no per-level exec::map(level in hierarchical.rs or builders/mod.rs: a tree pass is one step of per-subtree tasks), residency policy (no admission or eviction under crates/core/src/cache, no telemetry off the caller), block index (the sorted pair lists: no HashMap in non-test crates/core/src/cache, no BlockIndex, pair_index, index_bytes or block_indices under crates or src), block fetch (two tiers: no Fetched::Cached, no RwLock under crates/core/src, no cache argument to Sweep::new), instrument and JSON path (no criterion, no [[bench]], no serde but serde_json, no h2-sketch), SIMD dispatch (is_x86_feature_detected! only in simd.rs, six unsafe dispatches: _avx2( in panel.rs, radial.rs, qr.rs and strategies.rs, _avx512( in radial.rs and strategies.rs, none in sweep.rs, no arch intrinsics), construction kernels (the anchor-net scan calls no dist2( and has no first_min, qr.rs applies reflectors only in its trailing update; block plans write one slab: no materialize_block under crates/core/src), kernel math (radial.rs calls .exp() and divides by .sqrt() only inside the shared exp and rsqrt), block apply per direction (sweep.rs reaches h2_linalg::panel only through matmat_acc, matmat_t_acc and matmat_bi_acc; panel.rs's apply_baseline calls transposed( before forward(), sampling rule and sketch ensemble (no Sampler trait, no SketchKind, no SRHT), arithmetic class (no dot_apply, no Fetched::Generated, no kernel_matrix_s or coupling_block_s), build configuration (no [features] table), RNG and case loop (vendor/ is exactly serde_json, no manifest names rand or proptest, no proptest macros, ChaCha only in h2-points' gen.rs), dependency edge (every [dependencies] and [dev-dependencies] entry named by its crate's src/ or tests/), socket transport (no readiness pump, set_nonblocking only on the two listeners), workspace (12 members of which 9 hold code, shells that re-export only names h2bench uses, the h2bench-only names in compat modules, leaf_basis(, .transfer(, BlockCache and the block stores among them, no h2-solvers, no proxy-surface builder, CG the one solver), precision dispatch (no precision.rs, AnyH2, MixedH2 or h2_core::Precision), span record (no RemoteSpan, FlightEntry, struct SpanReport, diagnostics::counters or counters::scope), h2serve shape (one stored_scalar read, exit only in usage and main, no expect/unwrap/assert/panic, no codec::encode/decode or fs::read of a whole file), bench binary and result (paper the one bench binary, each result named by run_harness.sh or check.sh), paper driver (one run_config runner and the one H2Matrix::build under crates/bench/src), basis storage (basis.rs has no COEF, with_coef or in_place; codec.rs and parts.rs name no expand_col, from_dense or Held::Basis) =="
# Non-test code only: a file's unit tests start at its `#[cfg(test)]` line.
non_test() { awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t { print FILENAME ":" $0 }' "$@"; }
if grep -rn "par_iter" crates/*/src src; then echo "par_iter is back"; exit 1; fi
[ ! -e vendor/rayon ] || { echo "vendor/rayon is back"; exit 1; }
if grep -n "rayon" Cargo.toml crates/*/Cargo.toml Cargo.lock; then echo "a manifest names rayon"; exit 1; fi
SCOPES=$(non_test $(find crates/linalg/src crates/sampling/src crates/core/src -name '*.rs') \
  | grep -c "std::thread::scope(" || true)
[ "$SCOPES" = 1 ] || { echo "expected one std::thread::scope site, found $SCOPES"; exit 1; }
# (grep without -q reads to the end: an early exit would SIGPIPE awk under pipefail)
non_test crates/linalg/src/exec.rs | grep "std::thread::scope(" > /dev/null
if grep -n "exec::map(level" crates/sampling/src/hierarchical.rs crates/core/src/builders/mod.rs; then
  echo "a tree pass steps the executor once per level (cut the node set into subtrees instead)"; exit 1
fi
if grep -rnwE "last_use|make_room|try_reserve|with_shards|freq" crates/core/src/cache; then echo "the dynamic cache is back"; exit 1; fi
if grep -nE "counter_add!|span\(" crates/core/src/cache/table.rs; then echo "the block table records telemetry on helper threads"; exit 1; fi
# The sorted pair lists are the block index: a slot is its pair's list
# position, found by binary search, so the table keeps no map of its own.
if non_test $(find crates/core/src/cache -name '*.rs') | grep -w "HashMap"; then
  echo "a hash index is back in the block table (a slot is the pair's list position)"; exit 1
fi
if grep -rnwE "BlockIndex|pair_index|index_bytes|block_indices" crates src; then
  echo "a second pair index is back (the sorted pair lists are the index)"; exit 1
fi
# The fetch has two tiers: the slot the plan filled, or the block
# materialized into scratch. No third (cached) tier, no lock a product
# takes to read a block, and the sweeps read the operator's own table.
if grep -rnE "Fetched::Cached|RwLock" crates/core/src; then echo "a second block tier or a lock on the fetch is back"; exit 1; fi
SWEEP_NEW=$(awk '/^#\[cfg\(test\)\]/ { exit } /pub fn new\(/ { f = 1 } f { print } f && /\{$/ { exit }' crates/core/src/sweep.rs)
if [ -z "$SWEEP_NEW" ] || grep -n "cache" <<< "$SWEEP_NEW" \
  || grep -rnE "Sweep(::<[^>]*>)?::new\([^)]*cache" crates src tests examples; then
  echo "Sweep::new takes a cache (the sweeps read the operator's table)"; exit 1
fi
MANIFESTS="Cargo.toml Cargo.lock crates/*/Cargo.toml vendor/*/Cargo.toml"
if grep -nE 'criterion|h2-sketch|h2-solvers|\[\[bench\]\]|serde([^_]|_derive|$)' $MANIFESTS; then
  echo "a manifest names criterion, a [[bench]], h2-sketch, h2-solvers, or a serde other than serde_json"; exit 1
fi
# The workspace keeps what the paper uses: 9 crates that hold code, two bases
# (data-driven and interpolation) plus the sketched rule, and one solver, the
# facade's cg. h2-cache, h2-tenant and h2-net are shells that
# benchmark/Cargo.toml names by path: `pub use` lines and doc comments only,
# and no manifest of the workspace depends on them.
CRATES=$(ls crates/*/Cargo.toml | wc -l)
MEMBERS=$(grep -c '^    "crates/' Cargo.toml)
[ "$CRATES" = 12 ] && [ "$MEMBERS" = 12 ] || { echo "expected 12 workspace crates: $CRATES dirs, $MEMBERS members"; exit 1; }
SHELLS="crates/cache crates/tenant crates/net"
for shell in $SHELLS; do
  [ "$(ls "$shell" | tr '\n' ' ')" = "Cargo.toml src " ] && [ "$(ls "$shell/src")" = lib.rs ] \
    || { echo "$shell must hold only Cargo.toml and src/lib.rs"; exit 1; }
  REST=$(grep -v '^//!' "$shell/src/lib.rs" | tr '\n' ' ' | sed -E 's/pub use [^;]*;//g' | tr -d '[:space:]')
  [ -z "$REST" ] || { echo "$shell/src/lib.rs holds more than pub use lines and doc comments: $REST"; exit 1; }
done
# A shell re-exports only names h2bench uses: each is named under benchmark/src.
for shell in $SHELLS; do
  NAMES=$(grep -v '^//!' "$shell/src/lib.rs" | tr '\n' ' ' | tr ';' '\n' \
    | sed -nE 's/^ *pub use [^{]*::\{?([^}]*)\}? *$/\1/p' | tr ',' '\n' | tr -d ' ' | grep -vx '\*' || true)
  while read -r name; do
    [ -z "$name" ] || grep -rqw -- "$name" benchmark/src \
      || { echo "$shell re-exports $name, which nothing under benchmark/src names"; exit 1; }
  done <<< "$NAMES"
done
if grep -nE '^h2-(cache|tenant|net)([ .=]|$)' Cargo.toml crates/*/Cargo.toml; then
  echo "a workspace manifest depends on a shell crate (only benchmark/ may)"; exit 1
fi
# The socket transport blocks: one reader thread per peer, blocking writes,
# one wait. No readiness pump, and only the two listeners (the coordinator's
# and the worker's peer listener) are non-blocking, for their accept polls.
if grep -rnE 'fn pump|flush_all|IDLE_SLEEP' crates/dist/src; then echo "the socket readiness pump is back"; exit 1; fi
NONBLOCK=$(awk '/set_nonblocking\(/ { l = prev $0; gsub(/[[:space:]]/, "", l); print FILENAME ":" l } { prev = $0 }' \
  crates/dist/src/net/*.rs | sort | tr '\n' ' ')
[ "$NONBLOCK" = "crates/dist/src/net/coordinator.rs:listener.set_nonblocking(true) crates/dist/src/net/worker.rs:listener.set_nonblocking(true) " ] \
  || { echo "set_nonblocking( under crates/dist/src/net must be on the two listeners only: $NONBLOCK"; exit 1; }
# The names only h2bench calls live in one #[doc(hidden)] `compat` module per
# crate (crates/*/src/compat.rs); no other code line names them. Program code
# reads bases and transfers as `bases()` / `transfers()` (BasisMatrix), not
# through h2bench's `leaf_basis(` / `.transfer(` coefficient blocks, and
# blocks through `table()`, not the `BlockCache` alias or the
# `coupling_store()` / `nearfield_store()` views.
COMPAT=$(grep -rnE 'QueueMode|BlockCache|coupling_store|nearfield_store|get_or_generate|apply_coupling_with|apply_nearfield_with|apply_block_s|apply_block\(|with_tenants\(|leaf_basis\(|\.transfer\(' \
  --include='*.rs' crates src tests examples | grep -vE '^crates/[a-z]+/src/compat\.rs:' \
  | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)
[ -z "$COMPAT" ] || { echo "a compat name outside the compat modules: $COMPAT"; exit 1; }
if grep -rnE 'ProxySurface|proxy_surface|gmres|bicgstab|pcg\(|FnOperator|DenseOperator|LinearOperator' \
  crates src tests examples README.md DESIGN.md PAPER.md; then
  echo "the proxy-surface builder or a second solver is back"; exit 1
fi
# One precision dispatch: in the library the type parameters choose the
# mode (H2MatrixS<f32> is H2Operator<f32> and, mixed, H2Operator<f64>);
# h2serve maps (file scalar, --precision) to (S, A) in one place.
[ ! -e crates/core/src/precision.rs ] || { echo "crates/core/src/precision.rs is back"; exit 1; }
if grep -rnE 'AnyH2|MixedH2|h2_core::Precision|precision::' \
  crates src tests examples README.md DESIGN.md PAPER.md; then
  echo "the runtime precision layer (AnyH2, MixedH2, Precision) is back"; exit 1
fi
# One span record: SpanRecord is the span in process, on the wire, in the
# merged cluster trace and in the flight ring; counters are read through
# h2_telemetry::local_scope.
if grep -rnE 'RemoteSpan|FlightEntry|diagnostics::counters|counters::scope|struct SpanReport' \
  crates src tests examples README.md DESIGN.md PAPER.md; then
  echo "a second span record or the counters wrapper is back"; exit 1
fi
# CPU features are checked only in h2_linalg::simd (`avx2`, `avx512`), and
# six unsafe calls sit behind them: the AVX2 compiles of the panel kernels,
# the radial kernels, the QR trailing update and the anchor-net scan, one
# per file, and the AVX-512 compiles of the radial kernels and the
# anchor-net scan. The slab (crates/linalg/src/slab.rs: file mappings and
# the written slabs of block plans) is the only other unsafe code; comment
# lines do not count.
FEATURE=$(grep -rnw -- "is_x86_feature_detected!" crates/*/src crates/*/tests src tests examples || true)
[ -n "$FEATURE" ] && ! grep -v "^crates/linalg/src/simd.rs:" <<< "$FEATURE" \
  || { echo "expected is_x86_feature_detected! in crates/linalg/src/simd.rs only: $FEATURE"; exit 1; }
SRC=$(find crates/*/src src -name '*.rs' ! -path crates/linalg/src/slab.rs)
UNSAFE=$(non_test $SRC | grep -vE "^[^:]*:[[:space:]]*//" | grep -w "unsafe" || true)
dispatch_files() { grep -E "unsafe \{ [a-z_]+_$1\(" <<< "$UNSAFE" | cut -d: -f1 | sort | tr '\n' ' '; }
[ "$(grep -c . <<< "$UNSAFE")" = 6 ] && [ "$(dispatch_files avx2)" = \
  "crates/kernels/src/radial.rs crates/linalg/src/panel.rs crates/linalg/src/qr.rs crates/sampling/src/strategies.rs " ] \
  && [ "$(dispatch_files avx512)" = "crates/kernels/src/radial.rs crates/sampling/src/strategies.rs " ] \
  || { echo "expected six unsafe dispatches outside the slab: _avx2( in radial, panel, qr and strategies, _avx512( in radial and strategies: $UNSAFE"; exit 1; }
if non_test crates/core/src/sweep.rs | grep -nwE "unsafe|is_x86_feature_detected!"; then echo "SIMD dispatch in sweep.rs"; exit 1; fi
PANEL_DISPATCH=$(non_test crates/linalg/src/panel.rs | grep -c "_avx2(" || true)
[ "$PANEL_DISPATCH" -le 1 ] || { echo "expected at most one _avx2( dispatch in panel.rs, found $PANEL_DISPATCH"; exit 1; }
if non_test crates/core/src/sweep.rs | grep -nwE "gemv_acc|gemv_t_acc|matvec_acc|matvec_t_acc"; then
  echo "sweep.rs applies a block through a one-column kernel"; exit 1
fi
# The tiles' order: at k >= 4 the transposed tile fetches a block from
# memory in column order and the forward tile re-reads it from L2. No bit
# test can see the order, so this keeps it.
ORDER=$(awk '/^#\[cfg\(test\)\]/ { exit } /^fn apply_baseline/ { f = 1; next } f && /^}/ { exit }
  f && /^[[:space:]]*\/\// { next }
  f && !t && /(^|[^_a-z])transposed\(/ { t = FNR } f && !w && /(^|[^_a-z])forward\(/ { w = FNR }
  END { print (t && w && t < w) ? "ok" : "transposed( at line " t + 0 ", forward( at line " w + 0 }' \
  crates/linalg/src/panel.rs)
[ "$ORDER" = ok ] || { echo "panel.rs: apply_baseline must call transposed( before forward(: $ORDER"; exit 1; }
if grep -rnE "(std|core)::arch::" crates/*/src; then echo "an arch intrinsic path under crates/*/src"; exit 1; fi
# The two construction kernels stay vectorised: the anchor-net scan runs on
# its dimension-major pool, not point by point through dist2, and a
# Householder reflector reaches columns only through the trailing update.
if non_test crates/sampling/src/strategies.rs | grep -n "dist2("; then echo "the anchor-net scan calls dist2"; exit 1; fi
# One pass per anchor (no second pass for the first minimum), and one
# block-generation path: a plan's blocks are views of the slab it wrote.
if non_test crates/sampling/src/strategies.rs | grep -nw "first_min"; then echo "the anchor-net scan is two passes again"; exit 1; fi
if grep -rnw "materialize_block" crates/core/src; then echo "a per-block generation path is back beside the slab"; exit 1; fi
REFLECT=$(awk '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next }
  /^[[:space:]]*(pub )?fn / { f = $0; sub(/^[[:space:]]*(pub )?fn /, "", f); sub(/[(<].*/, "", f) }
  /apply_reflector\(/ && !/fn apply_reflector/ && f != "reflect_baseline" { print FNR ": " $0 }' crates/linalg/src/qr.rs)
[ -z "$REFLECT" ] || { echo "qr.rs applies a reflector outside the trailing update: $REFLECT"; exit 1; }
# One kernel math: outside the shared `exp` and `rsqrt` of radial.rs, no
# radial kernel calls libm's `.exp()` or divides by a `.sqrt()`.
KMATH=$(awk '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next }
  /^[[:space:]]*(pub )?fn / { f = $0; sub(/^[[:space:]]*(pub )?fn /, "", f); sub(/[(<].*/, "", f) }
  (/\.exp\(\)/ && f != "exp") || (/\/[^/]*\.sqrt\(\)/ && f != "rsqrt") { print FNR ": " $0 }' crates/kernels/src/radial.rs)
[ -z "$KMATH" ] || { echo "radial.rs takes exp or 1/sqrt outside the shared exp and rsqrt: $KMATH"; exit 1; }
if grep -rniE "trait Sampler|dyn Sampler|SketchKind|srht" crates/*/src; then echo "the sampler extension point or the second sketch ensemble is back"; exit 1; fi
if grep -rnE "dot_apply|Fetched::Generated|kernel_matrix_s|coupling_block_s" crates/*/src; then echo "the second arithmetic class is back"; exit 1; fi
if grep -n "\[features\]" crates/*/Cargo.toml; then echo "a crate has a [features] table"; exit 1; fi
# One vendored stand-in; h2-points' gen.rs owns the one RNG (a ChaCha8 stream)
# and the property tests' case loop. (benchmark/Cargo.lock is the
# benchmark's own and is not checked here.)
VENDORED=$(ls vendor | tr '\n' ' ')
[ "$VENDORED" = "serde_json " ] || { echo "vendor/ must be exactly serde_json: $VENDORED"; exit 1; }
if grep -nwE "rand|rand_chacha|proptest" $MANIFESTS; then echo "a manifest or Cargo.lock names rand or proptest"; exit 1; fi
if grep -rnE "proptest!|prop_assert|ProptestConfig" crates src tests examples; then
  echo "a proptest macro is back; property tests run on h2_points::gen::cases"; exit 1
fi
CHACHA=$(grep -rl "ChaCha" crates/*/src src | tr '\n' ' ')
[ "$CHACHA" = "crates/points/src/gen.rs " ] || { echo "ChaCha outside crates/points/src/gen.rs: $CHACHA"; exit 1; }
for manifest in Cargo.toml crates/*/Cargo.toml; do
  dir=$(dirname "$manifest")
  deps=$(awk '/^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]") } on && /^[a-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$manifest")
  for dep in $deps; do
    grep -rqw "${dep//-/_}" "$dir/src" $(find "$dir" -maxdepth 1 -name tests) \
      || { echo "$manifest depends on $dep, which nothing under $dir/src or $dir/tests names"; exit 1; }
  done
done
# h2serve has one file loader, one error exit and no panic site: one read of
# the stored scalar, `exit(` only in `usage` and `main`, no expect/unwrap/assert.
H2SERVE=crates/serve/src/bin/h2serve.rs
H2SERVE_CODE=$(grep -nv "^[[:space:]]*//" "$H2SERVE")
[ "$(grep -c "codec::stored_scalar" <<< "$H2SERVE_CODE")" = 1 ] \
  || { echo "h2serve.rs must read codec::stored_scalar in exactly one loader"; exit 1; }
EXITS=$(awk '/^fn / { f = $2; sub(/[(<].*/, "", f) } /^[[:space:]]*\/\// { next }
  /exit\(/ && f != "usage" && f != "main" { print FNR ": " $0 }' "$H2SERVE")
[ -z "$EXITS" ] || { echo "h2serve.rs exits outside usage and main: $EXITS"; exit 1; }
if grep -E '\.expect\(|\.unwrap\(\)|(assert|assert_eq|assert_ne|panic)!' <<< "$H2SERVE_CODE"; then
  echo "h2serve.rs has a panic site"; exit 1
fi
# h2serve reads and writes operator files only through the streaming codec
# (codec::load, load_mmap, save and the header peeks): no buffer of a file's
# size, so a serving host holds its operator once.
WHOLE=$(grep -rnE 'codec::(encode|decode)(::<[^>]*>)?\(|fs::read\(' crates/serve/src/bin \
  | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)
[ -z "$WHOLE" ] || { echo "crates/serve/src/bin holds a whole operator file in memory (use codec::load/save): $WHOLE"; exit 1; }
# One bench driver, `paper <experiment>`, whose f64 operators are all built
# by metrics::run_config; a result exists only if a script writes it.
BINS=$(ls crates/bench/src/bin | tr '\n' ' ')
[ "$BINS" = "paper.rs " ] || { echo "crates/bench/src/bin must hold only paper.rs (add a spec to paper.rs): $BINS"; exit 1; }
for result in results/*; do
  grep -qF "/$(basename "$result")" run_harness.sh check.sh || { echo "nothing writes $result"; exit 1; }
done
RUNNERS=$(non_test $(find crates/bench/src -name '*.rs') | grep -cE "fn run_config\(|H2Matrix::build\(" || true)
[ "$RUNNERS" = 2 ] || { echo "expected one run_config and one H2Matrix::build in it under crates/bench/src, found $RUNNERS"; exit 1; }
non_test crates/bench/src/metrics.rs | grep "H2Matrix::build(" > /dev/null
# A basis is held one way, a row map over a coefficient block, and a file
# stores it that way: no split-in-place state, and a load rebuilds it with
# from_split, not by expanding and re-splitting.
if grep -nwE "COEF|with_coef|in_place" crates/linalg/src/basis.rs \
  || grep -nE "expand_col|from_dense|Held::Basis" crates/serve/src/codec.rs crates/core/src/parts.rs; then
  echo "a second basis form is back (split in place, or a dense basis in the codec or parts)"; exit 1
fi

echo "== cargo build --release =="
cargo build --release --workspace --offline

echo "== disassembly (no AVX2 or AVX-512 compile fuses a multiply-add; both AVX-512 compiles run on zmm) =="
# avx512f implies fma: what keeps every compile at the baseline's bits is
# that rustc emits no contractable multiply-add, and this is the proof.
# h2serve links all six compiles.
DIS=$(objdump -d --no-show-raw-insn -C target/release/h2serve | awk '
  /^[0-9a-f]+ </ { f = $0; if (f ~ /_avx(2|512)>:$/) { sub(/^[^<]*<(.*::)?/, "", f); seen[f] = 1 } else f = ""; next }
  f != "" && /[[:space:]]vfn?m(add|sub)/ { print f ": " $0 }
  f ~ /_avx512>:$/ && /zmm/ { zmm[f] = 1 }
  END {
    n = split("apply_avx2 reflect_avx2 eval_tiled_avx2 eval_tiled_avx512 nearest_untaken_avx2 nearest_untaken_avx512", want)
    for (i = 1; i <= n; i++) if (!((want[i] ">:") in seen)) print "no function " want[i] " in the binary"
    for (i = 1; i <= n; i++) if (want[i] ~ /_avx512$/ && !((want[i] ">:") in zmm)) print want[i] " uses no zmm register"
  }')
[ -z "$DIS" ] || { head -20 <<< "$DIS"; exit 1; }

echo "== paper pipeline smoke (the miniatures of Table I and Figs. 2, 4, 5, 9 meet their shape checks, every operator with admissible pairs) =="
SMOKE=$(mktemp /tmp/h2-smoke.XXXXXX.txt)
timeout 120 ./target/release/paper all --check > "$SMOKE"
grep -q "checks, 0 failed" "$SMOKE"
rm -f "$SMOKE"

echo "== CG smoke (kernel_regression, the one production-shaped caller of h2mv::solvers::cg) =="
cargo build --release --offline --example kernel_regression
KRR=$(mktemp /tmp/h2-krr.XXXXXX.txt)
timeout 120 ./target/release/examples/kernel_regression > "$KRR"
grep -q "stop Converged" "$KRR"
rm -f "$KRR"

echo "== distributed smoke (serial ≡ channel mesh ≡ loopback TCP bitwise; per-sweep bytes and messages equal the mesh's model) =="
DIST=$(mktemp /tmp/h2-dist.XXXXXX.txt)
timeout 300 ./target/release/paper dist --check > "$DIST"
grep -q "DIST_CHECK_OK" "$DIST"
rm -f "$DIST"

echo "== thread scaling smoke (bitwise across widths; the 2-thread ratios are printed, not gated) =="
FIG7=$(mktemp /tmp/h2-fig7.XXXXXX.txt)
timeout 300 ./target/release/paper fig7 --sizes 8000 --threads 1,2 --check > "$FIG7"
grep -q "FIG7_THREADS_CHECK_OK" "$FIG7"
rm -f "$FIG7"

echo "== dynamic serving smoke (h2serve update: versioned registry hot-swap end to end) =="
DYN=$(mktemp -d /tmp/h2-dyn.XXXXXX)
./target/release/h2serve save --n 1500 --dim 3 --leaf 64 --out "$DYN/op.h2" > /dev/null
timeout 120 ./target/release/h2serve update --file "$DYN/op.h2" --updates 3 --points 5 \
  --cache-budget 0.5 --out "$DYN/op2.h2" > "$DYN/update.log"
grep -q 'h2_registry_operator_epoch{operator="live"} 6' "$DYN/update.log"
grep -q 'h2_registry_operator_updates{operator="live"} 3' "$DYN/update.log"
grep -q "stored epoch 6" "$DYN/update.log"
rm -rf "$DYN"

echo "== build ablation smoke (sketched vs anchor-net: time, ranks, accuracy) =="
ABL=$(mktemp /tmp/h2-build-ablation.XXXXXX.txt)
timeout 300 ./target/release/paper build_ablation --check > "$ABL"
grep -q "BUILD_ABLATION_CHECK_OK" "$ABL"
rm -f "$ABL"

echo "== multi-tenant mmap serving smoke (h2serve serve --tenants --mmap end to end) =="
TEN=$(mktemp -d /tmp/h2-tenant.XXXXXX)
./target/release/h2serve save --n 2000 --dim 3 --leaf 64 --mode normal --out "$TEN/op.h2" > /dev/null
cat > "$TEN/tenants.toml" <<'TOML'
[alpha]
weight = 4.0
cache_share = 2.0

[beta]
max_queue = 64

[gamma]
cache_share = 0.0
TOML
timeout 120 ./target/release/h2serve serve --file "$TEN/op.h2" --tenants "$TEN/tenants.toml" \
  --mmap --requests 4 --batches 4 --cache-budget 0.25 > "$TEN/serve.log"
grep -q "TENANT_SERVE_MMAP_OK" "$TEN/serve.log"
grep -q "bitwise: all 3 hosted operators identical" "$TEN/serve.log"
grep -q 'h2_tenant_cache_budget_bytes{tenant="alpha"}' "$TEN/serve.log"
# Second pass, on-the-fly file: here the budget is live (a normal-mode file
# ignores it), so alpha and beta host a budgeted tier and gamma none; all
# three must match the one owned-decode reference bit for bit.
./target/release/h2serve save --n 2000 --dim 3 --leaf 64 --mode otf --out "$TEN/otf.h2" > /dev/null
timeout 120 ./target/release/h2serve serve --file "$TEN/otf.h2" --tenants "$TEN/tenants.toml" \
  --requests 4 --batches 4 --cache-budget 0.25 > "$TEN/serve-otf.log"
grep -q "bitwise: all 3 hosted operators identical" "$TEN/serve-otf.log"
grep -q 'h2_tenant_cache_budget_bytes{tenant="gamma"} 0' "$TEN/serve-otf.log"
rm -rf "$TEN"

echo "== live observability gate (scrape + cluster trace + flight recorder) =="
# A real 2-shard deployment with the whole observability plane on: scrape
# GET /metrics and /healthz while traffic flows, then validate the merged
# cluster trace and the per-worker flight-recorder dumps it leaves behind.
# The test binds port 0 and reads the address h2serve prints; the timeout
# turns a hung deployment into a loud failure.
timeout 300 cargo test -q --offline -p h2-serve --test observability -- --ignored --test-threads=1

echo "== profile smoke (trace must parse; f32 footprint gate; f64 k=1 bi_ns <= 0.9x the two one-column applies) =="
timeout 300 cargo test -q --offline --release -p h2-bench --test profile_trace -- --ignored
# Sketched-builder pass: anchor-only phases must render as absent rows,
# not fail the required-span contract.
PROF=$(mktemp /tmp/h2-profile-sketched.XXXXXX.txt)
timeout 300 ./target/release/paper profile --sizes 1500 --builder sketched > "$PROF"
grep -q "build.sketch" "$PROF"
rm -f "$PROF"

echo "== scrape overhead (live GET /metrics render cost < 1% of the serving wall) =="
timeout 300 cargo test -q --offline --release -p h2-bench --test scrape_overhead -- --ignored

echo "== h2bench gate (the benchmark builds against the public API and its in-run checks pass) =="
# The benchmark is a package of its own outside the workspace: a public-API
# deletion that breaks it must fail here, not in the measurement pipeline.
BENCH=$(mktemp /tmp/h2-bench-check.XXXXXX.txt)
bash benchmark/check.sh > "$BENCH"
grep -q "H2BENCH_CHECK_OK" "$BENCH"
rm -f "$BENCH"

echo "== cargo doc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "CHECK_OK"
