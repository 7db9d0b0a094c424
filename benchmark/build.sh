# Sourced by run.sh, check.sh and compare: builds both binaries from source
# and sets BIN to the directory that holds them. Build chatter goes to
# stderr, so a caller's stdout stays machine-readable.
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# The driver sets CARGO_TARGET_DIR. By hand the build gets a directory of its
# own, because its flags differ from the workspace's and would evict the
# workspace's artifacts from target/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Every function starts on a 64-byte line (README, "Why functions are
# aligned"): where the linker happens to put a hot loop otherwise moves
# on-the-fly applies by 20 % between two builds that differ in unrelated code.
export RUSTFLAGS="${RUSTFLAGS:-} -C llvm-args=-align-all-functions=6"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
BIN="$CARGO_TARGET_DIR/release"
