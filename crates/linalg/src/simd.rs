//! The workspace's CPU-feature checks.
//!
//! Four hot loops have a 256-bit compile of the same safe body: the panel
//! applies of [`crate::panel`], the radial kernels' tiled block evaluation
//! in `h2-kernels`, the pivoted QR's trailing update in [`crate::qr`] and
//! the anchor-net scan in `h2-sampling`. Each calls its
//! `#[target_feature(enable = "avx2")]` compile only after [`avx2`] returned
//! `true`. The radial tile, which computes each entry in its own lane and
//! is the whole of an on-the-fly product, and the anchor-net scan, whose
//! chunk of eight candidates is one 512-bit vector, also have a 512-bit
//! compile, called only after [`avx512`] returned `true`: they run the
//! widest compile the host has. The other two keep AVX2 only: the QR's
//! four partial sums fix its vector at four lanes, and a 512-bit panel
//! compile with a 16-row forward tile was slower (the in-cache forward
//! tile went from 0.34 to 0.45 ns per entry).
//!
//! Every compile has the baseline's bits because rustc emits no
//! contractable multiply-add: `avx512f` implies `fma`, yet `a * b + c`
//! stays two roundings, and packed `sqrt` and `div` round as their scalar
//! forms do. `check.sh` disassembles a release binary and fails if any
//! `*_avx2` or `*_avx512` function contains a fused multiply-add. There is
//! no intrinsic, no other architecture's path, and no flag or env var that
//! selects a compile.

/// True when this host executes AVX2 instructions (always `false` off
/// x86), the one condition under which an AVX2 compile may be called.
#[inline]
pub fn avx2() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    return is_x86_feature_detected!("avx2");
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    false
}

/// True when this host executes AVX-512F instructions (always `false` off
/// x86), the one condition under which an AVX-512 compile may be called.
#[inline]
pub fn avx512() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    return is_x86_feature_detected!("avx512f");
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    false
}

/// The compile the radial tile and the anchor-net scan run on this host:
/// `"avx512"`, `"avx2"` or `"baseline"`.
pub fn widest() -> &'static str {
    let wider = [(avx512(), "avx512"), (avx2(), "avx2")];
    wider.iter().find(|c| c.0).map_or("baseline", |c| c.1)
}
