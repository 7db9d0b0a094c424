//! The workspace's one CPU-feature check.
//!
//! Four hot loops have a second, 256-bit compile of the same safe body: the
//! panel applies of [`crate::panel`], the radial kernels' tiled block
//! evaluation in `h2-kernels`, the pivoted QR's trailing update in
//! [`crate::qr`] and the anchor-net scan in `h2-sampling`. Each calls its
//! `#[target_feature(enable = "avx2")]` compile only after [`avx2`] returned
//! `true`. AVX2 only, never
//! `fma`: without it the compiler cannot contract a multiply and an add into
//! one rounding, so both compiles have the same bits. There is no intrinsic,
//! no other architecture's path, and no flag or env var that selects a
//! compile.

/// True when this host executes AVX2 instructions (always `false` off
/// x86), the one condition under which an AVX2 compile may be called.
#[inline]
pub fn avx2() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        false
    }
}
