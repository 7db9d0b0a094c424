//! Radial kernels: functions of the squared distance `r² = ‖x − y‖₂²`.
//!
//! Implementing [`RadialKernel`] (a single `phi(r²)` method) gives a
//! [`Kernel`] implementation whose blocked evaluation — the hot path of the
//! H² construction (sample matrices, coupling and nearfield blocks) and of
//! the on-the-fly product — works a row tile at a time. [`PointSet`] is
//! point-major, so the coordinates of up to `TILE / dim` row points are
//! first gathered dimension-major into a stack buffer; then, for each column
//! point, `dim` passes over contiguous slices accumulate `(x_d − y_d)²` and
//! one pass applies `phi`. What vectorises is the rows of a tile, per column
//! point. A tile short of a whole number of 8-row chunks (the last one of a
//! block) repeats its last row up to one, and only its real rows are
//! stored, so no column ends in a scalar loop.
//!
//! **Order invariant.** Every entry is `phi(0.0 + (x_0 − y_0)² + … +
//! (x_{dim−1} − y_{dim−1})²)`, summed in ascending `d`: the IEEE operations
//! of `phi(dist2(x, y))` in the same order (no `fma`, no reassociation), so
//! a block has the bits of entrywise [`Kernel::eval`].
//!
//! **Widest compile.** The body is compiled three times: baseline, AVX2 and
//! AVX-512, and `eval_tiled` runs the widest one the host has
//! (`h2_linalg::simd`). Each entry is computed in its own lane, so the lane
//! count cannot change a bit, and rustc emits no contractable multiply-add,
//! so no compile fuses one although `avx512f` implies `fma`; `check.sh`'s
//! disassembly step is the proof.
//!
//! **Shared math.** Every `phi` that takes an exponential or divides by a
//! square root takes it from [`exp`] and [`rsqrt`]: plain arithmetic on
//! `f64` and its bits, with no libm call, no table and no `fma`, so the
//! tile's AVX2 and AVX-512 compiles vectorise `phi` and keep the scalar
//! bits. [`exp`] is within 1 ulp of `f64::exp` and [`rsqrt`] within 2 ulp
//! of `1.0 / r2.sqrt()` (`tests/math.rs`). The distance `√r2` inside the
//! exponential and Matérn kernels stays one correctly rounded `f64::sqrt`:
//! as `r2 · rsqrt(r2)` it would be less accurate, and its chain of
//! dependent operations, added to `exp`'s, ran the tile slower.

use crate::Kernel;
use h2_points::pointset::dist2;
use h2_points::PointSet;

/// A kernel that depends only on the squared distance between points.
pub trait RadialKernel: Send + Sync {
    /// Evaluates the kernel as a function of the squared distance. `r2 == 0`
    /// must return the kernel's diagonal convention (0 for singular kernels).
    fn phi(&self, r2: f64) -> f64;

    /// Kernel name for harness output.
    fn name(&self) -> &'static str;
}

/// `ln 2` in two parts for the Cody–Waite reduction of [`exp`]: `LN2_HI`
/// has 32 significant bits, so `k · LN2_HI` is exact for every `|k| < 2^21`.
const LN2_HI: f64 = 0.693_147_180_369_123_8;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// `1.5 · 2^52`: `t + ROUND` rounds `t` to the nearest integer `k`, and the
/// low bits of the sum are `k` in two's complement.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// `q(r) ≈ (e^r − 1 − r) / r²` on `|r| ≤ ln 2 / 2`, lowest degree first: a
/// degree-9 Chebyshev fit, within `1.1e-16` of `q`.
const EXP_Q: [f64; 10] = [
    0.500_000_000_000_000_1,
    0.166_666_666_666_666_69,
    0.041_666_666_666_624_164,
    0.008_333_333_333_330_065,
    0.001_388_888_891_719_720_9,
    1.984_126_986_304_092_2e-4,
    2.480_152_132_160_664_7e-5,
    2.755_726_847_972_400_4e-6,
    2.762_007_624_252_725_4e-7,
    2.510_037_611_136_142e-8,
];

/// `e^x`, within 1 ulp of `f64::exp`: over `[−745, 709.8]`, at subnormal
/// results, at `±∞`, NaN and at the overflow and underflow thresholds.
///
/// `x = k ln 2 + r` with `|r| ≤ ln 2 / 2` (Cody–Waite), `e^r = 1 + (r +
/// r² q(r))`, and `2^k` is built from exponent bits as two factors
/// `2^⌊k/2⌋ · 2^⌈k/2⌉`, so that the one rounding of the last product gives
/// subnormal results and the overflow to `∞`.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    // Past these bounds every result is 0 or ∞ anyway; NaN stays NaN.
    let x = x.clamp(-746.0, 710.0);
    let t = x * std::f64::consts::LOG2_E + ROUND;
    let k = t - ROUND;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let mut q = EXP_Q[9];
    for &c in EXP_Q[..9].iter().rev() {
        q = q * r + c;
    }
    let p = 1.0 + (r + r * r * q);
    // `k + 2048` from the bits of `t`, then the biased exponents of
    // `2^⌊k/2⌋` and `2^⌈k/2⌉`: both in [485, 1535] for `k ∈ [−1076, 1024]`.
    let kb = t.to_bits().wrapping_sub(ROUND.to_bits()).wrapping_add(2048);
    let half = kb >> 1;
    let lo = f64::from_bits((half - 1) << 52);
    let hi = f64::from_bits((kb - 1 - half) << 52);
    p * lo * hi
}

/// `1/√r2`, within 2 ulp of `1.0 / r2.sqrt()` for every `f64`: `+∞` at
/// `+0`, `−∞` at `−0`, `0` at `+∞`, NaN below zero and at NaN.
///
/// The range reduction takes the power of two `s` in the exponent field of
/// `1534 · 2^52 − bits / 2`, where `bits / 2` halves the exponent of `r2`:
/// `m = r2 · s · s` lies in `[1/8, 2)` for a normal `r2` and in `[2^-54,
/// 1/4)` for a subnormal one, and both products are exact, because `s²` is
/// an even power of two and neither leaves the normal range. The seed `y₀
/// = 1/√m` is computed in `f32`: it has 24
/// significant bits, so `y₀²` is exact in `f64`, and one `f64` step `y =
/// y₀ + y₀ (d/2 + 3d²/8)` with `d = 1 − m y₀²` leaves an error of order
/// `d³`, below `2^-67`. The result is `y · s`. Where `d` is NaN — at `±0`,
/// `+∞`, NaN and below zero — the seed is already the answer.
#[inline(always)]
pub fn rsqrt(r2: f64) -> f64 {
    let exponent = (1534u64 << 52).wrapping_sub(r2.to_bits() >> 1);
    let s = f64::from_bits(exponent & 0x7ff0_0000_0000_0000);
    let m = r2 * s * s;
    let y0 = f64::from(1.0 / (m as f32).sqrt());
    let d = 1.0 - m * (y0 * y0);
    let c = d * (0.5 + 0.375 * d);
    let y = if c.is_nan() { y0 } else { y0 + y0 * c };
    y * s
}

/// `f64` slots of the coordinate tile and of the padded output column of a
/// last, partial tile: 16 KiB of stack per evaluating thread.
const TILE: usize = 1024;

/// Rows of the widest compile's vector (AVX-512): a row tile is padded to
/// a multiple of it.
const LANES: usize = 8;

/// One side of a block: the points `idx` of a point-major coordinate
/// buffer, or every point in order.
#[derive(Clone, Copy)]
struct Side<'a> {
    coords: &'a [f64],
    idx: Option<&'a [usize]>,
}

impl<'a> Side<'a> {
    #[inline(always)]
    fn len(&self, dim: usize) -> usize {
        self.idx.map_or(self.coords.len() / dim, <[usize]>::len)
    }

    #[inline(always)]
    fn point(&self, i: usize, dim: usize) -> &'a [f64] {
        let p = self.idx.map_or(i, |idx| idx[i]);
        &self.coords[p * dim..(p + 1) * dim]
    }
}

/// Fills the column-major `out` with `phi(‖x_i − y_j‖²)`, a row tile at a
/// time (module docs). `#[inline(always)]` so that [`eval_tiled_avx2`] and
/// [`eval_tiled_avx512`] compile this same body with wider vectors.
#[inline(always)]
fn eval_tiled_baseline<K: RadialKernel>(k: &K, dim: usize, x: Side, y: Side, out: &mut [f64]) {
    let (m, n) = (x.len(dim), y.len(dim));
    assert_eq!(out.len(), m * n);
    if dim > TILE {
        // Not even one row fits the tile: the scalar reference.
        for j in 0..n {
            for i in 0..m {
                out[j * m + i] = k.phi(dist2(x.point(i, dim), y.point(j, dim)));
            }
        }
        return;
    }
    let mut tile = [0.0; TILE];
    let mut padded = [0.0; TILE];
    // Whole tiles are whole lane chunks; the last one is padded to them.
    let per = TILE / dim;
    let cap = if per >= LANES { per - per % LANES } else { per };
    for r0 in (0..m).step_by(cap) {
        let t = cap.min(m - r0);
        // The tile's last row repeated up to a whole chunk (`w` rows), so
        // no column ends in a scalar loop; only the `t` real rows are
        // stored.
        let w = t.next_multiple_of(LANES).min(cap);
        for i in 0..w {
            for (d, &c) in x.point(r0 + i.min(t - 1), dim).iter().enumerate() {
                tile[d * w + i] = c;
            }
        }
        for j in 0..n {
            let out_col = &mut out[j * m + r0..j * m + r0 + t];
            let col = if w == t { out_col } else { &mut padded[..w] };
            // The first pass assigns `(x_0 − y_0)²`: the bits of `0.0 +`
            // it, since a square is never `−0.0`.
            let mut dims = tile.chunks_exact(w).zip(y.point(j, dim));
            if let Some((x0, &y0)) = dims.next() {
                for (s, &xv) in col.iter_mut().zip(x0) {
                    let diff = xv - y0;
                    *s = diff * diff;
                }
            }
            for (xd, &yd) in dims {
                for (s, &xv) in col.iter_mut().zip(xd) {
                    let diff = xv - yd;
                    *s += diff * diff;
                }
            }
            for s in col.iter_mut() {
                *s = k.phi(*s);
            }
            if w > t {
                out[j * m + r0..j * m + r0 + t].copy_from_slice(&padded[..t]);
            }
        }
    }
}

/// [`eval_tiled_baseline`] compiled with 256-bit vectors. rustc emits no
/// contractable `s + diff * diff`, and packed `sqrt` and `div` round as
/// their scalar forms do, so the bits are the baseline's.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn eval_tiled_avx2<K: RadialKernel>(k: &K, dim: usize, x: Side, y: Side, out: &mut [f64]) {
    eval_tiled_baseline(k, dim, x, y, out)
}

/// [`eval_tiled_baseline`] compiled with 512-bit vectors, with the bits of
/// the other two for the same reasons.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn eval_tiled_avx512<K: RadialKernel>(k: &K, dim: usize, x: Side, y: Side, out: &mut [f64]) {
    eval_tiled_baseline(k, dim, x, y, out)
}

/// The one runtime dispatch of the crate: the widest compile of the tiled
/// evaluation this host can run.
fn eval_tiled<K: RadialKernel>(k: &K, dim: usize, x: Side, y: Side, out: &mut [f64]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if h2_linalg::simd::avx512() {
        // SAFETY: `eval_tiled_avx512` is a safe function whose only
        // requirement of its caller is that the CPU supports AVX-512F,
        // which `simd::avx512` on the line above has just established.
        return unsafe { eval_tiled_avx512(k, dim, x, y, out) };
    } else if h2_linalg::simd::avx2() {
        // SAFETY: as above, for AVX2 and `simd::avx2`.
        return unsafe { eval_tiled_avx2(k, dim, x, y, out) };
    }
    eval_tiled_baseline(k, dim, x, y, out)
}

impl<K: RadialKernel> Kernel for K {
    #[inline]
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        self.phi(dist2(x, y))
    }

    fn is_symmetric(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        RadialKernel::name(self)
    }

    fn eval_block_into(&self, pts: &PointSet, rows: &[usize], cols: &[usize], out: &mut [f64]) {
        let side = |idx| Side {
            coords: pts.coords(),
            idx: Some(idx),
        };
        eval_tiled(self, pts.dim(), side(rows), side(cols), out);
    }

    fn eval_cross_into(&self, xs: &PointSet, ys: &PointSet, out: &mut [f64]) {
        assert_eq!(xs.dim(), ys.dim());
        let all = |coords| Side { coords, idx: None };
        eval_tiled(self, xs.dim(), all(xs.coords()), all(ys.coords()), out);
    }
}

/// `√3`, rounded once.
const SQRT_3: f64 = 1.732_050_807_568_877_2;

/// Coulomb kernel `1/r` (the paper's default). `K(x,x) = 0`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Coulomb;

impl RadialKernel for Coulomb {
    #[inline(always)]
    fn phi(&self, r2: f64) -> f64 {
        if r2 == 0.0 {
            0.0
        } else {
            rsqrt(r2)
        }
    }

    fn name(&self) -> &'static str {
        "coulomb"
    }
}

/// Cubed Coulomb kernel `1/r³` (paper Fig. 9). `K(x,x) = 0`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoulombCubed;

impl RadialKernel for CoulombCubed {
    #[inline(always)]
    fn phi(&self, r2: f64) -> f64 {
        if r2 == 0.0 {
            0.0
        } else {
            let y = rsqrt(r2);
            y * y * y
        }
    }

    fn name(&self) -> &'static str {
        "coulomb3"
    }
}

/// Exponential kernel `exp(−r)` (paper Fig. 9).
#[derive(Clone, Copy, Debug, Default)]
pub struct Exponential;

impl RadialKernel for Exponential {
    #[inline(always)]
    fn phi(&self, r2: f64) -> f64 {
        exp(-r2.sqrt())
    }

    fn name(&self) -> &'static str {
        "exponential"
    }
}

/// Gaussian kernel `exp(−r²/h)`. The paper uses `h = 0.1`
/// ([`Gaussian::paper`]).
#[derive(Clone, Copy, Debug)]
pub struct Gaussian {
    /// Bandwidth: the kernel is `exp(−r²/h)`.
    pub h: f64,
}

impl Gaussian {
    /// The paper's Fig. 9 Gaussian, `exp(−r²/0.1)`.
    pub fn paper() -> Self {
        Gaussian { h: 0.1 }
    }
}

impl RadialKernel for Gaussian {
    #[inline(always)]
    fn phi(&self, r2: f64) -> f64 {
        exp(-r2 / self.h)
    }

    fn name(&self) -> &'static str {
        "gaussian"
    }
}

/// Matérn 3/2 kernel `(1 + √3 r/ℓ) exp(−√3 r/ℓ)` (extension kernel used in
/// the Gaussian-process regression example).
#[derive(Clone, Copy, Debug)]
pub struct Matern32 {
    /// Length scale.
    pub ell: f64,
}

impl RadialKernel for Matern32 {
    #[inline(always)]
    fn phi(&self, r2: f64) -> f64 {
        let a = SQRT_3 * r2.sqrt() / self.ell;
        (1.0 + a) * exp(-a)
    }

    fn name(&self) -> &'static str {
        "matern32"
    }
}

/// Inverse multiquadric `1/√(r² + c²)` (smooth, non-singular Coulomb-like
/// extension).
#[derive(Clone, Copy, Debug)]
pub struct InverseMultiquadric {
    /// Shape parameter.
    pub c: f64,
}

impl RadialKernel for InverseMultiquadric {
    #[inline(always)]
    fn phi(&self, r2: f64) -> f64 {
        rsqrt(r2 + self.c * self.c)
    }

    fn name(&self) -> &'static str {
        "imq"
    }
}

/// Thin-plate spline `r² log r` (singular derivative at 0; `K(x,x) = 0`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ThinPlateSpline;

impl RadialKernel for ThinPlateSpline {
    #[inline(always)]
    fn phi(&self, r2: f64) -> f64 {
        if r2 == 0.0 {
            0.0
        } else {
            // r² log r = r² · ln(r²)/2
            0.5 * r2 * r2.ln()
        }
    }

    fn name(&self) -> &'static str {
        "tps"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;
    use h2_linalg::scalar::bits;

    #[test]
    fn coulomb_values() {
        assert_eq!(Coulomb.phi(0.0), 0.0);
        assert_eq!(Coulomb.phi(4.0), 0.5);
        assert_eq!(CoulombCubed.phi(4.0), 0.125);
    }

    #[test]
    fn exponential_and_gaussian() {
        assert!((Exponential.phi(1.0) - (-1.0f64).exp()).abs() < 1e-15);
        assert_eq!(Exponential.phi(0.0), 1.0);
        let g = Gaussian::paper();
        assert_eq!(g.phi(0.0), 1.0);
        assert!((g.phi(0.1) - (-1.0f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn matern_limits() {
        let m = Matern32 { ell: 1.0 };
        assert_eq!(m.phi(0.0), 1.0);
        assert!(m.phi(100.0) < 1e-4);
        // Monotone decreasing.
        assert!(m.phi(0.5) > m.phi(1.0));
    }

    #[test]
    fn tps_signs() {
        // r < 1 -> negative, r > 1 -> positive, r == 1 -> 0.
        assert!(ThinPlateSpline.phi(0.25) < 0.0);
        assert!(ThinPlateSpline.phi(4.0) > 0.0);
        assert_eq!(ThinPlateSpline.phi(1.0), 0.0);
        assert_eq!(ThinPlateSpline.phi(0.0), 0.0);
    }

    #[test]
    fn radial_eval_consistent_with_phi() {
        let k = InverseMultiquadric { c: 2.0 };
        let x = [1.0, 0.0];
        let y = [4.0, 4.0];
        // r2 = 9 + 16 = 25, phi = 1/sqrt(29)
        assert!((Kernel::eval(&k, &x, &y) - 1.0 / 29f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn block_eval_column_major_layout() {
        let pts = PointSet::new(1, vec![0.0, 1.0, 3.0]);
        let k = Exponential;
        let mut out = vec![0.0; 4];
        k.eval_block_into(&pts, &[0, 1], &[1, 2], &mut out);
        // Column 0 = K(x0,x1), K(x1,x1); column 1 = K(x0,x3), K(x1,x3)
        assert!((out[0] - (-1.0f64).exp()).abs() < 1e-15);
        assert_eq!(out[1], 1.0);
        assert!((out[2] - (-3.0f64).exp()).abs() < 1e-15);
        assert!((out[3] - (-2.0f64).exp()).abs() < 1e-15);
    }

    /// The bits of every compile this host runs, by name, on one block:
    /// the baseline first, the dispatched one last.
    fn each_compile<K: RadialKernel>(
        k: &K,
        dim: usize,
        x: Side,
        y: Side,
    ) -> Vec<(&'static str, Vec<u64>)> {
        let run = |f: &dyn Fn(&mut [f64])| {
            let mut out = vec![0.0; x.len(dim) * y.len(dim)];
            f(&mut out);
            bits(&out)
        };
        let mut runs = vec![("baseline", run(&|o| eval_tiled_baseline(k, dim, x, y, o)))];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if h2_linalg::simd::avx2() {
                // SAFETY: `simd::avx2` has just established that the CPU has AVX2.
                let avx2 = run(&|o| unsafe { eval_tiled_avx2(k, dim, x, y, o) });
                runs.push(("avx2", avx2));
            }
            if h2_linalg::simd::avx512() {
                // SAFETY: `simd::avx512` has just established that the CPU has AVX-512F.
                let avx512 = run(&|o| unsafe { eval_tiled_avx512(k, dim, x, y, o) });
                runs.push(("avx512", avx512));
            }
        }
        runs.push(("dispatched", run(&|o| eval_tiled(k, dim, x, y, o))));
        runs
    }

    fn assert_same_bits<K: RadialKernel>(k: &K, dim: usize, x: Side, y: Side) {
        let runs = each_compile(k, dim, x, y);
        if runs.len() == 2 {
            eprintln!("no AVX2 on this host: comparing the baseline compile with itself");
        }
        for (name, bits) in &runs[1..] {
            assert!(*bits == runs[0].1, "{}: the {name} compile", k.name());
        }
    }

    fn side<'a>(coords: &'a [f64], idx: Option<&'a [usize]>) -> Side<'a> {
        Side { coords, idx }
    }

    #[test]
    fn every_compile_has_the_baseline_bits() {
        let pts = h2_points::gen::uniform_cube(50, 3, 9);
        // Two tiles and a remainder; rows and columns share points.
        let rows: Vec<usize> = (0..2 * (TILE / 3) + 5).map(|i| (i * 7) % 50).collect();
        let cols: Vec<usize> = (0..9).map(|j| (j * 11) % 50).collect();
        let (x, y) = (
            side(pts.coords(), Some(&rows)),
            side(pts.coords(), Some(&cols)),
        );
        assert_same_bits(&Coulomb, 3, x, y);
        assert_same_bits(&CoulombCubed, 3, x, y);
        assert_same_bits(&Exponential, 3, x, y);
        assert_same_bits(&Gaussian::paper(), 3, x, y);
        assert_same_bits(&Matern32 { ell: 0.7 }, 3, x, y);
        assert_same_bits(&InverseMultiquadric { c: 1.0 }, 3, x, y);
        assert_same_bits(&ThinPlateSpline, 3, x, y);
    }

    #[test]
    fn special_distances_keep_their_bits_in_every_compile() {
        // 1-D coordinates whose pairs give `r²` = +0 (equal points, and
        // `+0` against `−0`: a sum of squares is never `−0`), subnormal
        // (`1e-160²`), +∞ (`1e200²`, and `∞` against a finite point) and
        // NaN (`NaN`, and `∞ − ∞`), beside ordinary distances; the rows
        // repeat them across the vector width.
        let coords = [0.0, -0.0, 1e-160, 1e200, f64::INFINITY, f64::NAN, 0.5, 3.0];
        let rows: Vec<usize> = (0..3 * coords.len() + 5).map(|i| i % 8).collect();
        let (x, y) = (side(&coords, Some(&rows)), side(&coords, None));
        assert_same_bits(&Coulomb, 1, x, y);
        assert_same_bits(&Gaussian::paper(), 1, x, y);
        // The baseline's entries are the scalar `phi(dist2)`.
        let base = &each_compile(&Coulomb, 1, x, y)[0].1;
        for (j, &b) in coords.iter().enumerate() {
            for (i, &r) in rows.iter().enumerate() {
                let want = bits(&[Coulomb.phi(dist2(&[coords[r]], &[b]))]);
                let what = format!("{} {b}", coords[r]);
                assert_eq!(base[j * rows.len() + i], want[0], "{what}");
            }
        }
    }

    #[test]
    fn a_point_wider_than_the_tile_takes_the_scalar_fallback() {
        let dim = TILE + 1;
        let pts = PointSet::from_fn(2, dim, |i, d| ((i + 1) * (d % 7)) as f64 * 0.125);
        let k = Gaussian { h: 50.0 };
        let mut block = vec![0.0; 4];
        k.eval_block_into(&pts, &[0, 1], &[1, 0], &mut block);
        let mut cross = vec![0.0; 4];
        k.eval_cross_into(&pts, &pts, &mut cross);
        for i in 0..2 {
            for j in 0..2 {
                let want = k.eval(pts.point(i), pts.point(j));
                assert!(want > 0.0 && want <= 1.0);
                assert_eq!(block[(1 - j) * 2 + i].to_bits(), want.to_bits());
                assert_eq!(cross[j * 2 + i].to_bits(), want.to_bits());
            }
        }
    }
}
