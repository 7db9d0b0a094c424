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
//! point.
//!
//! **Order invariant.** Every entry is `phi(0.0 + (x_0 − y_0)² + … +
//! (x_{dim−1} − y_{dim−1})²)`, summed in ascending `d`: the IEEE operations
//! of `phi(dist2(x, y))` in the same order (no `fma`, no reassociation), so
//! a block has the bits of entrywise [`Kernel::eval`].

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

/// `f64` slots of the coordinate tile: 8 KiB of stack per evaluating thread.
const TILE: usize = 1024;

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
/// time (module docs). `#[inline(always)]` so that [`eval_tiled_avx2`]
/// compiles this same body a second time with wider vectors.
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
    let cap = TILE / dim;
    for r0 in (0..m).step_by(cap) {
        let t = cap.min(m - r0);
        for i in 0..t {
            for (d, &c) in x.point(r0 + i, dim).iter().enumerate() {
                tile[d * t + i] = c;
            }
        }
        for j in 0..n {
            let col = &mut out[j * m + r0..j * m + r0 + t];
            col.fill(0.0);
            for (xd, &yd) in tile.chunks_exact(t).zip(y.point(j, dim)) {
                for (s, &xv) in col.iter_mut().zip(xd) {
                    let diff = xv - yd;
                    *s += diff * diff;
                }
            }
            for s in col.iter_mut() {
                *s = k.phi(*s);
            }
        }
    }
}

/// [`eval_tiled_baseline`] compiled with 256-bit vectors. AVX2 only: with no
/// `fma` the compiler cannot contract `s + diff * diff`, and packed `sqrt`
/// and `div` round as their scalar forms do, so the bits are the baseline's.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn eval_tiled_avx2<K: RadialKernel>(k: &K, dim: usize, x: Side, y: Side, out: &mut [f64]) {
    eval_tiled_baseline(k, dim, x, y, out)
}

/// The one runtime dispatch of the crate: the widest compile of the tiled
/// evaluation this host can run.
fn eval_tiled<K: RadialKernel>(k: &K, dim: usize, x: Side, y: Side, out: &mut [f64]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if h2_linalg::simd::avx2() {
        // SAFETY: `eval_tiled_avx2` is a safe function whose only
        // requirement of its caller is that the CPU supports AVX2, which
        // `simd::avx2` on the line above has just established.
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

/// Coulomb kernel `1/r` (the paper's default). `K(x,x) = 0`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Coulomb;

impl RadialKernel for Coulomb {
    #[inline]
    fn phi(&self, r2: f64) -> f64 {
        if r2 == 0.0 {
            0.0
        } else {
            1.0 / r2.sqrt()
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
    #[inline]
    fn phi(&self, r2: f64) -> f64 {
        if r2 == 0.0 {
            0.0
        } else {
            1.0 / (r2 * r2.sqrt())
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
    #[inline]
    fn phi(&self, r2: f64) -> f64 {
        (-r2.sqrt()).exp()
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
    #[inline]
    fn phi(&self, r2: f64) -> f64 {
        (-r2 / self.h).exp()
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
    #[inline]
    fn phi(&self, r2: f64) -> f64 {
        let a = 3f64.sqrt() * r2.sqrt() / self.ell;
        (1.0 + a) * (-a).exp()
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
    #[inline]
    fn phi(&self, r2: f64) -> f64 {
        1.0 / (r2 + self.c * self.c).sqrt()
    }

    fn name(&self) -> &'static str {
        "imq"
    }
}

/// Thin-plate spline `r² log r` (singular derivative at 0; `K(x,x) = 0`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ThinPlateSpline;

impl RadialKernel for ThinPlateSpline {
    #[inline]
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

    #[test]
    fn dispatched_compile_has_the_baseline_bits() {
        if !h2_linalg::simd::avx2() {
            eprintln!("no AVX2 on this host: comparing the baseline compile with itself");
        }
        let pts = h2_points::gen::uniform_cube(50, 3, 9);
        // Two tiles and a remainder; rows and columns share points.
        let rows: Vec<usize> = (0..2 * (TILE / 3) + 5).map(|i| (i * 7) % 50).collect();
        let cols: Vec<usize> = (0..9).map(|j| (j * 11) % 50).collect();
        let side = |idx| Side {
            coords: pts.coords(),
            idx: Some(idx),
        };
        fn both<K: RadialKernel>(k: &K, x: Side, y: Side, len: usize) {
            let (mut base, mut fast) = (vec![0.0; len], vec![0.0; len]);
            eval_tiled_baseline(k, 3, x, y, &mut base);
            eval_tiled(k, 3, x, y, &mut fast);
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&base), bits(&fast), "{}", k.name());
        }
        let len = rows.len() * cols.len();
        both(&Coulomb, side(&rows), side(&cols), len);
        both(&CoulombCubed, side(&rows), side(&cols), len);
        both(&Exponential, side(&rows), side(&cols), len);
        both(&Gaussian::paper(), side(&rows), side(&cols), len);
        both(&Matern32 { ell: 0.7 }, side(&rows), side(&cols), len);
        both(
            &InverseMultiquadric { c: 1.0 },
            side(&rows),
            side(&cols),
            len,
        );
        both(&ThinPlateSpline, side(&rows), side(&cols), len);
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
