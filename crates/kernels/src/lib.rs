//! # h2-kernels
//!
//! Kernel functions with blocked evaluation.
//!
//! The paper's experiments use the Coulomb kernel `1/‖x−y‖₂`, the cubed
//! Coulomb kernel `1/‖x−y‖₂³`, the exponential kernel `exp(−‖x−y‖₂)` and the
//! Gaussian `exp(−‖x−y‖₂²/0.1)` (Fig. 9); all are radial, so the crate is
//! organised around [`RadialKernel`] (a function of the squared distance)
//! with a blanket [`Kernel`] implementation that provides blocked submatrix
//! evaluation — the primitive construction, the cached tier and the
//! on-the-fly matvec all materialize their blocks with.
//!
//! [`Kernel::eval_block_into`] and [`Kernel::eval_cross_into`] of a radial
//! kernel work a row tile at a time over dimension-major coordinates and
//! vectorise over the rows of the tile, per column point ([`radial`]). Each
//! entry is still `phi(0.0 + (x_0 − y_0)² + … + (x_{dim−1} − y_{dim−1})²)`
//! in that order, so a block has the bits of entrywise [`Kernel::eval`].
//! The kernels' exponentials and reciprocal square roots come from two
//! shared functions, [`radial::exp`] (within 1 ulp of `f64::exp`) and
//! [`radial::rsqrt`] (within 2 ulp of `1.0 / r2.sqrt()`): plain `f64`
//! arithmetic that vectorises with the tile, where a libm call did not.
//!
//! Singular kernels (Coulomb, cubed Coulomb, thin-plate) define
//! `K(x, x) = 0`, the skip-self-interaction convention of fast summation
//! codes (see DESIGN.md §5).
//!
//! ```
//! use h2_kernels::{Coulomb, Kernel};
//! use h2_points::PointSet;
//!
//! let pts = PointSet::new(1, vec![0.0, 2.0]);
//! let k = Coulomb;
//! assert_eq!(k.eval(pts.point(0), pts.point(1)), 0.5);
//! ```

#[doc(hidden)]
pub mod compat;
pub mod radial;

// h2bench names `h2_kernels::apply_block_s`.
#[doc(hidden)]
pub use compat::*;

pub use radial::{
    Coulomb, CoulombCubed, Exponential, Gaussian, InverseMultiquadric, Matern32, RadialKernel,
    ThinPlateSpline,
};

use h2_linalg::Matrix;
use h2_points::PointSet;

/// A (possibly unsymmetric) kernel function over point pairs.
///
/// Implementors only need [`Kernel::eval`]; the [`RadialKernel`] blanket impl
/// overrides the two block evaluations with the tiled, vectorised one.
pub trait Kernel: Send + Sync {
    /// Evaluates `K(x, y)` for two coordinate slices of equal dimension.
    fn eval(&self, x: &[f64], y: &[f64]) -> f64;

    /// Whether `K(x, y) = K(y, x)` for all pairs. Symmetric kernels let the
    /// H² construction share row/column bases and halve coupling storage.
    fn is_symmetric(&self) -> bool {
        true
    }

    /// Human-readable name for harness output.
    fn name(&self) -> &'static str {
        "kernel"
    }

    /// Fills `out` (column-major, `rows.len() x cols.len()`) with
    /// `K(pts[rows[i]], pts[cols[j]])`.
    fn eval_block_into(&self, pts: &PointSet, rows: &[usize], cols: &[usize], out: &mut [f64]) {
        assert_eq!(out.len(), rows.len() * cols.len());
        let m = rows.len();
        for (jj, &cj) in cols.iter().enumerate() {
            let y = pts.point(cj);
            let col = &mut out[jj * m..(jj + 1) * m];
            for (ii, &ri) in rows.iter().enumerate() {
                col[ii] = self.eval(pts.point(ri), y);
            }
        }
    }

    /// Evaluates a kernel block between two *different* point sets (used by
    /// the interpolation-based construction, whose proxy points are Chebyshev
    /// grid points rather than dataset points).
    fn eval_cross_into(&self, xs: &PointSet, ys: &PointSet, out: &mut [f64]) {
        assert_eq!(xs.dim(), ys.dim());
        assert_eq!(out.len(), xs.len() * ys.len());
        let m = xs.len();
        for j in 0..ys.len() {
            let y = ys.point(j);
            let col = &mut out[j * m..(j + 1) * m];
            for (i, ci) in col.iter_mut().enumerate() {
                *ci = self.eval(xs.point(i), y);
            }
        }
    }
}

/// Materializes the kernel submatrix `K(pts[rows], pts[cols])`.
pub fn kernel_matrix(
    kernel: &dyn Kernel,
    pts: &PointSet,
    rows: &[usize],
    cols: &[usize],
) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), cols.len());
    kernel.eval_block_into(pts, rows, cols, out.as_mut_slice());
    out
}

/// Materializes `K(xs, ys)` between two point sets.
pub fn kernel_cross_matrix(kernel: &dyn Kernel, xs: &PointSet, ys: &PointSet) -> Matrix {
    let mut out = Matrix::zeros(xs.len(), ys.len());
    kernel.eval_cross_into(xs, ys, out.as_mut_slice());
    out
}

/// Dense reference matvec `y = K(X, X) b` in O(n²) — ground truth for tests
/// and the paper's error metric.
pub fn dense_matvec(kernel: &dyn Kernel, pts: &PointSet, b: &[f64]) -> Vec<f64> {
    assert_eq!(b.len(), pts.len());
    let n = pts.len();
    let mut y = vec![0.0; n];
    for (i, yi) in y.iter_mut().enumerate() {
        let p = pts.point(i);
        let mut s = 0.0;
        for (j, &bj) in b.iter().enumerate() {
            s += kernel.eval(p, pts.point(j)) * bj;
        }
        *yi = s;
    }
    y
}

/// Computes selected rows of the dense matvec: `y_r = Σ_j K(x_r, x_j) b_j`
/// for each `r` in `rows`. This is the exact reference the paper's relative
/// error metric (12 random rows) compares against.
pub fn dense_matvec_rows(
    kernel: &dyn Kernel,
    pts: &PointSet,
    b: &[f64],
    rows: &[usize],
) -> Vec<f64> {
    assert_eq!(b.len(), pts.len());
    rows.iter()
        .map(|&r| {
            let p = pts.point(r);
            b.iter()
                .enumerate()
                .map(|(j, &bj)| kernel.eval(p, pts.point(j)) * bj)
                .sum()
        })
        .collect()
}

/// Named kernels of the paper's Fig. 9 plus extensions, for harness CLI
/// parsing and exhaustive test loops.
pub fn kernel_by_name(name: &str) -> Option<Box<dyn Kernel>> {
    match name {
        "coulomb" => Some(Box::new(Coulomb)),
        "coulomb3" | "cubed-coulomb" => Some(Box::new(CoulombCubed)),
        "exp" | "exponential" => Some(Box::new(Exponential)),
        "gaussian" => Some(Box::new(Gaussian::paper())),
        "matern32" => Some(Box::new(Matern32 { ell: 1.0 })),
        "imq" => Some(Box::new(InverseMultiquadric { c: 1.0 })),
        "tps" => Some(Box::new(ThinPlateSpline)),
        _ => None,
    }
}

/// The four kernels evaluated in the paper's Fig. 9.
pub fn paper_kernels() -> Vec<(&'static str, Box<dyn Kernel>)> {
    vec![
        ("coulomb", Box::new(Coulomb) as Box<dyn Kernel>),
        ("coulomb3", Box::new(CoulombCubed)),
        ("exponential", Box::new(Exponential)),
        ("gaussian", Box::new(Gaussian::paper())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_points() -> PointSet {
        PointSet::new(3, vec![0.0, 0.0, 0.0, 3.0, 4.0, 0.0]) // distance 5
    }

    #[test]
    fn kernel_matrix_matches_eval() {
        let pts = two_points();
        let k = Coulomb;
        let m = kernel_matrix(&k, &pts, &[0, 1], &[0, 1]);
        assert_eq!(m[(0, 0)], 0.0); // singular diagonal convention
        assert_eq!(m[(0, 1)], 0.2);
        assert_eq!(m[(1, 0)], 0.2);
    }

    #[test]
    fn dense_matvec_rows_consistent() {
        let pts = h2_points::gen::uniform_cube(25, 2, 2);
        let k = Gaussian::paper();
        let b: Vec<f64> = (0..25).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let full = dense_matvec(&k, &pts, &b);
        let rows = [0usize, 7, 24];
        let some = dense_matvec_rows(&k, &pts, &b, &rows);
        for (i, &r) in rows.iter().enumerate() {
            assert!((some[i] - full[r]).abs() < 1e-12);
        }
    }

    #[test]
    fn eval_cross_matches_pointwise() {
        let xs = h2_points::gen::uniform_cube(6, 2, 3);
        let ys = h2_points::gen::uniform_cube(4, 2, 4);
        let k = Matern32 { ell: 0.5 };
        let m = kernel_cross_matrix(&k, &xs, &ys);
        for i in 0..6 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], k.eval(xs.point(i), ys.point(j)));
            }
        }
    }

    #[test]
    fn kernel_by_name_covers_paper_kernels() {
        for name in ["coulomb", "coulomb3", "exponential", "gaussian"] {
            assert!(kernel_by_name(name).is_some(), "{name}");
        }
        assert!(kernel_by_name("bogus").is_none());
    }

    #[test]
    fn symmetry_flags() {
        assert!(Coulomb.is_symmetric());
        assert!(Gaussian::paper().is_symmetric());
    }
}
