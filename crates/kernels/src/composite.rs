//! Composite kernels: scaling, sums and products of kernels.
//!
//! Gaussian-process practice composes covariance kernels (`σ²·K₁ + K₂`,
//! anisotropic products, …). Composites of radial kernels are still
//! symmetric, so they work with the shared-basis H² construction unchanged;
//! the data-driven method needs nothing new — its sampling never looks at
//! the kernel at all.

use crate::Kernel;
use h2_points::PointSet;

/// `alpha * K`.
pub struct Scaled<K: Kernel> {
    /// The wrapped kernel.
    pub inner: K,
    /// Scale factor.
    pub alpha: f64,
}

impl<K: Kernel> Kernel for Scaled<K> {
    #[inline]
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        self.alpha * self.inner.eval(x, y)
    }

    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }

    fn name(&self) -> &'static str {
        "scaled"
    }

    fn eval_block_into(&self, pts: &PointSet, rows: &[usize], cols: &[usize], out: &mut [f64]) {
        self.inner.eval_block_into(pts, rows, cols, out);
        for v in out {
            *v *= self.alpha;
        }
    }
}

/// Fills `out` with `a`'s block, then folds `b`'s block (one temporary of
/// the block's size) into it entrywise: both operands keep their own blocked
/// evaluation, and every entry is `op(a.eval(..), b.eval(..))`.
fn combine_blocks(
    (a, b): (&dyn Kernel, &dyn Kernel),
    pts: &PointSet,
    rows: &[usize],
    cols: &[usize],
    out: &mut [f64],
    op: impl Fn(f64, f64) -> f64,
) {
    a.eval_block_into(pts, rows, cols, out);
    let mut tmp = vec![0.0; out.len()];
    b.eval_block_into(pts, rows, cols, &mut tmp);
    for (o, &t) in out.iter_mut().zip(&tmp) {
        *o = op(*o, t);
    }
}

/// `K₁ + K₂`.
pub struct Sum<A: Kernel, B: Kernel> {
    /// First summand.
    pub a: A,
    /// Second summand.
    pub b: B,
}

impl<A: Kernel, B: Kernel> Kernel for Sum<A, B> {
    #[inline]
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        self.a.eval(x, y) + self.b.eval(x, y)
    }

    fn is_symmetric(&self) -> bool {
        self.a.is_symmetric() && self.b.is_symmetric()
    }

    fn name(&self) -> &'static str {
        "sum"
    }

    fn eval_block_into(&self, pts: &PointSet, rows: &[usize], cols: &[usize], out: &mut [f64]) {
        combine_blocks((&self.a, &self.b), pts, rows, cols, out, |a, b| a + b);
    }
}

/// `K₁ · K₂` (pointwise).
pub struct Product<A: Kernel, B: Kernel> {
    /// First factor.
    pub a: A,
    /// Second factor.
    pub b: B,
}

impl<A: Kernel, B: Kernel> Kernel for Product<A, B> {
    #[inline]
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        self.a.eval(x, y) * self.b.eval(x, y)
    }

    fn is_symmetric(&self) -> bool {
        self.a.is_symmetric() && self.b.is_symmetric()
    }

    fn name(&self) -> &'static str {
        "product"
    }

    fn eval_block_into(&self, pts: &PointSet, rows: &[usize], cols: &[usize], out: &mut [f64]) {
        combine_blocks((&self.a, &self.b), pts, rows, cols, out, |a, b| a * b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exponential, Gaussian, Matern32};

    #[test]
    fn scaled_scales() {
        let k = Scaled {
            inner: Exponential,
            alpha: 3.0,
        };
        let x = [0.0];
        let y = [1.0];
        assert!((k.eval(&x, &y) - 3.0 * (-1.0f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn scaled_block_matches_eval() {
        let pts = h2_points::gen::uniform_cube(10, 2, 1);
        let k = Scaled {
            inner: Gaussian::paper(),
            alpha: 0.5,
        };
        let rows = [0usize, 3, 5];
        let cols = [1usize, 7];
        let mut out = vec![0.0; 6];
        k.eval_block_into(&pts, &rows, &cols, &mut out);
        for (jj, &c) in cols.iter().enumerate() {
            for (ii, &r) in rows.iter().enumerate() {
                assert!((out[jj * 3 + ii] - k.eval(pts.point(r), pts.point(c))).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn sum_and_product() {
        let s = Sum {
            a: Exponential,
            b: Gaussian::paper(),
        };
        let p = Product {
            a: Exponential,
            b: Matern32 { ell: 1.0 },
        };
        let x = [0.3, 0.4];
        let y = [0.8, 0.1];
        let es = Exponential.eval(&x, &y) + Gaussian::paper().eval(&x, &y);
        let ep = Exponential.eval(&x, &y) * Matern32 { ell: 1.0 }.eval(&x, &y);
        assert!((s.eval(&x, &y) - es).abs() < 1e-15);
        assert!((p.eval(&x, &y) - ep).abs() < 1e-15);
        assert!(s.is_symmetric() && p.is_symmetric());

        // The block overrides carry the bits of the entrywise definition.
        let pts = h2_points::gen::uniform_cube(12, 2, 4);
        let (rows, cols) = ([0usize, 3, 5, 3], [1usize, 7, 3]);
        for k in [&s as &dyn Kernel, &p] {
            let mut out = vec![0.0; rows.len() * cols.len()];
            k.eval_block_into(&pts, &rows, &cols, &mut out);
            for (jj, &c) in cols.iter().enumerate() {
                for (ii, &r) in rows.iter().enumerate() {
                    let want = k.eval(pts.point(r), pts.point(c));
                    assert_eq!(out[jj * rows.len() + ii].to_bits(), want.to_bits());
                }
            }
        }
    }
}
