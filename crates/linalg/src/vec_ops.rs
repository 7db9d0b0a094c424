//! Small vector utilities shared across the workspace.
//!
//! [`rel_err`] accepts vectors of *different* scalar types and does all its
//! accumulation pairwise in `f64`: it is the yardstick the precision tests
//! measure `f32` results against the `f64` reference with, so the metric
//! itself must not contribute error at the `1e-5` scales being asserted.

use crate::blas;
use crate::scalar::Scalar;

/// Euclidean norm of a vector.
#[inline]
pub fn norm2<S: Scalar>(x: &[S]) -> S {
    blas::nrm2(x)
}

/// Pairwise-accumulated `(sum (x_i - y_i)^2, sum y_i^2)` in `f64`.
fn diff_ref_sq_sums<X: Scalar, Y: Scalar>(x: &[X], y: &[Y]) -> (f64, f64) {
    if x.len() <= 32 {
        let mut diff2 = 0.0;
        let mut ref2 = 0.0;
        for (a, b) in x.iter().zip(y) {
            let bw = b.to_f64();
            let d = a.to_f64() - bw;
            diff2 += d * d;
            ref2 += bw * bw;
        }
        (diff2, ref2)
    } else {
        let mid = x.len() / 2;
        let (d0, r0) = diff_ref_sq_sums(&x[..mid], &y[..mid]);
        let (d1, r1) = diff_ref_sq_sums(&x[mid..], &y[mid..]);
        (d0 + d1, r0 + r1)
    }
}

/// Relative Euclidean distance `||x - y|| / ||y||` (0 when both are zero),
/// computed in `f64` with pairwise summation regardless of the input scalar
/// types.
pub fn rel_err<X: Scalar, Y: Scalar>(x: &[X], y: &[Y]) -> f64 {
    assert_eq!(x.len(), y.len(), "rel_err: length mismatch");
    let (diff2, ref2) = diff_ref_sq_sums(x, y);
    if ref2 == 0.0 {
        if diff2 == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (diff2 / ref2).sqrt()
    }
}

/// `x - y` elementwise (allocating).
pub fn sub<S: Scalar>(x: &[S], y: &[S]) -> Vec<S> {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(&a, &b)| a - b).collect()
}

/// Gathers `x[idx[k]]` into a new vector.
pub fn gather<S: Scalar>(x: &[S], idx: &[usize]) -> Vec<S> {
    idx.iter().map(|&i| x[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_basic() {
        assert_eq!(rel_err(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((rel_err(&[1.1, 0.0], &[1.0, 0.0]) - 0.1).abs() < 1e-12);
        assert_eq!(rel_err(&[0.0], &[0.0]), 0.0);
        assert_eq!(rel_err(&[1.0], &[0.0]), f64::INFINITY);
    }

    #[test]
    fn rel_err_mixed_types_is_exact_widening() {
        // f32 inputs are widened exactly; comparing a vector against its own
        // widening must give exactly zero even for awkward values.
        let xs: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let wide: Vec<f64> = xs.iter().map(|&v| v as f64).collect();
        assert_eq!(rel_err(&xs, &wide), 0.0);
        assert_eq!(rel_err(&wide, &xs), 0.0);
    }

    #[test]
    fn rel_err_metric_noise_below_assertion_scale() {
        // A long near-identical pair: the true rel err is ~1e-8, four
        // decades below the 1e-5 the precision suites assert. Pairwise f64
        // accumulation must recover it to high relative accuracy.
        let n = 1 << 15;
        let y: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 1e-9).collect();
        let x: Vec<f64> = y.iter().map(|&v| v * (1.0 + 1e-8)).collect();
        let measured = rel_err(&x, &y);
        assert!(
            (measured - 1e-8).abs() / 1e-8 < 1e-3,
            "measured {measured:.3e}"
        );
    }

    #[test]
    fn gather_works() {
        let x = [10.0, 20.0, 30.0];
        assert_eq!(gather(&x, &[2, 0]), vec![30.0, 10.0]);
    }

    #[test]
    fn sub_works() {
        assert_eq!(sub(&[3.0, 2.0], &[1.0, 5.0]), vec![2.0, -3.0]);
    }
}
