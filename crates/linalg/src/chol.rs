//! Cholesky factorization for symmetric positive-definite matrices.
//!
//! Used in tests that need SPD references. `A = L L^T` with `L` lower
//! triangular.

use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// Cholesky factorization `A = L L^T`.
#[derive(Clone, Debug)]
pub struct Cholesky {
    /// Lower-triangular factor (upper part zeroed).
    l: Matrix,
}

impl Cholesky {
    /// Factorizes the SPD matrix `a` (consumed). Fails with
    /// [`LinalgError::Singular`] at the first non-positive pivot.
    pub fn new(mut a: Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "Cholesky needs square, got {m} x {n}"
            )));
        }
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= a[(j, k)] * a[(j, k)];
            }
            if d <= 0.0 {
                return Err(LinalgError::Singular(j));
            }
            let ljj = d.sqrt();
            a[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= a[(i, k)] * a[(j, k)];
                }
                a[(i, j)] = s / ljj;
            }
            // Zero the strictly-upper part for a clean L.
            for i in 0..j {
                a[(i, j)] = 0.0;
            }
        }
        Ok(Cholesky { l: a })
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` in place via two triangular solves.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.l.nrows();
        assert_eq!(b.len(), n);
        // L y = b
        for i in 0..n {
            let mut s = b[i];
            for (j, &bj) in b.iter().enumerate().take(i) {
                s -= self.l[(i, j)] * bj;
            }
            b[i] = s / self.l[(i, i)];
        }
        // L^T x = y
        for i in (0..n).rev() {
            let mut s = b[i];
            for (j, &bj) in b.iter().enumerate().skip(i + 1) {
                s -= self.l[(j, i)] * bj;
            }
            b[i] = s / self.l[(i, i)];
        }
    }

    /// Solves `A x = b` (allocating).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let b = Matrix::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        });
        let mut a = b.t_matmul(&b);
        for i in 0..n {
            a[(i, i)] += n as f64 * 0.1;
        }
        a
    }

    #[test]
    fn reconstructs() {
        let a = spd(10, 3);
        let ch = Cholesky::new(a.clone()).unwrap();
        let rec = ch.l().matmul_t(ch.l());
        assert!(rec.sub(&a).max_abs() < 1e-12);
    }

    #[test]
    fn solve_works() {
        let a = spd(12, 4);
        let x_true: Vec<f64> = (0..12).map(|i| (i as f64) * 0.25 - 1.0).collect();
        let b = a.matvec(&x_true);
        let x = Cholesky::new(a).unwrap().solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn indefinite_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(Cholesky::new(a), Err(LinalgError::Singular(_))));
    }

    #[test]
    fn non_square_rejected() {
        assert!(Cholesky::new(Matrix::zeros(2, 3)).is_err());
    }
}
