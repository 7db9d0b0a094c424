//! LU factorization with partial pivoting, solves, inverse, and
//! pseudo-inverse helpers.

use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// LU factorization with partial (row) pivoting: `P A = L U`.
#[derive(Clone, Debug)]
pub struct Lu {
    /// Compact LU (U upper incl. diagonal, unit-diagonal L strictly lower).
    fact: Matrix,
    /// Row permutation: `piv[k]` = row swapped into position k at step k.
    piv: Vec<usize>,
}

impl Lu {
    /// Factorizes the square matrix `a` (consumed).
    pub fn new(mut a: Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "LU needs a square matrix, got {m} x {n}"
            )));
        }
        let mut piv = vec![0usize; n];
        for k in 0..n {
            // Partial pivot: largest |entry| in column k at/below diagonal.
            let mut p = k;
            let mut best = a[(k, k)].abs();
            for i in (k + 1)..n {
                let v = a[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            piv[k] = p;
            if best == 0.0 {
                return Err(LinalgError::Singular(k));
            }
            if p != k {
                a.swap_rows(k, p);
            }
            let akk = a[(k, k)];
            // Scale multipliers and eliminate.
            for i in (k + 1)..n {
                a[(i, k)] /= akk;
            }
            for j in (k + 1)..n {
                let akj = a[(k, j)];
                if akj != 0.0 {
                    // a[i, j] -= a[i, k] * akj for i > k; use raw column split
                    // to keep the inner loop tight.
                    let nrows = n;
                    let (lo, hi) = (k * nrows, j * nrows);
                    let data = a.as_mut_slice();
                    for i in (k + 1)..n {
                        let lik = data[lo + i];
                        data[hi + i] -= lik * akj;
                    }
                }
            }
        }
        Ok(Lu { fact: a, piv })
    }

    /// Solves `A x = b` in place.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.fact.nrows();
        assert_eq!(b.len(), n, "lu solve: rhs length");
        // Apply the permutation.
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                b.swap(k, p);
            }
        }
        // Forward substitution with unit-lower L.
        for i in 1..n {
            let mut s = b[i];
            for (j, &bj) in b.iter().enumerate().take(i) {
                s -= self.fact[(i, j)] * bj;
            }
            b[i] = s;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut s = b[i];
            for (j, &bj) in b.iter().enumerate().skip(i + 1) {
                s -= self.fact[(i, j)] * bj;
            }
            b[i] = s / self.fact[(i, i)];
        }
    }

    /// Solves `A x = b` (allocating).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `A X = B` for a matrix right-hand side.
    pub fn solve_mat(&self, b: &Matrix) -> Matrix {
        let mut x = b.clone();
        for j in 0..x.ncols() {
            self.solve_in_place(x.col_mut(j));
        }
        x
    }

    /// The inverse (for small matrices / tests).
    pub fn inverse(&self) -> Matrix {
        self.solve_mat(&Matrix::identity(self.fact.nrows()))
    }
}

/// Convenience: solve a dense square system once.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Ok(Lu::new(a.clone())?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn solve_recovers_solution() {
        let n = 12;
        let mut a = rand_matrix(n, n, 5);
        for i in 0..n {
            a[(i, i)] += 4.0; // diagonally dominant: well conditioned
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 - 3.0) * 0.5).collect();
        let b = a.matvec(&x_true);
        let x = Lu::new(a).unwrap().solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let n = 8;
        let mut a = rand_matrix(n, n, 6);
        for i in 0..n {
            a[(i, i)] += 3.0;
        }
        let inv = Lu::new(a.clone()).unwrap().inverse();
        let prod = a.matmul(&inv);
        assert!(prod.sub(&Matrix::identity(n)).max_abs() < 1e-10);
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a = rand_matrix(5, 5, 7);
        // Make row 3 a copy of row 1.
        for j in 0..5 {
            let v = a[(1, j)];
            a[(3, j)] = v;
        }
        assert!(matches!(Lu::new(a), Err(LinalgError::Singular(_))));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(3, 4);
        assert!(matches!(Lu::new(a), Err(LinalgError::DimensionMismatch(_))));
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let lu = Lu::new(a).unwrap();
        let x = lu.solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }
}
