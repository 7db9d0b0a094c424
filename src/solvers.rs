//! Conjugate gradients over any [`H2Operator`].
//!
//! The paper motivates the normal memory mode by iterative linear solves,
//! "where a large number of matrix-vector multiplications need to be
//! performed" (§I-A): one H² construction is amortized over the Krylov
//! iterations. [`cg`] is that consumer for SPD systems such as
//! Gaussian-kernel ridge regression, `(K + λI) α = y` with
//! [`ShiftedOperator`]; an `H2Matrix`, a `ShardedH2` or any other
//! [`H2Operator`] plugs in directly.

use h2_core::H2Operator;
use h2_linalg::blas;

/// Why the solver stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Residual tolerance reached.
    Converged,
    /// Iteration budget exhausted.
    MaxIterations,
    /// Numerical breakdown: a curvature `pᵀAp` that is not positive (the
    /// operator is not SPD) or is NaN.
    Breakdown,
}

/// Solution plus convergence diagnostics.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Number of operator applications performed.
    pub iterations: usize,
    /// Final relative residual `‖b − A x‖ / ‖b‖`.
    pub rel_residual: f64,
    /// Why the iteration stopped.
    pub stop: StopReason,
    /// Relative residual after every iteration (convergence history).
    pub history: Vec<f64>,
}

/// Errors from solver misuse.
#[derive(Clone, Debug, PartialEq)]
pub enum SolverError {
    /// Operator/vector dimension mismatch.
    DimensionMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: operator dim {expected}, vector {got}"
                )
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// CG options.
#[derive(Clone, Copy, Debug)]
pub struct CgOptions {
    /// Relative residual tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tol: 1e-10,
            max_iter: 1000,
        }
    }
}

/// Unpreconditioned conjugate gradients: solves `A x = b` for SPD `A`,
/// starting from `x = 0`.
pub fn cg<A: H2Operator + ?Sized>(
    a: &A,
    b: &[f64],
    opts: &CgOptions,
) -> Result<SolveResult, SolverError> {
    let n = a.nrows();
    if b.len() != n {
        return Err(SolverError::DimensionMismatch {
            expected: n,
            got: b.len(),
        });
    }
    let bnorm = blas::nrm2(b);
    if bnorm == 0.0 {
        return Ok(SolveResult {
            x: vec![0.0; n],
            iterations: 0,
            rel_residual: 0.0,
            stop: StopReason::Converged,
            history: vec![],
        });
    }
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rr = blas::dot(&r, &r);
    let mut history = Vec::new();
    let mut iterations = 0;
    let stop = loop {
        if iterations == opts.max_iter {
            break StopReason::MaxIterations;
        }
        let ap = a.matvec(&p);
        iterations += 1;
        let pap = blas::dot(&p, &ap);
        if pap.is_nan() || pap <= 0.0 {
            // Not SPD, or a NaN in the operator or the right-hand side.
            break StopReason::Breakdown;
        }
        let alpha = rr / pap;
        blas::axpy(alpha, &p, &mut x);
        blas::axpy(-alpha, &ap, &mut r);
        let rel = blas::nrm2(&r) / bnorm;
        history.push(rel);
        if rel < opts.tol {
            break StopReason::Converged;
        }
        let rr_new = blas::dot(&r, &r);
        let beta = rr_new / rr;
        rr = rr_new;
        for (pi, ri) in p.iter_mut().zip(&r) {
            *pi = ri + beta * *pi;
        }
    };
    Ok(SolveResult {
        x,
        iterations,
        rel_residual: blas::nrm2(&r) / bnorm,
        stop,
        history,
    })
}

/// `A + shift · I` — the standard regularized operator of kernel ridge
/// regression / Gaussian-process systems (`K + λI` is SPD for PSD kernels).
pub struct ShiftedOperator<'a, A: H2Operator + ?Sized> {
    inner: &'a A,
    shift: f64,
}

impl<'a, A: H2Operator + ?Sized> ShiftedOperator<'a, A> {
    /// Wraps `inner` as `inner + shift I`.
    pub fn new(inner: &'a A, shift: f64) -> Self {
        ShiftedOperator { inner, shift }
    }
}

impl<A: H2Operator + ?Sized> H2Operator for ShiftedOperator<'_, A> {
    fn dims(&self) -> (usize, usize) {
        self.inner.dims()
    }

    fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = self.inner.matvec(x);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += self.shift * xi;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_linalg::Matrix;

    /// A dense square matrix as an operator.
    struct Dense(Matrix);

    impl H2Operator for Dense {
        fn dims(&self) -> (usize, usize) {
            (self.0.nrows(), self.0.ncols())
        }
        fn matvec(&self, x: &[f64]) -> Vec<f64> {
            self.0.matvec(x)
        }
    }

    fn spd(n: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        let b = Matrix::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        });
        let mut a = b.t_matmul(&b);
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn solves_spd_system() {
        let a = spd(30, 1);
        let x_true: Vec<f64> = (0..30).map(|i| (i as f64) * 0.1 - 1.0).collect();
        let b = a.matvec(&x_true);
        let res = cg(&Dense(a), &b, &CgOptions::default()).unwrap();
        assert_eq!(res.stop, StopReason::Converged);
        for (xi, ti) in res.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-7);
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let res = cg(&Dense(spd(5, 3)), &[0.0; 5], &CgOptions::default()).unwrap();
        assert_eq!(res.iterations, 0);
        assert_eq!(res.x, vec![0.0; 5]);
    }

    #[test]
    fn nan_rhs_is_a_breakdown_after_one_iteration() {
        let mut b = vec![1.0; 6];
        b[2] = f64::NAN;
        let res = cg(&Dense(spd(6, 7)), &b, &CgOptions::default()).unwrap();
        assert_eq!(res.stop, StopReason::Breakdown);
        assert_eq!(res.iterations, 1);
    }

    #[test]
    fn dimension_mismatch_detected() {
        assert!(matches!(
            cg(&Dense(spd(4, 4)), &[1.0; 5], &CgOptions::default()),
            Err(SolverError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn max_iter_respected() {
        let opts = CgOptions {
            tol: 1e-30,
            max_iter: 3,
        };
        let res = cg(&Dense(spd(40, 5)), &[1.0; 40], &opts).unwrap();
        assert_eq!(res.stop, StopReason::MaxIterations);
        assert_eq!(res.iterations, 3);
        assert_eq!(res.history.len(), 3);
    }

    #[test]
    fn history_is_monotonic_enough() {
        // CG residuals are not strictly monotone, but the final must beat
        // the first for an SPD system.
        let res = cg(&Dense(spd(25, 6)), &[1.0; 25], &CgOptions::default()).unwrap();
        assert!(res.history.last().unwrap() < res.history.first().unwrap());
    }

    #[test]
    fn shifted_operator_adds_identity() {
        let swap = Dense(Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]));
        let op = ShiftedOperator::new(&swap, 10.0);
        assert_eq!(op.matvec(&[1.0, 2.0]), vec![12.0, 21.0]);
    }
}
