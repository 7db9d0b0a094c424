//! The [`H2Operator`] abstraction: anything that applies `y = A x`.
//!
//! Every execution backend of an H² operator — the shared-memory
//! [`H2MatrixS`], the sharded distributed matvec in `h2-dist`, the facade's
//! shifted/regularized wrapper — presents this one interface, which the
//! facade's conjugate-gradient solver and the batched matvec service
//! consume without caring which backend is running.
//!
//! The trait is generic over the vector scalar `S` with an `f64` default,
//! so existing `dyn H2Operator` / `O: H2Operator` call sites keep meaning
//! double precision. An `H2MatrixS<S>` is an `H2Operator<S>`, and an
//! `H2MatrixS<f32>` is also an `H2Operator<f64>`: the mixed-precision mode,
//! `f32` storage with every sweep partial accumulated in `f64`.

use crate::cache::CacheStats;
use crate::h2matrix::H2MatrixS;
use h2_linalg::{MatrixS, Scalar};
use std::fmt;

/// A typed failure of a fallible apply ([`H2Operator::try_matvec`] /
/// [`H2Operator::try_matmat`]). Local backends never construct one — their
/// applies cannot fail — but a distributed backend surfaces a lost worker
/// or an exhausted network deadline here instead of panicking, and the
/// serving layer converts it into a per-request submit error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyError {
    /// Backend diagnostic (e.g. the underlying transport error).
    pub detail: String,
}

impl ApplyError {
    /// An error with the given diagnostic.
    pub fn new(detail: impl Into<String>) -> Self {
        ApplyError {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "operator apply failed: {}", self.detail)
    }
}

impl std::error::Error for ApplyError {}

/// An abstract linear operator `y = A x` over vectors of scalar `S`.
///
/// Only [`H2Operator::dims`] and [`H2Operator::matvec`] are required; the
/// other methods have allocation- or column-wise defaults that backends
/// override when they can do better (e.g. [`H2MatrixS::matmat`]'s fused
/// panel sweep).
pub trait H2Operator<S: Scalar = f64>: Send + Sync {
    /// `(rows, cols)` of the operator.
    fn dims(&self) -> (usize, usize);

    /// `y = A b`.
    fn matvec(&self, b: &[S]) -> Vec<S>;

    /// `y = A b` into a caller-provided buffer (serving hot path; the
    /// default allocates and copies).
    fn matvec_into(&self, b: &[S], y: &mut [S]) {
        y.copy_from_slice(&self.matvec(b));
    }

    /// `Y = A B` for a panel of right-hand sides (default: column-wise
    /// matvecs; backends with fused multi-RHS sweeps override this).
    fn matmat(&self, b: &MatrixS<S>) -> MatrixS<S> {
        assert_eq!(b.nrows(), self.ncols(), "matmat: row count");
        let mut out = MatrixS::zeros(self.nrows(), b.ncols());
        for c in 0..b.ncols() {
            self.matvec_into(b.col(c), out.col_mut(c));
        }
        out
    }

    /// Number of rows.
    fn nrows(&self) -> usize {
        self.dims().0
    }

    /// Number of columns (= required input length).
    fn ncols(&self) -> usize {
        self.dims().1
    }

    /// Fallible `y = A b`. Defaults to the infallible [`Self::matvec`];
    /// backends with real failure modes (distributed execution over a
    /// network) override this to return a typed [`ApplyError`] instead of
    /// panicking, which the serving layer forwards per request.
    fn try_matvec(&self, b: &[S]) -> Result<Vec<S>, ApplyError> {
        Ok(self.matvec(b))
    }

    /// Fallible `Y = A B`, the multi-RHS counterpart of
    /// [`Self::try_matvec`]. Defaults to the infallible [`Self::matmat`].
    fn try_matmat(&self, b: &MatrixS<S>) -> Result<MatrixS<S>, ApplyError> {
        Ok(self.matmat(b))
    }

    /// Counter snapshot of the backend's budgeted block cache, if it runs
    /// one (see [`crate::cache`]). `None` for backends without a cache tier —
    /// the default.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// The operator's update epoch: 0 for static backends (the default);
    /// mutable backends report how many incremental update batches have
    /// been applied (see `h2_core::update`).
    fn epoch(&self) -> u64 {
        0
    }
}

impl<S: Scalar> H2Operator<S> for H2MatrixS<S> {
    fn dims(&self) -> (usize, usize) {
        (self.n(), self.n())
    }

    fn matvec(&self, b: &[S]) -> Vec<S> {
        H2MatrixS::matvec(self, b)
    }

    fn matvec_into(&self, b: &[S], y: &mut [S]) {
        H2MatrixS::matvec_into(self, b, y);
    }

    fn matmat(&self, b: &MatrixS<S>) -> MatrixS<S> {
        H2MatrixS::matmat(self, b)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        H2MatrixS::cache_stats(self)
    }

    fn epoch(&self) -> u64 {
        H2MatrixS::epoch(self)
    }
}

/// The mixed-precision mode: `f64` vectors through `f32` storage, every
/// sweep partial accumulated in `f64` (the same sweep at `A = f64`).
impl H2Operator<f64> for H2MatrixS<f32> {
    fn dims(&self) -> (usize, usize) {
        (self.n(), self.n())
    }

    fn matvec(&self, b: &[f64]) -> Vec<f64> {
        self.matvec_f64(b)
    }

    fn matvec_into(&self, b: &[f64], y: &mut [f64]) {
        H2MatrixS::matvec_into::<f64>(self, b, y);
    }

    fn matmat(&self, b: &MatrixS<f64>) -> MatrixS<f64> {
        self.matmat_f64(b)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        H2MatrixS::cache_stats(self)
    }

    fn epoch(&self) -> u64 {
        H2MatrixS::epoch(self)
    }
}

impl<S: Scalar, T: H2Operator<S> + ?Sized> H2Operator<S> for &T {
    fn dims(&self) -> (usize, usize) {
        (**self).dims()
    }
    fn matvec(&self, b: &[S]) -> Vec<S> {
        (**self).matvec(b)
    }
    fn matvec_into(&self, b: &[S], y: &mut [S]) {
        (**self).matvec_into(b, y);
    }
    fn matmat(&self, b: &MatrixS<S>) -> MatrixS<S> {
        (**self).matmat(b)
    }
    fn try_matvec(&self, b: &[S]) -> Result<Vec<S>, ApplyError> {
        (**self).try_matvec(b)
    }
    fn try_matmat(&self, b: &MatrixS<S>) -> Result<MatrixS<S>, ApplyError> {
        (**self).try_matmat(b)
    }
    fn cache_stats(&self) -> Option<CacheStats> {
        (**self).cache_stats()
    }
    fn epoch(&self) -> u64 {
        (**self).epoch()
    }
}

impl<S: Scalar, T: H2Operator<S> + ?Sized> H2Operator<S> for std::sync::Arc<T> {
    fn dims(&self) -> (usize, usize) {
        (**self).dims()
    }
    fn matvec(&self, b: &[S]) -> Vec<S> {
        (**self).matvec(b)
    }
    fn matvec_into(&self, b: &[S], y: &mut [S]) {
        (**self).matvec_into(b, y);
    }
    fn matmat(&self, b: &MatrixS<S>) -> MatrixS<S> {
        (**self).matmat(b)
    }
    fn try_matvec(&self, b: &[S]) -> Result<Vec<S>, ApplyError> {
        (**self).try_matvec(b)
    }
    fn try_matmat(&self, b: &MatrixS<S>) -> Result<MatrixS<S>, ApplyError> {
        (**self).try_matmat(b)
    }
    fn cache_stats(&self) -> Option<CacheStats> {
        (**self).cache_stats()
    }
    fn epoch(&self) -> u64 {
        (**self).epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BasisMethod, H2Config, MemoryMode};
    use crate::h2matrix::H2Matrix;
    use h2_kernels::Coulomb;
    use h2_linalg::Matrix;
    use h2_points::gen;
    use std::sync::Arc;

    #[test]
    fn h2matrix_trait_methods_match_inherent() {
        let pts = gen::uniform_cube(300, 3, 41);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-5, 3),
            mode: MemoryMode::OnTheFly,
            leaf_size: 40,
            eta: 0.7,
            ..H2Config::default()
        };
        let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
        let b: Vec<f64> = (0..300).map(|i| (i as f64 * 0.31).cos()).collect();
        let op: &dyn H2Operator = &h2;
        assert_eq!(op.dims(), (300, 300));
        assert_eq!(op.matvec(&b), h2.matvec(&b));
        let mut y = vec![f64::NAN; 300];
        op.matvec_into(&b, &mut y);
        assert_eq!(y, h2.matvec(&b));
        let panel = Matrix::from_fn(300, 2, |i, j| ((i + j) % 3) as f64);
        assert_eq!(op.matmat(&panel).as_slice(), h2.matmat(&panel).as_slice());
    }

    #[test]
    fn f32_operator_implements_f32_trait() {
        let pts = gen::uniform_cube(250, 3, 43);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-5, 3),
            mode: MemoryMode::Normal,
            leaf_size: 40,
            eta: 0.7,
            ..H2Config::default()
        };
        let h2 = H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &cfg);
        let b: Vec<f32> = (0..250).map(|i| (i as f32 * 0.31).cos()).collect();
        let op: &dyn H2Operator<f32> = &h2;
        assert_eq!(op.dims(), (250, 250));
        assert_eq!(op.matvec(&b), h2.matvec(&b));
    }

    #[test]
    fn default_matmat_is_columnwise() {
        struct Twice;
        impl H2Operator for Twice {
            fn dims(&self) -> (usize, usize) {
                (3, 3)
            }
            fn matvec(&self, b: &[f64]) -> Vec<f64> {
                b.iter().map(|v| 2.0 * v).collect()
            }
        }
        let b = Matrix::from_fn(3, 2, |i, j| (i + 3 * j) as f64);
        let y = Twice.matmat(&b);
        assert_eq!(y.col(1), &[6.0, 8.0, 10.0]);
        // Blanket impls forward.
        let by_ref: &dyn H2Operator = &Twice;
        assert_eq!(by_ref.nrows(), 3);
        assert_eq!(
            Arc::new(Twice).matvec(&[1.0, 0.0, 0.0]),
            vec![2.0, 0.0, 0.0]
        );
    }

    #[test]
    fn try_defaults_wrap_the_infallible_paths_and_errors_forward() {
        struct Flaky;
        impl H2Operator for Flaky {
            fn dims(&self) -> (usize, usize) {
                (2, 2)
            }
            fn matvec(&self, b: &[f64]) -> Vec<f64> {
                b.to_vec()
            }
            fn try_matvec(&self, _b: &[f64]) -> Result<Vec<f64>, ApplyError> {
                Err(ApplyError::new("worker 1 lost"))
            }
        }
        // Defaults: infallible backends succeed through the try path.
        struct Id;
        impl H2Operator for Id {
            fn dims(&self) -> (usize, usize) {
                (2, 2)
            }
            fn matvec(&self, b: &[f64]) -> Vec<f64> {
                b.to_vec()
            }
        }
        assert_eq!(Id.try_matvec(&[1.0, 2.0]).unwrap(), vec![1.0, 2.0]);
        let panel = Matrix::from_fn(2, 1, |i, _| i as f64);
        assert_eq!(Id.try_matmat(&panel).unwrap().as_slice(), panel.as_slice());
        // Overridden errors forward through the &T and Arc<T> blankets.
        let err = Flaky.try_matvec(&[0.0; 2]).unwrap_err();
        assert_eq!(err, ApplyError::new("worker 1 lost"));
        let by_ref: &dyn H2Operator = &Flaky;
        assert!(by_ref.try_matvec(&[0.0; 2]).is_err());
        assert!(Arc::new(Flaky).try_matvec(&[0.0; 2]).is_err());
        assert!(err.to_string().contains("worker 1 lost"));
    }
}
