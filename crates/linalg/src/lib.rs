//! # h2-linalg
//!
//! Dense linear algebra substrate for the `h2mv` workspace.
//!
//! The hierarchical-matrix code in this workspace needs a small but solid set
//! of dense kernels: matrix products, *column-pivoted* (rank-revealing)
//! Householder QR, the interpolative decomposition built on top of it,
//! LU with partial pivoting and Cholesky. No BLAS/LAPACK bindings are available
//! in this environment, so everything here is written from scratch in safe Rust,
//! blocked for cache friendliness and run on the workspace's one scoped
//! executor ([`exec`]) where the problem sizes warrant it.
//!
//! The central type is [`MatrixS`], a dense column-major matrix generic over
//! the sealed [`Scalar`] trait (`f32` or `f64`); the [`Matrix`] alias pins
//! `f64`, which is what most call sites use. Vectors are plain `&[S]` /
//! `Vec<S>` slices. The apply routines additionally accept a separate
//! *accumulator* scalar, which is how the workspace's mixed-precision mode
//! (`f32` storage, `f64` accumulation) is built. QR/ID are generic; LU and
//! Cholesky remain `f64`-only (they back solvers and validation, not the
//! precision-selectable operator path).
//!
//! ## Quick example
//!
//! ```
//! use h2_linalg::Matrix;
//!
//! let a = Matrix::from_fn(3, 3, |i, j| if i == j { 2.0 } else { 1.0 });
//! let x = vec![1.0, 1.0, 1.0];
//! let y = a.matvec(&x);
//! assert_eq!(y, vec![4.0, 4.0, 4.0]);
//! ```

pub mod basis;
pub mod blas;
pub mod chol;
pub mod exec;
pub mod id;
pub mod lu;
pub mod matrix;
pub mod panel;
pub mod qr;
pub mod scalar;
pub mod simd;
pub mod sketch;
pub mod slab;
pub mod vec_ops;

pub use basis::BasisMatrix;
pub use id::{ColumnId, RowId};
pub use matrix::{Matrix, MatrixS};
pub use qr::PivotedQr;
pub use scalar::Scalar;
pub use sketch::CounterRng;
pub use slab::{SlabError, SlabMem, SlabSlice, SLAB_ALIGN};

/// Errors produced by factorizations and solves in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// A dimension mismatch between operands; the message names the operation.
    DimensionMismatch(String),
    /// The matrix was singular (or not positive definite for Cholesky) at the
    /// given pivot index.
    Singular(usize),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch(what) => write!(f, "dimension mismatch: {what}"),
            LinalgError::Singular(k) => write!(f, "singular pivot at index {k}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
