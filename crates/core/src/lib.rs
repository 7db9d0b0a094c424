//! # h2-core
//!
//! H² hierarchical matrices with **data-driven** (hierarchically sampled,
//! SMASH-style) and **interpolation-based** (Chebyshev tensor grid)
//! construction, **normal** and **on-the-fly** memory modes, and a parallel
//! matrix-vector product — the system described in *"Accelerating Parallel
//! Hierarchical Matrix-Vector Products via Data-Driven Sampling"* (IPDPS
//! 2020).
//!
//! ## The representation
//!
//! For a kernel matrix `A = [K(x_i, x_j)]` over a point set, an H² matrix
//! stores
//!
//! - a dense block per **nearfield** leaf pair,
//! - a low-rank block `U_i B_{i,j} U_jᵀ` per admissible (**farfield**) pair,
//!   with *nested* bases: a parent basis is expressed through its children
//!   via small transfer matrices `R_c`.
//!
//! In the data-driven construction, `U_i` interpolates the node's points
//! from a few *skeleton* points chosen by a rank-revealing interpolative
//! decomposition of `K(X_i, Y_i*)`, where `Y_i*` is an O(1)-size hierarchical
//! sample of the node's farfield. Every coupling matrix is then the kernel
//! submatrix `B_{i,j} = K(S_i, S_j)` — which is what makes the **on-the-fly**
//! mode possible: store only the skeleton indices and regenerate `B` blocks
//! inside the matvec.
//!
//! ## Quick example
//!
//! ```
//! use h2_core::{H2Config, H2Matrix, BasisMethod, MemoryMode};
//! use h2_kernels::Coulomb;
//! use h2_points::gen;
//!
//! let pts = gen::uniform_cube(2000, 3, 7);
//! let cfg = H2Config {
//!     basis: BasisMethod::data_driven_for_tol(1e-6, 3),
//!     mode: MemoryMode::OnTheFly,
//!     ..H2Config::default()
//! };
//! let h2 = H2Matrix::build(&pts, std::sync::Arc::new(Coulomb), &cfg);
//! let b = vec![1.0; 2000];
//! let y = h2.matvec(&b);
//! let err = h2.estimate_rel_error(&b, &y, 12, 42);
//! assert!(err < 1e-4, "relative error {err}");
//! ```
//!
//! ## Precision
//!
//! The operator is generic over its storage scalar: [`H2Matrix`] is an alias
//! for `H2MatrixS<f64>`, and `H2MatrixS::<f32>::build` produces a
//! single-precision operator with half the resident bytes. The apply methods
//! additionally accept an independent accumulator scalar, so
//! `h2_f32.matvec_f64(&b)` runs the **mixed-precision** mode: `f32` storage
//! traffic, `f64` sweep accumulation. [`Precision`] + [`AnyH2`] select the
//! mode at runtime from an [`H2Config`]:
//!
//! ```
//! use h2_core::{AnyH2, H2Config, H2Operator, Precision};
//! use h2_kernels::Coulomb;
//! use h2_points::gen;
//!
//! let pts = gen::uniform_cube(500, 3, 7);
//! let cfg = H2Config { precision: Precision::MixedF32, ..H2Config::default() };
//! let op = AnyH2::build(&pts, std::sync::Arc::new(Coulomb), &cfg);
//! let y = op.matvec(&vec![1.0; 500]);
//! assert_eq!(y.len(), 500);
//! ```

pub mod builders;
pub mod cheb;
pub mod config;
pub mod diagnostics;
pub mod error_est;
pub mod h2matrix;
pub mod memory;
pub mod operator;
pub mod parts;
pub mod precision;
pub mod proxy;
pub mod sweep;
pub mod update;

pub use builders::BuildStats;
pub use config::{
    BasisMethod, BuilderProvenance, BuilderStrategy, H2Config, MemoryMode, Precision,
};
pub use h2_cache::{BlockCache, BlockKind, CacheBudget, CacheStats};
pub use h2matrix::{H2Matrix, H2MatrixS};
pub use memory::MemoryReport;
pub use operator::{ApplyError, H2Operator};
pub use parts::H2Parts;
pub use precision::{AnyH2, MixedH2};
pub use sweep::{PairStep, Sweep, SweepPlan};
pub use update::{UpdateError, UpdatePolicy, UpdateReport};
