//! # h2mv — Data-Driven Parallel Hierarchical Matrix-Vector Products
//!
//! A Rust reproduction of *"Accelerating Parallel Hierarchical Matrix-Vector
//! Products via Data-Driven Sampling"* (Erlandson, Xi, Cai, Chow — IPDPS
//! 2020): H² hierarchical matrices built either by the paper's data-driven
//! hierarchical sampling or by Chebyshev interpolation, with normal and
//! on-the-fly memory modes, plus every substrate (dense linear algebra,
//! cluster trees, kernels, sampling) implemented from scratch, and the
//! conjugate-gradient solve the paper's normal mode is amortized over.
//!
//! This facade re-exports the workspace crates under one roof, next to its
//! own solver module:
//!
//! - [`linalg`] — matrices, QR/pivoted QR, interpolative decomposition, LU,
//!   Cholesky;
//! - [`points`] — point sets, generators (cube/sphere/dino), cluster trees,
//!   admissibility lists;
//! - [`kernels`] — Coulomb, cubed Coulomb, exponential, Gaussian, Matérn, …
//!   with blocked evaluation;
//! - [`sampling`] — anchor nets, hierarchical sampling (the paper's
//!   Algorithm 1), farfield range sampling;
//! - [`sketch`] — the randomized sketched construction path: counter-based
//!   splitmix64 RNG, Gaussian test matrices, adaptive-rank sketching;
//! - [`h2`] — the H² matrix itself: builders, matvec (Algorithm 2), memory
//!   accounting;
//! - [`solvers`] — conjugate gradients over any [`h2::H2Operator`];
//! - [`dist`] — sharded H² execution: partitioned cluster trees, a
//!   message-passing transport abstraction, and a distributed matvec
//!   bit-identical to the serial one.
//!
//! ## Quickstart
//!
//! ```
//! use h2mv::prelude::*;
//! use std::sync::Arc;
//!
//! // 2,000 random points on a sphere, Coulomb kernel, ~1e-6 accuracy.
//! let pts = h2mv::points::gen::sphere_surface(2000, 3, 1);
//! let cfg = H2Config {
//!     basis: BasisMethod::data_driven_for_tol(1e-6, 3),
//!     mode: MemoryMode::OnTheFly,
//!     ..H2Config::default()
//! };
//! let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
//! let charges = vec![1.0; 2000];
//! let potential = h2.matvec(&charges);
//! assert_eq!(potential.len(), 2000);
//! ```

pub use h2_core as h2;
pub use h2_core::builders::sketched as sketch;
pub use h2_dist as dist;
pub use h2_kernels as kernels;
pub use h2_linalg as linalg;
pub use h2_points as points;
pub use h2_sampling as sampling;

pub mod solvers;

/// The names most programs need.
pub mod prelude {
    pub use crate::solvers::{cg, CgOptions};
    pub use h2_core::builders::sketched::SketchParams;
    pub use h2_core::{
        AnyH2, BasisMethod, BuilderProvenance, BuilderStrategy, H2Config, H2Matrix, H2MatrixS,
        H2Operator, MemoryMode, MixedH2, Precision, UpdateError, UpdatePolicy, UpdateReport,
    };
    pub use h2_dist::ShardedH2;
    pub use h2_kernels::{
        Coulomb, CoulombCubed, Exponential, Gaussian, InverseMultiquadric, Kernel, Matern32,
    };
    pub use h2_points::{gen::Distribution3d, PointSet};
    pub use h2_sampling::SampleParams;
}

/// A width of `threads` threads (0 = the machine's): every build, update
/// and product run inside `thread_pool(n).install(|| ..)` is `n` wide (the
/// caller plus up to `n − 1` helpers scoped to each call — the guard owns no
/// thread), with results bitwise identical at any `n`. This is the one
/// sizing mechanism; outside it work is as wide as
/// `std::thread::available_parallelism()`.
pub fn thread_pool(threads: usize) -> linalg::exec::Width {
    linalg::exec::Width::new(threads)
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_work() {
        use crate::prelude::*;
        let pts = crate::points::gen::uniform_cube(100, 2, 1);
        let cfg = H2Config::default();
        let _ = (pts.len(), cfg.leaf_size, Coulomb);
    }

    #[test]
    fn thread_pool_runs_scoped_work() {
        let pool = crate::thread_pool(2);
        let sum: i32 = pool.install(|| (0..100).sum());
        assert_eq!(sum, 4950);
    }
}
