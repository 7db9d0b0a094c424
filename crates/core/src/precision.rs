//! Runtime precision selection: the [`MixedH2`] adapter and the [`AnyH2`]
//! precision-erased operator.
//!
//! The generic `H2MatrixS<S>` API resolves precision at compile time. Entry
//! points that read the precision from configuration or from a serialized
//! blob (CLI harnesses, the serving registry) need a runtime dispatch
//! instead; that is what lives here:
//!
//! - [`MixedH2`] wraps an `f32` operator behind the `f64`
//!   [`H2Operator`] interface with every sweep partial accumulated in
//!   `f64` — the paper-adjacent mixed-precision mode: half the storage
//!   traffic, accuracy limited only by the one rounding of stored entries.
//! - [`AnyH2`] holds one of the three modes ([`Precision::F64`],
//!   [`Precision::F32`], [`Precision::MixedF32`]) and implements
//!   `H2Operator<f64>` for all of them, rounding through `f32` vectors for
//!   the pure-`f32` mode.

use crate::config::{H2Config, Precision};
use crate::h2matrix::{H2Matrix, H2MatrixS};
use crate::memory::MemoryReport;
use crate::operator::H2Operator;
use h2_kernels::Kernel;
use h2_linalg::{Matrix, MatrixS};
use h2_points::PointSet;
use std::sync::Arc;

/// An `f32`-storage operator served through the `f64` interface with `f64`
/// accumulation (mixed precision).
#[derive(Clone)]
pub struct MixedH2 {
    inner: Arc<H2MatrixS<f32>>,
}

impl MixedH2 {
    /// Wraps an existing `f32` operator.
    pub fn new(inner: Arc<H2MatrixS<f32>>) -> Self {
        MixedH2 { inner }
    }

    /// The wrapped `f32` operator.
    pub fn inner(&self) -> &Arc<H2MatrixS<f32>> {
        &self.inner
    }
}

impl H2Operator<f64> for MixedH2 {
    fn dims(&self) -> (usize, usize) {
        (self.inner.n(), self.inner.n())
    }

    fn matvec(&self, b: &[f64]) -> Vec<f64> {
        self.inner.matvec_f64(b)
    }

    fn matvec_into(&self, b: &[f64], y: &mut [f64]) {
        self.inner.as_ref().matvec_into::<f64>(b, y);
    }

    fn matmat(&self, b: &Matrix) -> Matrix {
        self.inner.matmat_f64(b)
    }

    fn cache_stats(&self) -> Option<h2_cache::CacheStats> {
        self.inner.cache_stats()
    }
}

/// A precision-erased H² operator: one of the three [`Precision`] modes
/// behind a single `f64`-vector interface.
#[derive(Clone)]
pub enum AnyH2 {
    /// Double-precision storage and accumulation.
    F64(Arc<H2Matrix>),
    /// Single-precision storage and accumulation; `f64` requests are rounded
    /// to `f32` on entry and widened on exit.
    F32(Arc<H2MatrixS<f32>>),
    /// Single-precision storage, double-precision accumulation.
    Mixed(MixedH2),
}

impl AnyH2 {
    /// Builds an operator in the precision selected by `cfg.precision`.
    pub fn build(points: &PointSet, kernel: Arc<dyn Kernel>, cfg: &H2Config) -> AnyH2 {
        match cfg.precision {
            Precision::F64 => AnyH2::F64(Arc::new(H2Matrix::build(points, kernel, cfg))),
            Precision::F32 => AnyH2::F32(Arc::new(H2MatrixS::<f32>::build(points, kernel, cfg))),
            Precision::MixedF32 => AnyH2::Mixed(MixedH2::new(Arc::new(H2MatrixS::<f32>::build(
                points, kernel, cfg,
            )))),
        }
    }

    /// The precision mode this operator runs in.
    pub fn precision(&self) -> Precision {
        match self {
            AnyH2::F64(_) => Precision::F64,
            AnyH2::F32(_) => Precision::F32,
            AnyH2::Mixed(_) => Precision::MixedF32,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        match self {
            AnyH2::F64(h) => h.n(),
            AnyH2::F32(h) => h.n(),
            AnyH2::Mixed(m) => m.inner().n(),
        }
    }

    /// Exact logical memory usage of the underlying operator.
    pub fn memory_report(&self) -> MemoryReport {
        match self {
            AnyH2::F64(h) => h.memory_report(),
            AnyH2::F32(h) => h.memory_report(),
            AnyH2::Mixed(m) => m.inner().memory_report(),
        }
    }

    /// Counter snapshot of the underlying operator's block cache, if any.
    pub fn cache_stats(&self) -> Option<h2_cache::CacheStats> {
        match self {
            AnyH2::F64(h) => h.cache_stats(),
            AnyH2::F32(h) => h.cache_stats(),
            AnyH2::Mixed(m) => m.inner().cache_stats(),
        }
    }
}

impl H2Operator<f64> for AnyH2 {
    fn dims(&self) -> (usize, usize) {
        (self.n(), self.n())
    }

    fn matvec(&self, b: &[f64]) -> Vec<f64> {
        match self {
            AnyH2::F64(h) => h.matvec(b),
            AnyH2::F32(h) => {
                let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
                h.as_ref()
                    .matvec::<f32>(&b32)
                    .into_iter()
                    .map(f64::from)
                    .collect()
            }
            AnyH2::Mixed(m) => m.matvec(b),
        }
    }

    fn matvec_into(&self, b: &[f64], y: &mut [f64]) {
        match self {
            AnyH2::F64(h) => h.matvec_into(b, y),
            // Rounds through `f32` vectors, so it has to convert.
            AnyH2::F32(_) => y.copy_from_slice(&self.matvec(b)),
            AnyH2::Mixed(m) => m.matvec_into(b, y),
        }
    }

    fn matmat(&self, b: &Matrix) -> Matrix {
        match self {
            AnyH2::F64(h) => h.matmat(b),
            AnyH2::F32(h) => {
                let b32: MatrixS<f32> = b.convert();
                h.as_ref().matmat::<f32>(&b32).convert()
            }
            AnyH2::Mixed(m) => m.matmat(b),
        }
    }

    fn cache_stats(&self) -> Option<h2_cache::CacheStats> {
        AnyH2::cache_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BasisMethod, MemoryMode};
    use h2_kernels::Coulomb;
    use h2_points::gen;

    fn cfg(precision: Precision) -> H2Config {
        H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-6, 3),
            mode: MemoryMode::Normal,
            leaf_size: 40,
            eta: 0.7,
            precision,
            ..H2Config::default()
        }
    }

    #[test]
    fn any_h2_dispatches_all_three_modes() {
        let pts = gen::uniform_cube(400, 3, 51);
        let b: Vec<f64> = (0..400).map(|i| (i as f64 * 0.13).sin()).collect();
        let f64_op = AnyH2::build(&pts, Arc::new(Coulomb), &cfg(Precision::F64));
        let y64 = f64_op.matvec(&b);
        let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let mut into = vec![f64::NAN; 400];
        f64_op.matvec_into(&b, &mut into);
        assert_eq!(bits(&into), bits(&y64), "f64: matvec_into");
        for p in [Precision::F32, Precision::MixedF32] {
            let op = AnyH2::build(&pts, Arc::new(Coulomb), &cfg(p));
            assert_eq!(op.precision(), p);
            assert_eq!(op.n(), 400);
            let y = op.matvec(&b);
            into.fill(f64::NAN);
            op.matvec_into(&b, &mut into);
            assert_eq!(bits(&into), bits(&y), "{}: matvec_into", p.name());
            let err = h2_linalg::vec_ops::rel_err(&y, &y64);
            assert!(err < 1e-5, "{} vs f64: {err}", p.name());
            // The low-precision operators really do store half the bytes.
            let m64 = f64_op.memory_report();
            let m = op.memory_report();
            assert!(m.coupling_blocks * 2 == m64.coupling_blocks);
        }
    }

    #[test]
    fn mixed_mode_no_less_accurate_than_pure_f32() {
        let pts = gen::uniform_cube(600, 3, 52);
        let b: Vec<f64> = (0..600).map(|i| (i as f64 * 0.29).cos()).collect();
        let reference = AnyH2::build(&pts, Arc::new(Coulomb), &cfg(Precision::F64)).matvec(&b);
        let f32_err = {
            let y = AnyH2::build(&pts, Arc::new(Coulomb), &cfg(Precision::F32)).matvec(&b);
            h2_linalg::vec_ops::rel_err(&y, &reference)
        };
        let mixed_err = {
            let y = AnyH2::build(&pts, Arc::new(Coulomb), &cfg(Precision::MixedF32)).matvec(&b);
            h2_linalg::vec_ops::rel_err(&y, &reference)
        };
        assert!(
            mixed_err <= f32_err * 1.5 + 1e-9,
            "mixed {mixed_err} vs f32 {f32_err}"
        );
    }
}
