//! The three build-once/apply-many workloads: the caller is a solver or an
//! n-body code that pays one build and then thousands of applies.

use super::{maybe_perturb, rhs_ring, Params, StepOut, Verdict, Workload, RING, WARMUP_OPS};
use crate::metrics::Metrics;
use crate::pace::Bound;
use crate::trace::Recorder;
use h2_cache::{CacheBudget, CacheStats};
use h2_core::error_est::PAPER_ERROR_ROWS;
use h2_core::{BasisMethod, BuilderStrategy, H2Config, H2MatrixS, MemoryMode};
use h2_kernels::{Coulomb, Exponential, Kernel};
use h2_linalg::{Matrix, Scalar};
use h2_points::{gen, PointSet};
use std::sync::Arc;
use std::time::Instant;

pub const TOL: f64 = 1e-6;

/// Leaf size: the library default, or a small one so that the tiny `--quick`
/// trees still have admissible pairs.
pub fn leaf_size(quick: bool) -> usize {
    if quick {
        32
    } else {
        H2Config::default().leaf_size
    }
}

pub fn base_cfg(mode: MemoryMode, quick: bool) -> H2Config {
    H2Config {
        basis: BasisMethod::data_driven_for_tol(TOL, 3),
        mode,
        leaf_size: leaf_size(quick),
        ..H2Config::default()
    }
}

/// Times the single build call inside an `h2-core` span.
pub fn timed_build<S: Scalar>(
    pts: &PointSet,
    kernel: Arc<dyn Kernel>,
    cfg: &H2Config,
    rec: &mut Recorder,
) -> (H2MatrixS<S>, f64) {
    let t = Instant::now();
    let h2 = rec.span("h2-core", "build", |_| {
        H2MatrixS::<S>::build(pts, kernel, cfg)
    });
    (h2, t.elapsed().as_secs_f64())
}

/// Accuracy of `first = Â ring[0]` and bitwise agreement with `again`, the
/// same product recomputed through another public path.
pub fn verify_first<S: Scalar>(
    h2: &H2MatrixS<S>,
    rhs: &[f64],
    first: &[f64],
    again: &[f64],
    path: &str,
    seed: u64,
) -> Verdict {
    let rel_err = h2.estimate_rel_error(rhs, first, PAPER_ERROR_ROWS, seed);
    let mut v = Verdict {
        rel_err,
        ..Verdict::default()
    };
    v.check(rel_err <= 10.0 * TOL, || {
        format!("rel_err {rel_err:.3e} above 10 x tol {TOL:.0e}")
    });
    v.check(first == again, || {
        format!("first result is not bitwise equal to {path}")
    });
    v
}

/// State shared by the vector workloads: an `f64` operator applied with
/// `matvec_into` to the ring of right-hand sides.
pub struct VectorApply {
    h2: Arc<H2MatrixS<f64>>,
    ring: Vec<Vec<f64>>,
    y: Vec<f64>,
    first: Vec<f64>,
    build_s: f64,
}

impl VectorApply {
    fn setup(pts: PointSet, cfg: &H2Config, p: &Params, rec: &mut Recorder) -> Self {
        let (h2, build_s) = timed_build::<f64>(&pts, Arc::new(Coulomb), cfg, rec);
        let ring = rhs_ring(h2.n(), p.seed);
        let mut y = vec![0.0; h2.n()];
        let mut first = Vec::new();
        for rhs in ring.iter().take(WARMUP_OPS) {
            h2.matvec_into(rhs, &mut y);
            if first.is_empty() {
                first = y.clone();
                maybe_perturb(p, &mut first);
            }
        }
        VectorApply {
            h2: Arc::new(h2),
            ring,
            y,
            first,
            build_s,
        }
    }

    fn step(&mut self, i: usize, rec: &mut Recorder, lat_ms: &mut Vec<f64>) -> StepOut {
        let (h2, rhs, y) = (&self.h2, &self.ring[i % RING], &mut self.y);
        let t = Instant::now();
        rec.span("h2-core", "apply", |_| h2.matvec_into(rhs, y));
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // The same right-hand side must give the same bits every time.
        let wrong = i.is_multiple_of(RING) && self.y != self.first;
        StepOut {
            rhs: 1,
            attempted: 1,
            failed: wrong as usize,
        }
    }

    fn verify(&self, p: &Params) -> Verdict {
        let again = self.h2.matvec(&self.ring[0]);
        verify_first(
            &self.h2,
            &self.ring[0],
            &self.first,
            &again,
            "matvec",
            p.seed,
        )
    }

    /// `dist`: also run the sharded sweep on this operator (`dist.*`, `net.*`).
    fn layer_metrics(
        &self,
        p: &Params,
        rec: &mut Recorder,
        m: &mut Metrics,
        failures: &mut Vec<String>,
        dist: bool,
    ) {
        if dist {
            crate::dist_probe::run(&self.h2, &self.ring[0], &self.first, rec, m, failures);
        }
        crate::replay::run(&self.h2, 1, rec, m);
        let pts = self.h2.tree().points();
        crate::phases::run(pts, &Coulomb, leaf_size(p.quick), rec, m);
    }
}

macro_rules! vector_workload {
    ($ty:ident, $name:literal, $n:expr, $ops:expr, $mode:expr, $points:expr, $dist:expr) => {
        pub struct $ty(VectorApply);

        impl $ty {
            fn n(quick: bool) -> usize {
                if quick {
                    1200
                } else {
                    $n
                }
            }
        }

        impl Workload for $ty {
            const NAME: &'static str = $name;
            const OPS: usize = $ops;
            const BOUND: Bound = match $mode {
                MemoryMode::Normal => Bound::Stream,
                _ => Bound::Compute,
            };
            fn sizes(quick: bool) -> Vec<(&'static str, f64)> {
                vec![("n", Self::n(quick) as f64), ("tol", TOL), ("k", 1.0)]
            }
            fn setup(p: &Params, rec: &mut Recorder) -> Self {
                let points: fn(usize, usize, u64) -> PointSet = $points;
                let pts = rec.span("h2-points", "generate", |_| {
                    points(Self::n(p.quick), 3, p.seed)
                });
                $ty(VectorApply::setup(pts, &base_cfg($mode, p.quick), p, rec))
            }
            fn build_s(&self) -> f64 {
                self.0.build_s
            }
            fn mem_bytes(&self) -> usize {
                self.0.h2.memory_report().total()
            }
            fn step(&mut self, i: usize, rec: &mut Recorder, lat_ms: &mut Vec<f64>) -> StepOut {
                self.0.step(i, rec, lat_ms)
            }
            fn verify(&mut self, p: &Params) -> Verdict {
                self.0.verify(p)
            }
            fn layer_metrics(
                &mut self,
                p: &Params,
                rec: &mut Recorder,
                m: &mut Metrics,
                failures: &mut Vec<String>,
            ) {
                self.0.layer_metrics(p, rec, m, failures, $dist)
            }
        }
    };
}

// Stored mode streams materialized blocks through h2-linalg's gemv; no kernel
// is evaluated and no cache exists after the build.
vector_workload!(
    Stored,
    "stored_f64",
    14_000,
    150,
    MemoryMode::Normal,
    gen::uniform_cube,
    true
);

// The mirror: every block entry is a kernel evaluation fused into the apply;
// h2-linalg only touches bases and transfers. Points on a sphere give a
// non-uniform tree, so the near/far mix differs from the cube.
vector_workload!(
    OtfSphere,
    "otf_sphere_f64",
    8_000,
    200,
    MemoryMode::OnTheFly,
    gen::sphere_surface,
    false
);

/// The same layers used differently: a sketched build, `f32` blocks with
/// `f64` accumulation, and a half-budget cache in front of block
/// materialization, applied to 8-column panels.
pub struct CachedPanel {
    h2: H2MatrixS<f32>,
    ring: Vec<Vec<f64>>,
    /// `panels[r]` holds `ring[(c + r) % RING]` in column `c`.
    panels: Vec<Matrix>,
    first: Vec<f64>,
    build_s: f64,
}

impl CachedPanel {
    fn n(quick: bool) -> usize {
        if quick {
            1200
        } else {
            5_000
        }
    }
}

impl Workload for CachedPanel {
    const NAME: &'static str = "sketched_cached_panel";
    const OPS: usize = 150;
    /// On-the-fly: a miss evaluates the kernel, a hit is a small cached block.
    const BOUND: Bound = Bound::Compute;

    fn sizes(quick: bool) -> Vec<(&'static str, f64)> {
        vec![
            ("n", Self::n(quick) as f64),
            ("tol", TOL),
            ("k", RING as f64),
            ("cache_ratio", 0.5),
        ]
    }

    fn setup(p: &Params, rec: &mut Recorder) -> Self {
        let pts = rec.span("h2-points", "generate", |_| {
            gen::uniform_cube(Self::n(p.quick), 3, p.seed)
        });
        let cfg = H2Config {
            builder: BuilderStrategy::sketched_for_tol(TOL, 3),
            cache_budget: CacheBudget::Ratio(0.5),
            ..base_cfg(MemoryMode::OnTheFly, p.quick)
        };
        let (h2, build_s) = timed_build::<f32>(&pts, Arc::new(Exponential), &cfg, rec);
        let ring = rhs_ring(h2.n(), p.seed);
        let panels: Vec<Matrix> = (0..RING)
            .map(|r| Matrix::from_fn(h2.n(), RING, |i, c| ring[(c + r) % RING][i]))
            .collect();
        let mut first = h2.matvec_f64(&ring[0]);
        maybe_perturb(p, &mut first);
        for panel in panels.iter().take(WARMUP_OPS) {
            h2.matmat_f64(panel);
        }
        CachedPanel {
            h2,
            ring,
            panels,
            first,
            build_s,
        }
    }

    fn build_s(&self) -> f64 {
        self.build_s
    }

    fn mem_bytes(&self) -> usize {
        // `total()` already counts the cache's resident blocks.
        self.h2.memory_report().total()
    }

    fn step(&mut self, i: usize, rec: &mut Recorder, lat_ms: &mut Vec<f64>) -> StepOut {
        let (h2, panel) = (&self.h2, &self.panels[i % RING]);
        let t = Instant::now();
        let out = rec.span("h2-core", "apply", |_| h2.matmat_f64(panel));
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // Column (RING - r) % RING of panel r is ring[0]: every panel product
        // must reproduce the vector product of that column bit for bit.
        let wrong = out.col((RING - i % RING) % RING) != &self.first[..];
        StepOut {
            rhs: RING,
            attempted: 1,
            failed: wrong as usize,
        }
    }

    fn verify(&mut self, p: &Params) -> Verdict {
        let again = self.h2.matmat_f64(&self.panels[0]).col(0).to_vec();
        verify_first(
            &self.h2,
            &self.ring[0],
            &self.first,
            &again,
            "panel column 0",
            p.seed,
        )
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.h2.cache_stats()
    }

    fn layer_metrics(
        &mut self,
        p: &Params,
        rec: &mut Recorder,
        m: &mut Metrics,
        _failures: &mut Vec<String>,
    ) {
        let stats = self.h2.stats();
        m.set("sketch.samples", stats.sketch_samples as f64);
        m.set("sketch.retries", stats.sketch_retries as f64);
        crate::replay::run(&self.h2, RING, rec, m);
        let pts = self.h2.tree().points();
        crate::phases::run(pts, &Exponential, leaf_size(p.quick), rec, m);
    }
}
