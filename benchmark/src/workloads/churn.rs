//! `churn`: a dynamic point set. Every operation inserts a batch of new
//! points, removes the same number of the oldest ones, and applies the
//! updated operator once; `n` stays fixed so the run is stationary.

use super::apply::{base_cfg, leaf_size, timed_build, verify_first, TOL};
use super::{
    maybe_perturb, rhs_ring, Params, StepOut, Verdict, Workload, COUNT_OPS, RING, WARMUP_OPS,
};
use crate::metrics::Metrics;
use crate::pace::Bound;
use crate::stats::median;
use crate::trace::Recorder;
use h2_core::error_est::PAPER_ERROR_ROWS;
use h2_core::{H2Config, H2Matrix, MemoryMode, UpdatePolicy};
use h2_kernels::Coulomb;
use h2_points::gen;
use std::sync::Arc;
use std::time::Instant;

/// Points inserted and removed per operation. The default `UpdatePolicy`
/// rebuilds from scratch once accumulated churn passes 25 % of `n`;
/// `max_ops` keeps every run below that, and an operation that escalates to
/// a rebuild anyway counts as failed, so a timed operation is always an
/// incremental update.
const BATCH: usize = 2;

pub struct Churn {
    h2: H2Matrix,
    cfg: H2Config,
    ring: Vec<Vec<f64>>,
    y: Vec<f64>,
    first: Vec<f64>,
    /// The operator the first result was computed on (verification
    /// reference); set by the first warm-up operation.
    first_on: Option<H2Matrix>,
    seed: u64,
    build_s: f64,
    // Samples of the recorded (traced) operations only.
    path_nodes: Vec<f64>,
    blocks: Vec<f64>,
}

impl Churn {
    fn n(quick: bool) -> usize {
        if quick {
            1200
        } else {
            5_000
        }
    }

    /// Insert, remove, apply; returns whether every call succeeded as an
    /// incremental update.
    fn op(&mut self, i: usize, rec: &mut Recorder) -> bool {
        let arriving = gen::uniform_cube(BATCH, 3, self.seed.wrapping_add(1 + i as u64));
        // Ids renumber downward on removal and inserts append, so the lowest
        // ids are always the oldest points still present.
        let departing: Vec<usize> = (0..BATCH).collect();
        let record = rec.enabled();
        let h2 = &mut self.h2;
        let reports = rec.span("h2-core", "update", |_| {
            h2.insert_points(&arriving)
                .and_then(|ins| h2.remove_points(&departing).map(|rem| (ins, rem)))
        });
        let (h2, rhs, y) = (&self.h2, &self.ring[i % RING], &mut self.y);
        rec.span("h2-core", "apply", |_| h2.matvec_into(rhs, y));
        match reports {
            Ok((ins, rem)) => {
                if record {
                    self.path_nodes
                        .push((ins.path_nodes + rem.path_nodes) as f64);
                    self.blocks
                        .push((ins.refactored_blocks + rem.refactored_blocks) as f64);
                }
                ins.rebuilds + rem.rebuilds == 0 && self.y.iter().all(|v| v.is_finite())
            }
            Err(_) => false,
        }
    }
}

impl Workload for Churn {
    const NAME: &'static str = "churn";
    const OPS: usize = 170;
    /// On-the-fly: updates and applies are kernel evaluation.
    const BOUND: Bound = Bound::Compute;

    fn max_ops(quick: bool) -> usize {
        let budget = UpdatePolicy::default().rebuild_churn * Self::n(quick) as f64;
        budget as usize / (2 * BATCH) - WARMUP_OPS
    }

    fn sizes(quick: bool) -> Vec<(&'static str, f64)> {
        vec![
            ("n", Self::n(quick) as f64),
            ("tol", TOL),
            ("k", 1.0),
            ("batch", BATCH as f64),
        ]
    }

    fn setup(p: &Params, rec: &mut Recorder) -> Self {
        let pts = rec.span("h2-points", "generate", |_| {
            gen::uniform_cube(Self::n(p.quick), 3, p.seed)
        });
        let cfg = base_cfg(MemoryMode::OnTheFly, p.quick);
        let (h2, build_s) = timed_build::<f64>(&pts, Arc::new(Coulomb), &cfg, rec);
        let ring = rhs_ring(h2.n(), p.seed);
        let mut w = Churn {
            y: vec![0.0; h2.n()],
            first_on: None,
            h2,
            cfg,
            ring,
            first: Vec::new(),
            seed: p.seed,
            build_s,
            path_nodes: Vec::new(),
            blocks: Vec::new(),
        };
        // Warm-up operations run unrecorded. The first one's result, and the
        // operator it was computed on, are kept for the accuracy check.
        let was = rec.enabled();
        rec.set_enabled(false);
        for i in 0..WARMUP_OPS {
            w.op(i, rec);
            if i == 0 {
                w.first = w.y.clone();
                w.first_on = Some(w.h2.clone());
                maybe_perturb(p, &mut w.first);
            }
        }
        rec.set_enabled(was);
        w
    }

    fn build_s(&self) -> f64 {
        self.build_s
    }

    fn mem_bytes(&self) -> usize {
        self.h2.memory_report().total()
    }

    fn step(&mut self, i: usize, rec: &mut Recorder, lat_ms: &mut Vec<f64>) -> StepOut {
        let t = Instant::now();
        let ok = self.op(i + WARMUP_OPS, rec);
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        StepOut {
            rhs: 1,
            attempted: 1,
            failed: !ok as usize,
        }
    }

    fn verify(&mut self, p: &Params) -> Verdict {
        // The first operation: one update old, so held to the build's
        // accuracy, and reproducible bit for bit on the operator it ran on.
        let first_on = self
            .first_on
            .as_ref()
            .expect("set-up ran a warm-up operation");
        let again = first_on.matvec(&self.ring[0]);
        let mut v = verify_first(
            first_on,
            &self.ring[0],
            &self.first,
            &again,
            "matvec",
            p.seed,
        );
        // The last state: many updates old. It must still track a fresh
        // build on the same points within the update engine's envelope.
        let rhs = &self.ring[1];
        let updated = self.h2.matvec(rhs);
        let fresh = H2Matrix::build(self.h2.tree().points(), Arc::new(Coulomb), &self.cfg);
        let drift = h2_linalg::vec_ops::rel_err(&updated, &fresh.matvec(rhs));
        v.check(drift <= 100.0 * TOL, || {
            format!("updated operator is {drift:.3e} from a fresh rebuild (limit 100 x tol)")
        });
        let err = self
            .h2
            .estimate_rel_error(rhs, &updated, PAPER_ERROR_ROWS, p.seed);
        v.check(err <= 100.0 * TOL, || {
            format!("rel_err after churn {err:.3e} above 100 x tol")
        });
        v
    }

    fn layer_metrics(
        &mut self,
        p: &Params,
        rec: &mut Recorder,
        m: &mut Metrics,
        _failures: &mut Vec<String>,
    ) {
        let update_ms = median(&rec.durations_ms("update"));
        m.set("core.update_ms", update_ms);
        m.set("core.update_over_rebuild", update_ms / (self.build_s * 1e3));
        // Over the counted pass only (the first recorded operations), so the
        // two means repeat exactly from run to run.
        let mean = |v: &[f64]| {
            let v = &v[..v.len().min(COUNT_OPS)];
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        m.set("core.update_path_nodes", mean(&self.path_nodes));
        m.set("core.update_blocks", mean(&self.blocks));
        crate::replay::run(&self.h2, 1, rec, m);
        let pts = self.h2.tree().points();
        crate::phases::run(pts, &Coulomb, leaf_size(p.quick), rec, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frozen count fits under the rebuild threshold with the warm-up and
    /// the traced run's counted pass on the same operator, at full and at
    /// `--quick` size; so the cap only ever bites for a longer `--seconds`.
    #[test]
    fn every_run_stays_below_the_rebuild_threshold() {
        for quick in [false, true] {
            let budget = UpdatePolicy::default().rebuild_churn * Churn::n(quick) as f64;
            let most = WARMUP_OPS + Churn::max_ops(quick);
            assert!((most * 2 * BATCH) as f64 <= budget, "quick={quick}");
        }
        assert!(Churn::OPS + COUNT_OPS <= Churn::max_ops(false));
    }
}
