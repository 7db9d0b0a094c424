//! One measured experiment = one [`RunMetrics`] row.

use h2_core::{H2Config, H2Matrix};
use h2_kernels::Kernel;
use h2_points::PointSet;
use serde_json::Value;
use std::sync::Arc;
use std::time::Instant;

crate::json_record! {
    /// The measurements the paper reports per configuration (§IV).
    #[derive(Clone, Debug)]
    pub struct RunMetrics {
        /// Configuration label (e.g. "data-driven/on-the-fly").
        pub label: String,
        /// Number of points.
        pub n: usize,
        /// Spatial dimension.
        pub dim: usize,
        /// Construction time, ms (tree + lists + sampling + generators + blocks).
        pub t_const_ms: f64,
        /// One matvec, ms.
        pub t_mv_ms: f64,
        /// Stored generator memory, KiB (the paper's Table I metric).
        pub mem_kib: f64,
        /// Total stored memory incl. tree/lists, KiB.
        pub mem_total_kib: f64,
        /// Measured relative error over 12 sampled rows.
        pub rel_err: f64,
        /// Largest node rank.
        pub max_rank: usize,
        /// Mean leaf rank (rank-reduction diagnostic, Fig. 2).
        pub mean_leaf_rank: f64,
        /// Sampling time within construction, ms (data-driven only).
        pub sampling_ms: f64,
        /// Largest single block the on-the-fly matvec regenerates, KiB
        /// (concurrent OTF footprint is threads x this, paper Fig. 7c).
        pub max_otf_block_kib: f64,
    }
}

/// Builds one H² matrix, times one matvec, measures error and memory.
pub fn run_config(
    label: &str,
    pts: &PointSet,
    kernel: Arc<dyn Kernel>,
    cfg: &H2Config,
    seed: u64,
) -> RunMetrics {
    let t = Instant::now();
    let h2 = H2Matrix::build(pts, kernel, cfg);
    let t_const_ms = t.elapsed().as_secs_f64() * 1e3;

    let b = h2_core::error_est::probe_vector(h2.n(), seed ^ 0x5EED);
    let t = Instant::now();
    let y = h2.matvec(&b);
    let t_mv_ms = t.elapsed().as_secs_f64() * 1e3;

    let rel_err = h2.estimate_rel_error(&b, &y, h2_core::error_est::PAPER_ERROR_ROWS, seed);
    let mem = h2.memory_report();
    let tree = h2.tree();
    let leaf_ranks: Vec<usize> = tree.leaves().iter().map(|&l| h2.rank(l)).collect();
    let mean_leaf_rank = if leaf_ranks.is_empty() {
        0.0
    } else {
        leaf_ranks.iter().sum::<usize>() as f64 / leaf_ranks.len() as f64
    };
    RunMetrics {
        label: label.to_string(),
        n: h2.n(),
        dim: h2.dim(),
        t_const_ms,
        t_mv_ms,
        mem_kib: mem.generators() as f64 / 1024.0,
        mem_total_kib: mem.total() as f64 / 1024.0,
        rel_err,
        max_rank: h2.ranks().iter().copied().max().unwrap_or(0),
        mean_leaf_rank,
        sampling_ms: h2.stats().sampling_ms,
        max_otf_block_kib: mem.max_otf_block as f64 / 1024.0,
    }
}

/// Writes `doc` (a `Vec` of [`json_record!`](crate::json_record) rows, or
/// one record) to the `--json` path when one was given. This is the only
/// place the harness produces JSON.
pub fn write_json(path: &Option<String>, doc: impl Into<Value>) {
    if let Some(p) = path {
        let body = serde_json::to_string_pretty(&doc.into()).expect("a Value always renders");
        std::fs::write(p, body).unwrap_or_else(|e| panic!("write {p}: {e}"));
        eprintln!("wrote {p}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_core::{BasisMethod, H2Config, MemoryMode};
    use h2_kernels::Coulomb;
    use h2_points::gen;

    #[test]
    fn run_config_produces_sane_metrics() {
        let pts = gen::uniform_cube(500, 3, 1);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-5, 3),
            mode: MemoryMode::OnTheFly,
            leaf_size: 50,
            eta: 0.7,
            ..H2Config::default()
        };
        let m = run_config("test", &pts, Arc::new(Coulomb), &cfg, 7);
        assert_eq!(m.n, 500);
        assert!(m.t_const_ms > 0.0);
        assert!(m.t_mv_ms > 0.0);
        assert!(m.mem_kib > 0.0);
        assert!(m.rel_err < 1e-3);
        assert!(m.max_rank > 0);
    }

    #[test]
    fn json_round_trip() {
        let pts = gen::uniform_cube(200, 2, 2);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-4, 2),
            mode: MemoryMode::Normal,
            leaf_size: 40,
            eta: 0.7,
            ..H2Config::default()
        };
        let mut m = run_config("json \"test\"\n\u{1}", &pts, Arc::new(Coulomb), &cfg, 3);
        m.sampling_ms = f64::NAN;
        m.max_otf_block_kib = f64::INFINITY;
        let path = std::env::temp_dir().join("h2bench_test.json");
        write_json(&Some(path.to_string_lossy().into_owned()), vec![m.clone()]);
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(path).ok();

        // Integers print as integers, non-finite floats as null.
        assert!(body.contains("\"n\": 200,"), "{body}");
        assert!(body.contains(&format!("\"max_rank\": {},", m.max_rank)));
        assert!(body.contains("\"sampling_ms\": null,"));
        assert!(body.contains("\"max_otf_block_kib\": null\n"));
        let byte_counts = Value::from(vec![1u64 << 40, 324 << 20]);
        assert_eq!(
            serde_json::to_string(&byte_counts).unwrap(),
            "[1099511627776,339738624]"
        );

        let parsed = serde_json::from_str(&body).unwrap();
        let Value::Object(fields) = &parsed[0] else {
            panic!("a record is written as an object")
        };
        // Every field under its own name, in declaration order.
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "label",
                "n",
                "dim",
                "t_const_ms",
                "t_mv_ms",
                "mem_kib",
                "mem_total_kib",
                "rel_err",
                "max_rank",
                "mean_leaf_rank",
                "sampling_ms",
                "max_otf_block_kib"
            ]
        );
        // Quotes and control characters survive; numbers parse back equal.
        assert_eq!(parsed[0]["label"], m.label.as_str());
        assert_eq!(parsed[0]["n"].as_u64(), Some(200));
        assert_eq!(parsed[0]["max_rank"].as_u64(), Some(m.max_rank as u64));
        assert_eq!(parsed[0]["rel_err"].as_f64(), Some(m.rel_err));
        assert_eq!(parsed[0]["t_mv_ms"].as_f64(), Some(m.t_mv_ms));
    }
}
