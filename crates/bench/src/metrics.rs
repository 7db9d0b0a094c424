//! One measured experiment = one [`Case`] run into one [`RunMetrics`] row.

use crate::median_ms;
use h2_core::{H2Config, H2Matrix};
use h2_kernels::{Coulomb, Kernel};
use h2_points::gen::{self, Distribution3d};
use serde_json::Value;
use std::sync::Arc;

crate::json_record! {
    /// The measurements the paper reports per configuration (§IV), and what
    /// the build ablation and the thread sweep read off the operator.
    #[derive(Clone, Debug)]
    pub struct RunMetrics {
        /// The case's label cells joined with `/` (e.g. "data-driven/normal").
        pub label: String,
        pub n: usize,
        pub dim: usize,
        /// Construction (tree, lists, sampling, generators, blocks), ms.
        pub t_const_ms: f64,
        /// One matvec, ms.
        pub t_mv_ms: f64,
        /// Stored generator memory (the paper's Table I metric), and the
        /// total with tree and lists, KiB.
        pub mem_kib: f64,
        pub mem_total_kib: f64,
        /// Measured relative error over 12 sampled rows.
        pub rel_err: f64,
        pub max_rank: usize,
        pub mean_leaf_rank: f64,
        /// Sampling time within construction (data-driven only), ms.
        pub sampling_ms: f64,
        /// Largest block an on-the-fly matvec regenerates, KiB (the
        /// concurrent footprint is width × this, Fig. 7c).
        pub max_otf_block_kib: f64,
        /// Basis generation time within construction, ms.
        pub basis_ms: f64,
        /// Sum of all node ranks.
        pub rank_sum: usize,
        /// Admissible block pairs; 0 means the operator is dense.
        pub admissible_pairs: usize,
        /// Sketched-builder work counters (0 for anchor-net).
        pub sketch_samples: usize,
        pub sketch_probes: usize,
        pub sketch_retries: usize,
        pub sketch_max_rounds: usize,
        /// Executor width of the build and the products, and the cores the
        /// host offers this process.
        pub width: usize,
        pub nproc: usize,
    }
}

/// One operator to build and measure.
#[derive(Clone)]
pub struct Case {
    /// Row label cells, printed as the table's leading columns.
    pub cells: Vec<String>,
    /// The 3-D point distribution; a uniform cube if `dim != 3`.
    pub dist: Distribution3d,
    pub dim: usize,
    pub n: usize,
    pub kernel: Arc<dyn Kernel>,
    pub cfg: H2Config,
    /// Executor width of the builds and products; 0 is the machine's.
    pub width: usize,
    /// 1 times one build and one cold product; more time the median of
    /// `reps` builds and, after one warm-up, of `reps` products.
    pub reps: usize,
    /// The probe vector's seed is the run seed XOR this.
    pub salt: u64,
}

impl Case {
    /// `n` cube points in 3-D under Coulomb, one cold run at full width.
    pub fn new(cells: Vec<String>, n: usize, cfg: H2Config) -> Case {
        let (dist, dim, width, reps, salt) = (Distribution3d::Cube, 3, 0, 1, 0x5EED);
        let kernel = Arc::new(Coulomb);
        Case {
            cells,
            dist,
            dim,
            n,
            kernel,
            cfg,
            width,
            reps,
            salt,
        }
    }
}

/// Builds one H² matrix, times it and its product, and measures error and
/// memory: the harness's one runner, which every paper experiment uses.
/// Returns the row, the operator and its product with the probe vector.
pub fn run_config(case: &Case, seed: u64) -> (RunMetrics, H2Matrix, Vec<f64>) {
    let pts = match case.dim {
        3 => case.dist.generate(case.n, seed),
        d => gen::uniform_cube(case.n, d, seed),
    };
    let b = h2_core::error_est::probe_vector(case.n, seed ^ case.salt);
    let width = h2_linalg::exec::Width::new(case.width);
    let (h2, t_const_ms, y, t_mv_ms) = width.install(|| {
        let mut built = None;
        let t_const_ms = median_ms(case.reps, || {
            built = None; // one operator alive at a time
            built = Some(H2Matrix::build(&pts, case.kernel.clone(), &case.cfg));
        });
        let h2 = built.expect("reps is positive");
        let mut y = if case.reps > 1 {
            h2.matvec(&b)
        } else {
            Vec::new()
        };
        let t_mv_ms = median_ms(case.reps, || y = h2.matvec(&b));
        (h2, t_const_ms, y, t_mv_ms)
    });

    let rel_err = h2.estimate_rel_error(&b, &y, h2_core::error_est::PAPER_ERROR_ROWS, seed);
    let (mem, s, ranks) = (h2.memory_report(), h2.stats(), h2.ranks());
    let leaves = h2.tree().leaves();
    let leaf_rank_sum: usize = leaves.iter().map(|&l| h2.rank(l)).sum();
    let metrics = RunMetrics {
        label: case.cells.join("/"),
        n: h2.n(),
        dim: h2.dim(),
        t_const_ms,
        t_mv_ms,
        mem_kib: mem.generators() as f64 / 1024.0,
        mem_total_kib: mem.total() as f64 / 1024.0,
        rel_err,
        max_rank: ranks.iter().copied().max().unwrap_or(0),
        mean_leaf_rank: leaf_rank_sum as f64 / leaves.len().max(1) as f64,
        sampling_ms: s.sampling_ms,
        max_otf_block_kib: mem.max_otf_block as f64 / 1024.0,
        basis_ms: s.basis_ms,
        rank_sum: ranks.iter().sum(),
        admissible_pairs: h2.lists().interaction_pairs.len(),
        sketch_samples: s.sketch_samples,
        sketch_probes: s.sketch_probes,
        sketch_retries: s.sketch_retries,
        sketch_max_rounds: s.sketch_max_rounds,
        width: width.install(h2_linalg::exec::width),
        nproc: std::thread::available_parallelism().map_or(1, |v| v.get()),
    };
    (metrics, h2, y)
}

/// Writes `doc` (a `Vec` of [`json_record!`](crate::json_record) rows, or
/// one record) to the `--json` path when one was given. This is the only
/// place the harness produces JSON; [`Args`](crate::Args) has already
/// checked that the path opens for writing, so a bad one fails before the
/// work.
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

    #[test]
    fn run_config_produces_sane_metrics() {
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-5, 3),
            mode: MemoryMode::OnTheFly,
            leaf_size: 50,
            eta: 0.7,
            ..H2Config::default()
        };
        let (m, _, y) = run_config(&Case::new(vec!["test".into()], 500, cfg), 7);
        assert_eq!(y.len(), 500);
        assert_eq!((m.n, m.width, m.label.as_str()), (500, m.nproc, "test"));
        assert!(m.admissible_pairs > 0);
        assert!(m.t_const_ms > 0.0);
        assert!(m.t_mv_ms > 0.0);
        assert!(m.mem_kib > 0.0);
        assert!(m.rel_err < 1e-3);
        assert!(m.max_rank > 0);
    }

    #[test]
    fn json_round_trip() {
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-4, 2),
            mode: MemoryMode::Normal,
            leaf_size: 40,
            eta: 0.7,
            ..H2Config::default()
        };
        let case = Case {
            dim: 2,
            ..Case::new(vec![], 200, cfg)
        };
        let (mut m, _, _) = run_config(&case, 3);
        m.label = "json \"test\"\n\u{1}".into();
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
        assert!(body.contains("\"max_otf_block_kib\": null,"));
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
                "max_otf_block_kib",
                "basis_ms",
                "rank_sum",
                "admissible_pairs",
                "sketch_samples",
                "sketch_probes",
                "sketch_retries",
                "sketch_max_rounds",
                "width",
                "nproc"
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
