//! **Build ablation** — anchor-net vs randomized sketched construction.
//!
//! Builds the same on-the-fly operator with both construction pipelines
//! (the deterministic anchor-net sampler from the paper and the
//! randomized sketched builder with adaptive rank) and compares, per
//! kernel: build wall time with its phase breakdown, achieved ranks (max
//! and mean leaf), stored generator memory, and the measured matvec
//! relative error against exact kernel rows. The sketched rows also report
//! the sketching work counters (sampled kernel entries, probe entries,
//! adaptive-rank retries).
//!
//! Outputs a human table plus an optional `--json` dump, like the other
//! harness binaries.
//!
//! `--check` runs the acceptance smoke at n=8000 (Coulomb, tol 1e-6): the
//! sketched ranks must stay within 1.25x of the anchor-net ranks and both
//! builders must meet the configured tolerance — then prints
//! `BUILD_ABLATION_CHECK_OK`. The wall-time ratio of the two builds is
//! printed, not gated: with the anchor-net scan vectorised the two builds
//! take about the same time, and a single-shot ordering would flake.

use h2_bench::{json_record, table, write_json, Args, Table};
use h2_core::{BasisMethod, BuilderStrategy, H2Config, H2Matrix, MemoryMode};
use h2_kernels::kernel_by_name;
use h2_points::gen;
use std::sync::Arc;
use std::time::Instant;

json_record! {
    /// One (kernel, builder) measurement.
    #[derive(Clone, Debug)]
    struct AblationRow {
        kernel: String,
        builder: String,
        n: usize,
        /// Build wall time, ms, with the instrumented phase split.
        build_ms: f64,
        sampling_ms: f64,
        basis_ms: f64,
        /// One on-the-fly matvec, ms.
        t_mv_ms: f64,
        /// Achieved ranks.
        max_rank: usize,
        mean_leaf_rank: f64,
        rank_sum: usize,
        /// Stored generator memory, KiB.
        mem_kib: f64,
        /// Measured relative error over sampled exact kernel rows.
        rel_err: f64,
        /// Sketched-builder work counters (0 for anchor-net).
        sketch_samples: usize,
        sketch_probes: usize,
        sketch_retries: usize,
        sketch_max_rounds: usize,
    }
}

fn measure(
    kernel_name: &str,
    builder_name: &str,
    pts: &h2_points::PointSet,
    cfg: &H2Config,
    seed: u64,
) -> AblationRow {
    let kernel = kernel_by_name(kernel_name).expect("known kernel");
    let t0 = Instant::now();
    let h2 = H2Matrix::build(pts, Arc::from(kernel), cfg);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let b = h2_core::error_est::probe_vector(h2.n(), seed ^ 0xAB1A);
    let t0 = Instant::now();
    let y = h2.matvec(&b);
    let t_mv_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rel_err = h2.estimate_rel_error(&b, &y, h2_core::error_est::PAPER_ERROR_ROWS, seed);

    let leaf_ranks: Vec<usize> = h2.tree().leaves().iter().map(|&l| h2.rank(l)).collect();
    let mean_leaf_rank = if leaf_ranks.is_empty() {
        0.0
    } else {
        leaf_ranks.iter().sum::<usize>() as f64 / leaf_ranks.len() as f64
    };
    let s = h2.stats();
    AblationRow {
        kernel: kernel_name.into(),
        builder: builder_name.into(),
        n: h2.n(),
        build_ms,
        sampling_ms: s.sampling_ms,
        basis_ms: s.basis_ms,
        t_mv_ms,
        max_rank: h2.ranks().iter().copied().max().unwrap_or(0),
        mean_leaf_rank,
        rank_sum: h2.ranks().iter().sum(),
        mem_kib: h2.memory_report().generators() as f64 / 1024.0,
        rel_err,
        sketch_samples: s.sketch_samples,
        sketch_probes: s.sketch_probes,
        sketch_retries: s.sketch_retries,
        sketch_max_rounds: s.sketch_max_rounds,
    }
}

fn main() {
    let args = Args::parse();
    let check = args.check;

    let n = if check {
        8_000
    } else if args.full {
        60_000
    } else {
        10_000
    };
    let n = args.sizes.as_ref().map_or(n, |s| s[0]);
    let tol = args.tol_or(1e-6);
    let kernels: &[&str] = if check {
        &["coulomb"]
    } else {
        &["coulomb", "gaussian", "exp"]
    };
    let pts = gen::uniform_cube(n, 3, args.seed);

    println!("Build ablation: n={n}, cube, tol={tol:.0e}, kernels {kernels:?}\n");

    let configs: Vec<(&str, H2Config)> = vec![
        (
            "anchor-net",
            H2Config {
                basis: BasisMethod::data_driven_for_tol(tol, 3),
                mode: MemoryMode::OnTheFly,
                seed: args.seed,
                ..H2Config::default()
            },
        ),
        (
            "sketched",
            H2Config {
                builder: BuilderStrategy::sketched_for_tol(tol, 3),
                mode: MemoryMode::OnTheFly,
                seed: args.seed,
                ..H2Config::default()
            },
        ),
    ];

    let mut rows: Vec<AblationRow> = Vec::new();
    let mut t = Table::new(&[
        "kernel",
        "builder",
        "T_build",
        "sampling",
        "basis",
        "T_mv",
        "max rank",
        "mean leaf",
        "mem KiB",
        "rel err",
        "retries",
    ]);
    for kernel in kernels {
        for (bname, cfg) in &configs {
            let r = measure(kernel, bname, &pts, cfg, args.seed);
            t.row(vec![
                r.kernel.clone(),
                r.builder.clone(),
                table::ms(r.build_ms),
                table::ms(r.sampling_ms),
                table::ms(r.basis_ms),
                table::ms(r.t_mv_ms),
                r.max_rank.to_string(),
                format!("{:.1}", r.mean_leaf_rank),
                format!("{:.1}", r.mem_kib),
                format!("{:.2e}", r.rel_err),
                r.sketch_retries.to_string(),
            ]);
            rows.push(r);
        }
    }
    t.print();

    // Per-kernel builder comparison: time and rank ratios.
    for kernel in kernels {
        let anchor = rows
            .iter()
            .find(|r| r.kernel == *kernel && r.builder == "anchor-net")
            .expect("anchor row present");
        let sketch = rows
            .iter()
            .find(|r| r.kernel == *kernel && r.builder == "sketched")
            .expect("sketched row present");
        println!(
            "\n{kernel}: sketched build {:.2}x anchor-net wall, max rank {:.2}x, \
             mean leaf rank {:.2}x, {} sampled entries",
            sketch.build_ms / anchor.build_ms,
            sketch.max_rank as f64 / anchor.max_rank.max(1) as f64,
            sketch.mean_leaf_rank / anchor.mean_leaf_rank.max(1e-12),
            sketch.sketch_samples,
        );
    }

    if check {
        for r in &rows {
            assert!(
                r.rel_err <= tol,
                "{}/{}: rel err {:.2e} exceeds tol {tol:.0e}",
                r.kernel,
                r.builder,
                r.rel_err
            );
        }
        let (anchor, sketch) = (&rows[0], &rows[1]);
        let max_ratio = sketch.max_rank as f64 / anchor.max_rank.max(1) as f64;
        let leaf_ratio = sketch.mean_leaf_rank / anchor.mean_leaf_rank.max(1e-12);
        assert!(
            max_ratio <= 1.25 && leaf_ratio <= 1.25,
            "sketched ranks must stay within 1.25x of anchor-net \
             (max {max_ratio:.2}x, mean leaf {leaf_ratio:.2}x)"
        );
        println!("\nBUILD_ABLATION_CHECK_OK");
    }

    write_json(&args.json, rows);
    print!("{}", h2_telemetry::snapshot().prometheus_text());
}
