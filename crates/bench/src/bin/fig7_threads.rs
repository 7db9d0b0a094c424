//! **Fig. 7** — scaling with the number of threads (paper: 1,000,000
//! points, cube, on-the-fly, Coulomb, both methods).
//!
//! Expected shape (paper): near-linear matvec speedup; sub-linear
//! construction speedup (the top of the recursive bisection serializes);
//! memory grows slightly with p (each thread regenerates one `B_{i,j}` at a
//! time → concurrent footprint `p · size(B)`).
//!
//! Both construction and the matvec run on `p` threads here: every
//! level-parallel loop of a build and the sweep engine are steps of the one
//! scoped executor (`h2_linalg::exec`), which sizes itself from the
//! installed width; operators and results are bitwise identical at every
//! `p`. Every row carries the host's `available_parallelism`: widths beyond
//! it time-share the cores.
//!
//! `--check` asserts the results are bitwise identical across the thread
//! counts, prints `T_mv(2) / T_mv(1)` and `T_const(2) / T_const(1)` per
//! method as information (single-shot wall clocks on a shared host are no
//! gate; the benchmark's bound on `op_p50_ms` / `build_s` is), then prints
//! `FIG7_THREADS_CHECK_OK`.

use h2_bench::{json_record, median_ms, table, write_json, Args, Table, PAPER_TOL};
use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
use h2_kernels::Coulomb;
use h2_linalg::exec::Width;
use h2_points::gen;
use std::sync::Arc;

json_record! {
    /// One (method, thread count) measurement.
    #[derive(Clone, Debug)]
    struct ThreadPoint {
        method: String,
        threads: usize,
        /// Cores the host offers this process.
        available_parallelism: usize,
        n: usize,
        /// Median construction over the timed repetitions, ms.
        t_const_ms: f64,
        /// Median matvec over the timed repetitions, ms.
        t_mv_ms: f64,
        /// Stored generator memory, KiB.
        mem_kib: f64,
        /// `threads` × the largest block one thread regenerates, KiB.
        concurrent_otf_kib: f64,
        rel_err: f64,
    }
}

/// Timed builds, and timed matvecs after one warm-up, per row; the row
/// reports the median of each.
const REPS: usize = 3;

fn main() {
    let args = Args::parse();
    let tol = args.tol_or(PAPER_TOL);
    let n = if args.full { 1_000_000 } else { 40_000 };
    let n = args.sizes.as_ref().map_or(n, |s| s[0]);
    let threads = args.threads.clone().unwrap_or_else(|| vec![1, 2, 4, 8]);
    let cores = std::thread::available_parallelism().map_or(1, |v| v.get());
    let pts = gen::uniform_cube(n, 3, args.seed);
    let b = h2_core::error_est::probe_vector(n, args.seed ^ 0x5EED);

    println!("Fig. 7: thread scaling, n={n}, cube, on-the-fly, tol={tol:.0e}, {REPS} reps");
    println!("host parallelism: {cores}\n");
    let mut rows: Vec<ThreadPoint> = Vec::new();
    let mut t = Table::new(&[
        "method",
        "threads",
        "T_const(ms)",
        "T_mv(ms)",
        "mem(KiB)",
        "concurrent OTF(KiB)",
    ]);
    for (mname, basis) in [
        ("data-driven", BasisMethod::data_driven_for_tol(tol, 3)),
        ("interpolation", BasisMethod::interpolation_for_tol(tol, 3)),
    ] {
        let mut reference: Option<Vec<f64>> = None;
        for &p in &threads {
            let cfg = H2Config {
                basis: basis.clone(),
                mode: MemoryMode::OnTheFly,
                ..H2Config::default()
            };
            let (h2, t_const_ms, y, t_mv_ms) = Width::new(p).install(|| {
                let mut built = None;
                let t_const_ms = median_ms(REPS, || {
                    built = None; // one operator alive at a time
                    built = Some(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg));
                });
                let h2 = built.expect("REPS is positive");
                let y = h2.matvec(&b); // warm-up, and the result to compare
                let t_mv_ms = median_ms(REPS, || drop(h2.matvec(&b)));
                (h2, t_const_ms, y, t_mv_ms)
            });
            let same = reference.get_or_insert_with(|| y.clone()) == &y;
            assert!(same, "{mname}: {p} threads changed the result");
            let mem = h2.memory_report();
            let rel_err =
                h2.estimate_rel_error(&b, &y, h2_core::error_est::PAPER_ERROR_ROWS, args.seed);
            // Paper Fig. 7c: concurrent OTF footprint = p x largest block.
            let concurrent_otf_kib = p as f64 * mem.max_otf_block as f64 / 1024.0;
            let row = ThreadPoint {
                method: mname.to_string(),
                threads: p,
                available_parallelism: cores,
                n,
                t_const_ms,
                t_mv_ms,
                mem_kib: mem.generators() as f64 / 1024.0,
                concurrent_otf_kib,
                rel_err,
            };
            t.row(vec![
                mname.to_string(),
                p.to_string(),
                table::ms(row.t_const_ms),
                table::ms(row.t_mv_ms),
                table::kib(row.mem_kib),
                table::kib(row.concurrent_otf_kib),
            ]);
            rows.push(row);
        }
    }
    t.print();

    if args.check {
        // Bitwise equality across widths was asserted row by row above.
        let at = |method: &str, p: usize| {
            let row = rows.iter().find(|r| r.method == method && r.threads == p);
            row.map(|r| [("T_mv", r.t_mv_ms), ("T_const", r.t_const_ms)])
        };
        for method in ["data-driven", "interpolation"] {
            let (Some(one), Some(two)) = (at(method, 1), at(method, 2)) else {
                panic!("--check needs --threads to include 1 and 2")
            };
            for ((what, one), (_, two)) in one.into_iter().zip(two) {
                println!("{method}: {what}(2) / {what}(1) = {:.2}", two / one);
            }
        }
        println!("FIG7_THREADS_CHECK_OK");
    }

    write_json(&args.json, rows);
}
