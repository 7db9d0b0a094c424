//! **Fig. 6** — cumulative effect of the data-driven basis and the
//! on-the-fly memory mode: {data-driven, interpolation} × {normal,
//! on-the-fly} over an n sweep (cube, Coulomb).
//!
//! Expected shape (paper): the effects compose — data-driven + on-the-fly
//! gives the lowest memory and construction time; on-the-fly slightly slows
//! the matvec but greatly accelerates construction; normal-mode memory
//! scales with the *number and size* of farfield blocks, on-the-fly only
//! with their size.

use h2_bench::{metrics, paper_configs, table, Args, Table};
use h2_core::{BasisMethod, MemoryMode};
use h2_kernels::Coulomb;
use h2_points::gen;
use std::sync::Arc;

fn main() {
    let args = Args::parse();
    // Default accuracy 1e-6 (order-6 interpolation) so the interpolation/
    // normal configuration fits laptop memory; --tol 1e-8 --full restores
    // the paper's setting.
    let tol = args.tol_or(if args.full { 1e-8 } else { 1e-6 });
    let sizes = args.sweep(&[2_000, 5_000, 10_000, 20_000], &[20_000, 80_000, 320_000]);

    println!("Fig. 6: cumulative effects, cube, Coulomb, tol={tol:.0e}\n");
    let mut rows = Vec::new();
    let mut t = Table::new(&[
        "config",
        "n",
        "T_const(ms)",
        "T_mv(ms)",
        "mem(KiB)",
        "rel err",
    ]);
    for (label, cfg) in paper_configs(tol, 3) {
        // Interpolation in normal mode materializes rank^2-sized coupling
        // blocks; cap its sweep to sizes that fit (the paper needed 128 GB
        // for its 320k interpolation/normal run).
        let cap = match (&cfg.basis, cfg.mode) {
            (BasisMethod::Interpolation { .. }, MemoryMode::Normal) if !args.full => 10_000,
            _ => usize::MAX,
        };
        for &n in sizes.iter().filter(|&&n| n <= cap) {
            let pts = gen::uniform_cube(n, 3, args.seed);
            let m = metrics::run_config(&label, &pts, Arc::new(Coulomb), &cfg, args.seed);
            t.row(vec![
                label.clone(),
                n.to_string(),
                table::ms(m.t_const_ms),
                table::ms(m.t_mv_ms),
                table::kib(m.mem_kib),
                table::err(m.rel_err),
            ]);
            rows.push(m);
        }
    }
    t.print();
    metrics::write_json(&args.json, rows);
}
