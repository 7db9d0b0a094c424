//! **Fig. 8** — data-driven vs interpolation as a function of the
//! approximation error (cube, on-the-fly, Coulomb).
//!
//! Sweeps the target tolerance from 1e-2 to 1e-10 and reports, against the
//! *measured* relative error: construction time (8a), memory (8b), and
//! matvec time (8c).
//!
//! Expected shape (paper): data-driven wins on all three metrics at every
//! accuracy — including low accuracy, where interpolation is the classical
//! choice — and the gap widens as accuracy increases.

use h2_bench::{metrics, table, Args, Table};
use h2_core::{BasisMethod, H2Config, MemoryMode};
use h2_kernels::Coulomb;
use h2_points::gen;
use std::sync::Arc;

fn main() {
    let args = Args::parse();
    let n = if args.full { 80_000 } else { 10_000 };
    let n = args.sizes.as_ref().map_or(n, |s| s[0]);
    let tols: &[f64] = &[1e-2, 1e-4, 1e-6, 1e-8, 1e-10];
    let pts = gen::uniform_cube(n, 3, args.seed);

    println!("Fig. 8: accuracy sweep, n={n}, cube, on-the-fly, Coulomb\n");
    let mut rows = Vec::new();
    let mut t = Table::new(&[
        "method",
        "target tol",
        "measured err",
        "T_const(ms)",
        "T_mv(ms)",
        "mem(KiB)",
        "max rank",
    ]);
    for &tol in tols {
        for (mname, basis) in [
            ("data-driven", BasisMethod::data_driven_for_tol(tol, 3)),
            ("interpolation", BasisMethod::interpolation_for_tol(tol, 3)),
        ] {
            let cfg = H2Config {
                basis,
                mode: MemoryMode::OnTheFly,
                ..H2Config::default()
            };
            let m = metrics::run_config(
                &format!("{mname}/tol{tol:.0e}"),
                &pts,
                Arc::new(Coulomb),
                &cfg,
                args.seed,
            );
            t.row(vec![
                mname.to_string(),
                format!("{tol:.0e}"),
                table::err(m.rel_err),
                table::ms(m.t_const_ms),
                table::ms(m.t_mv_ms),
                table::kib(m.mem_kib),
                m.max_rank.to_string(),
            ]);
            rows.push(m);
        }
    }
    t.print();
    metrics::write_json(&args.json, rows);
}
