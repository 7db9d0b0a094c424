//! **Discussion §VI-B** — normal vs on-the-fly break-even analysis.
//!
//! The paper: "on-the-fly memory is ideal for cases where the number of
//! matrix-vector products for each construction is small, while the normal
//! memory mode might be preferred when many products are performed per
//! construction." This harness quantifies that: for each method it measures
//! construction and matvec in both modes and prints the break-even count
//! `k* = (T_const^otf − T_const^normal) / (T_mv^otf − T_mv^normal)`
//! (negative/infinite values mean one mode dominates outright), plus the
//! total-time curves at representative k.

use h2_bench::{metrics, table, Args, Table};
use h2_core::{BasisMethod, H2Config, MemoryMode};
use h2_kernels::Coulomb;
use h2_points::gen;
use std::sync::Arc;

fn main() {
    let args = Args::parse();
    let n = if args.full { 80_000 } else { 10_000 };
    let n = args.sizes.as_ref().map_or(n, |s| s[0]);
    let tol = args.tol_or(1e-6);
    let pts = gen::uniform_cube(n, 3, args.seed);

    println!("Amortization analysis: n={n}, cube, Coulomb, tol={tol:.0e}\n");
    let mut rows = Vec::new();
    let mut t = Table::new(&[
        "method",
        "T_const normal",
        "T_const otf",
        "T_mv normal",
        "T_mv otf",
        "break-even k*",
    ]);
    for (mname, basis) in [
        ("data-driven", BasisMethod::data_driven_for_tol(tol, 3)),
        ("interpolation", BasisMethod::interpolation_for_tol(tol, 3)),
    ] {
        let run = |mode| {
            let cfg = H2Config {
                basis: basis.clone(),
                mode,
                ..H2Config::default()
            };
            metrics::run_config(
                &format!("{mname}/{}", mode.name()),
                &pts,
                Arc::new(Coulomb),
                &cfg,
                args.seed,
            )
        };
        let normal = run(MemoryMode::Normal);
        let otf = run(MemoryMode::OnTheFly);
        let dconst = normal.t_const_ms - otf.t_const_ms;
        let dmv = otf.t_mv_ms - normal.t_mv_ms;
        let breakeven = if dmv > 0.0 && dconst > 0.0 {
            format!("{:.0}", dconst / dmv)
        } else if dmv <= 0.0 {
            "otf dominates".to_string()
        } else {
            "normal dominates".to_string()
        };
        t.row(vec![
            mname.to_string(),
            table::ms(normal.t_const_ms),
            table::ms(otf.t_const_ms),
            table::ms(normal.t_mv_ms),
            table::ms(otf.t_mv_ms),
            breakeven,
        ]);
        // Total-time curves at representative matvec counts.
        println!("{mname}: total time (construction + k matvecs), ms");
        for k in [1usize, 10, 100, 1000] {
            let tn = normal.t_const_ms + k as f64 * normal.t_mv_ms;
            let to = otf.t_const_ms + k as f64 * otf.t_mv_ms;
            let winner = if tn < to { "normal" } else { "on-the-fly" };
            println!("  k={k:<5} normal {tn:>10.0}   otf {to:>10.0}   -> {winner}");
        }
        println!();
        rows.push(normal);
        rows.push(otf);
    }
    t.print();
    metrics::write_json(&args.json, rows);
}
