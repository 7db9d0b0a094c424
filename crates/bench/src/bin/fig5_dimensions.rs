//! **Fig. 5** — scaling with the number of dimensions (hypercube volumes),
//! on-the-fly mode, Coulomb, fixed accuracy.
//!
//! Expected shape (paper): interpolation cost and memory explode with the
//! dimension (rank `order^d`); the data-driven method degrades only mildly.
//! The paper could not run interpolation at its largest 5-D sizes — neither
//! can we: interpolation orders are capped in d ≥ 4 (the achieved-error
//! column makes the accuracy loss explicit), and its n sweep is truncated.
//! That infeasibility *is* the finding.

use h2_bench::{metrics, table, Args, Table, PAPER_TOL};
use h2_core::{BasisMethod, H2Config, MemoryMode};
use h2_kernels::Coulomb;
use h2_points::gen;
use std::sync::Arc;

fn main() {
    let args = Args::parse();
    let tol = args.tol_or(PAPER_TOL);
    let dd_sizes = args.sweep(&[5_000, 20_000], &[10_000, 40_000, 160_000]);
    let dims: &[usize] = &[2, 3, 4, 5];

    println!("Fig. 5: dimension scaling, on-the-fly, Coulomb, tol={tol:.0e}\n");
    let mut rows = Vec::new();
    let mut t = Table::new(&[
        "dim",
        "method",
        "n",
        "rank",
        "T_const(ms)",
        "T_mv(ms)",
        "mem(KiB)",
        "rel err",
    ]);
    for &d in dims {
        // Interpolation order: the tolerance-derived order in low dims; in
        // d >= 4 the tensor rank order^d forces a cap (paper hit the same
        // wall at scale).
        let full_order = match BasisMethod::interpolation_for_tol(tol, d) {
            BasisMethod::Interpolation { order } => order,
            _ => unreachable!(),
        };
        let capped_order = match d {
            0..=3 => full_order,
            4 => full_order.min(5),
            _ => full_order.min(4),
        };
        let interp_sizes: Vec<usize> = dd_sizes
            .iter()
            .copied()
            .filter(|&n| d <= 3 || n <= dd_sizes[0])
            .collect();
        for (mname, basis, sizes) in [
            (
                "data-driven",
                BasisMethod::data_driven_for_tol(tol, d),
                dd_sizes.clone(),
            ),
            (
                "interpolation",
                BasisMethod::Interpolation {
                    order: capped_order,
                },
                interp_sizes,
            ),
        ] {
            for &n in &sizes {
                let pts = gen::uniform_cube(n, d, args.seed);
                let cfg = H2Config {
                    basis: basis.clone(),
                    mode: MemoryMode::OnTheFly,
                    ..H2Config::default()
                };
                let m = metrics::run_config(
                    &format!("d{d}/{mname}"),
                    &pts,
                    Arc::new(Coulomb),
                    &cfg,
                    args.seed,
                );
                t.row(vec![
                    d.to_string(),
                    mname.to_string(),
                    n.to_string(),
                    m.max_rank.to_string(),
                    table::ms(m.t_const_ms),
                    table::ms(m.t_mv_ms),
                    table::kib(m.mem_kib),
                    table::err(m.rel_err),
                ]);
                rows.push(m);
            }
        }
    }
    t.print();
    println!(
        "\nnote: interpolation order capped to {} in 4D / {} in 5D (rank = order^d);",
        5, 4
    );
    println!("the paper likewise could not run interpolation at its largest high-D sizes.");
    metrics::write_json(&args.json, rows);
}
