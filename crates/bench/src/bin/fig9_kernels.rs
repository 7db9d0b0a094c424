//! **Fig. 9** — generality across kernel functions: Coulomb `1/r`, cubed
//! Coulomb `1/r³`, exponential `exp(−r)`, Gaussian `exp(−r²/0.1)` (cube,
//! on-the-fly, accuracy ≈ 1e-8).
//!
//! Expected shape (paper): the curves for the different kernels are nearly
//! indistinguishable (the data-driven method is kernel-independent in cost),
//! with the Gaussian the one mild outlier.

use h2_bench::{metrics, table, Args, Table, PAPER_TOL};
use h2_core::{BasisMethod, H2Config, MemoryMode};
use h2_points::gen;
use std::sync::Arc;

fn main() {
    let args = Args::parse();
    let tol = args.tol_or(PAPER_TOL);
    let dd_sizes = args.sweep(&[5_000, 10_000, 20_000], &[20_000, 80_000, 320_000]);
    let interp_cap = if args.full { 80_000 } else { 10_000 };

    println!("Fig. 9: kernel generality, cube, on-the-fly, tol={tol:.0e}\n");
    let mut rows = Vec::new();
    let mut t = Table::new(&[
        "kernel",
        "method",
        "n",
        "T_const(ms)",
        "T_mv(ms)",
        "mem(KiB)",
        "rel err",
    ]);
    for (kname, _) in h2_kernels::paper_kernels() {
        for (mname, basis, cap) in [
            (
                "data-driven",
                BasisMethod::data_driven_for_tol(tol, 3),
                usize::MAX,
            ),
            (
                "interpolation",
                BasisMethod::interpolation_for_tol(tol, 3),
                interp_cap,
            ),
        ] {
            for &n in dd_sizes.iter().filter(|&&n| n <= cap) {
                let pts = gen::uniform_cube(n, 3, args.seed);
                let kernel: Arc<dyn h2_kernels::Kernel> =
                    h2_kernels::kernel_by_name(kname).unwrap().into();
                let cfg = H2Config {
                    basis: basis.clone(),
                    mode: MemoryMode::OnTheFly,
                    ..H2Config::default()
                };
                let m =
                    metrics::run_config(&format!("{kname}/{mname}"), &pts, kernel, &cfg, args.seed);
                t.row(vec![
                    kname.to_string(),
                    mname.to_string(),
                    n.to_string(),
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
    metrics::write_json(&args.json, rows);
}
