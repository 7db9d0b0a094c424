//! **Fig. 4** — data-driven vs interpolation across point distributions
//! (cube volume, sphere surface, dino surface), on-the-fly mode, Coulomb,
//! accuracy ≈ 1e-8.
//!
//! Reports, per distribution and method over an n sweep: construction time
//! (4a), matvec time (4b), and memory (4c).
//!
//! Expected shape (paper): near-linear scaling in n for every curve; the
//! distributions nearly coincide in time; sphere uses less memory than cube
//! (sparser nearfield); the data-driven method beats interpolation on all
//! three metrics.

use h2_bench::{metrics, table, Args, Table, PAPER_TOL};
use h2_core::{BasisMethod, H2Config, MemoryMode};
use h2_kernels::Coulomb;
use h2_points::gen::Distribution3d;
use std::sync::Arc;

fn main() {
    let args = Args::parse();
    let tol = args.tol_or(PAPER_TOL);
    let dd_sizes = args.sweep(&[5_000, 10_000, 20_000, 40_000], &[20_000, 80_000, 320_000]);
    // Interpolation at ~1e-8 has rank order^3 = 512; cap its sweep lower —
    // exactly the constraint the paper reports for its own interp runs.
    let interp_sizes: Vec<usize> = dd_sizes
        .iter()
        .copied()
        .filter(|&n| args.sizes.is_some() || n <= if args.full { 80_000 } else { 20_000 })
        .collect();

    println!("Fig. 4: distributions, on-the-fly, Coulomb, tol={tol:.0e}\n");
    let mut rows = Vec::new();
    let mut t = Table::new(&[
        "dist",
        "method",
        "n",
        "T_const(ms)",
        "T_mv(ms)",
        "mem(KiB)",
        "rel err",
    ]);
    for dist in [
        Distribution3d::Cube,
        Distribution3d::Sphere,
        Distribution3d::Dino,
    ] {
        for (mname, basis, sizes) in [
            (
                "data-driven",
                BasisMethod::data_driven_for_tol(tol, 3),
                &dd_sizes,
            ),
            (
                "interpolation",
                BasisMethod::interpolation_for_tol(tol, 3),
                &interp_sizes,
            ),
        ] {
            for &n in sizes.iter() {
                let pts = dist.generate(n, args.seed);
                let cfg = H2Config {
                    basis: basis.clone(),
                    mode: MemoryMode::OnTheFly,
                    ..H2Config::default()
                };
                let label = format!("{}/{mname}", dist.name());
                let m = metrics::run_config(&label, &pts, Arc::new(Coulomb), &cfg, args.seed);
                t.row(vec![
                    dist.name().to_string(),
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
