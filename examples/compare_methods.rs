//! Head-to-head comparison of the paper's two basis constructions on one
//! problem: data-driven sampling and tensor-grid interpolation — at matched
//! target accuracy, in both memory modes.
//!
//! ```text
//! cargo run --release --example compare_methods
//! ```

use h2mv::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let n = 15_000;
    let tol = 1e-6;
    println!("== basis method comparison: n={n}, cube 3D, Coulomb, tol={tol:.0e} ==\n");
    let pts = h2mv::points::gen::uniform_cube(n, 3, 9);
    let b = vec![1.0; n];

    println!(
        "{:<14} {:<11} {:>12} {:>10} {:>12} {:>10} {:>9}",
        "method", "mode", "T_const(ms)", "T_mv(ms)", "mem(KiB)", "rel err", "max rank"
    );
    for (name, basis) in [
        ("data-driven", BasisMethod::data_driven_for_tol(tol, 3)),
        ("interpolation", BasisMethod::interpolation_for_tol(tol, 3)),
    ] {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let cfg = H2Config {
                basis: basis.clone(),
                mode,
                ..H2Config::default()
            };
            let t = Instant::now();
            let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
            let t_const = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let y = h2.matvec(&b);
            let t_mv = t.elapsed().as_secs_f64() * 1e3;
            let err = h2.estimate_rel_error(&b, &y, 12, 5);
            let mem = h2.memory_report().generators() as f64 / 1024.0;
            println!(
                "{:<14} {:<11} {:>12.0} {:>10.1} {:>12.0} {:>10.1e} {:>9}",
                name,
                mode.name(),
                t_const,
                t_mv,
                mem,
                err,
                h2.ranks().iter().max().copied().unwrap_or(0)
            );
        }
    }
    println!("\nboth share the H² skeleton; they differ only in how the farfield");
    println!("is summarized: sampled data (paper) or a tensor grid. The rank");
    println!("column is the story.");
}
