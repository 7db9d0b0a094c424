//! N-body potential summation on a highly non-uniform surface point cloud —
//! the workload class (gravitational / Coulomb potentials) that motivated
//! hierarchical methods in the first place (Barnes–Hut, FMM), run on the
//! paper's "dino" geometry.
//!
//! Demonstrates: non-uniform data handling, the normal-vs-on-the-fly
//! trade-off under repeated matvecs, and validation against the exact sum.
//!
//! ```text
//! cargo run --release --example nbody_potential
//! ```

use h2mv::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let n = 30_000;
    println!("== N-body potential on a dinosaur point cloud ({n} points) ==\n");
    let pts = h2mv::points::gen::dino(n, 3);

    // Non-uniform charges: heavier on the head (x > 1.5).
    let charges: Vec<f64> = (0..n)
        .map(|i| if pts.point(i)[0] > 1.5 { 2.0 } else { 1.0 })
        .collect();

    let mut results: Vec<(String, Vec<f64>)> = Vec::new();
    for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-7, 3),
            mode,
            ..H2Config::default()
        };
        let t = Instant::now();
        let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
        let t_const = t.elapsed().as_secs_f64() * 1e3;

        // Amortization study: the construction pays off over repeated
        // matvecs (the normal mode wins when many products are needed).
        let reps = 5;
        let t = Instant::now();
        let mut potential = Vec::new();
        for _ in 0..reps {
            potential = h2.matvec(&charges);
        }
        let t_mv = t.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let err = h2.estimate_rel_error(&charges, &potential, 12, 11);
        let mem = h2.memory_report().generators() as f64 / (1 << 20) as f64;
        println!(
            "{:<11}  construct {t_const:7.0} ms   matvec {t_mv:7.0} ms   mem {mem:8.1} MiB   err {err:.1e}",
            format!("{}:", match mode { MemoryMode::Normal => "normal", _ => "on-the-fly" }),
        );
        println!(
            "             break-even vs on-the-fly after ~{} matvecs",
            ((t_const / t_mv).ceil() as usize).max(1)
        );
        results.push((mode.name().to_string(), potential));
    }

    // Both modes apply the same blocks with the same arithmetic.
    let diff = h2mv::linalg::vec_ops::rel_err(&results[0].1, &results[1].1);
    println!("\nnormal vs on-the-fly agreement: {diff:.2e}");

    // Where is the potential largest? (Densest region: the body.)
    let (argmax, max) = results[0]
        .1
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap();
    let p = pts.point(argmax);
    println!(
        "hottest point: ({:.2}, {:.2}, {:.2}) with potential {max:.0}",
        p[0], p[1], p[2]
    );
}
