//! **Fig. 2** — rank comparison between the interpolation-based and the
//! data-driven bases.
//!
//! The paper colours the leaf-level block structure of a 10,000-point cube
//! problem (Coulomb, 1e-7) by basis rank: interpolation in the lower
//! triangle, data-driven in the upper, nearfield in red. This harness builds
//! both H² matrices, prints per-level rank statistics, and (with `--json`)
//! dumps one record per admissible pair with both methods' ranks so the
//! heatmap can be replotted.
//!
//! Expected shape (paper): data-driven ranks are *several times smaller*
//! than the uniform `order³` interpolation rank at the same accuracy.

use h2_bench::{json_record, write_json, Args, Table};
use h2_core::diagnostics::structure_report;
use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
use h2_kernels::Coulomb;
use h2_points::gen;
use std::sync::Arc;

fn main() {
    let args = Args::parse();
    let n = if args.full { 10_000 } else { 4_000 };
    let n = args.sizes.as_ref().map_or(n, |s| s[0]);
    let tol = args.tol_or(1e-7);
    let pts = gen::uniform_cube(n, 3, args.seed);

    println!("Fig. 2 rank map: n={n}, cube 3D, Coulomb, tol={tol:.0e}\n");
    let build = |basis: BasisMethod| {
        let cfg = H2Config {
            basis,
            mode: MemoryMode::OnTheFly,
            ..H2Config::default()
        };
        H2Matrix::build(&pts, Arc::new(Coulomb), &cfg)
    };
    let dd = build(BasisMethod::data_driven_for_tol(tol, 3));
    let interp = build(BasisMethod::interpolation_for_tol(tol, 3));
    let err_dd = h2_core::error_est::measured_rel_error(&dd, args.seed);
    let err_in = h2_core::error_est::measured_rel_error(&interp, args.seed);
    println!("measured error: data-driven {err_dd:.2e}, interpolation {err_in:.2e}\n");

    // Per-level rank statistics (both trees are built identically).
    let mut t = Table::new(&[
        "level",
        "nodes",
        "dd rank (mean)",
        "dd rank (max)",
        "interp rank",
    ]);
    let levels = structure_report(&dd).levels;
    for (l, nodes) in levels.iter().zip(dd.tree().levels()) {
        t.row(vec![
            l.level.to_string(),
            l.nodes.to_string(),
            format!("{:.1}", l.mean_rank),
            l.max_rank.to_string(),
            interp.rank(nodes[0]).to_string(),
        ]);
    }
    t.print();

    // Block-level summary over admissible pairs (what the figure colours).
    let pair_rank = |h2: &H2Matrix, i: usize, j: usize| -> usize { h2.rank(i).min(h2.rank(j)) };
    let pairs = &dd.lists().interaction_pairs;
    let dd_mean = pairs
        .iter()
        .map(|&(i, j)| pair_rank(&dd, i, j))
        .sum::<usize>() as f64
        / pairs.len().max(1) as f64;
    let in_mean = pairs
        .iter()
        .map(|&(i, j)| pair_rank(&interp, i, j))
        .sum::<usize>() as f64
        / pairs.len().max(1) as f64;
    println!(
        "\nadmissible pairs: {}  nearfield pairs: {}",
        pairs.len(),
        dd.lists().nearfield_pairs.len()
    );
    println!("mean block rank: data-driven {dd_mean:.1}, interpolation {in_mean:.1}");
    println!("rank reduction factor: {:.1}x", in_mean / dd_mean.max(1e-9));

    if args.json.is_some() {
        json_record! {
            struct PairRank {
                i: usize,
                j: usize,
                level_i: usize,
                level_j: usize,
                dd_rank: usize,
                interp_rank: usize,
            }
        }
        let rows: Vec<PairRank> = pairs
            .iter()
            .map(|&(i, j)| PairRank {
                i,
                j,
                level_i: dd.tree().node(i).level,
                level_j: dd.tree().node(j).level,
                dd_rank: pair_rank(&dd, i, j),
                interp_rank: pair_rank(&interp, i, j),
            })
            .collect();
        write_json(&args.json, rows);
    }
}
