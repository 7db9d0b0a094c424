//! **update_churn study** — sustained incremental insert/delete against the
//! dynamic-operator path (`h2_core::update`) versus rebuilding from scratch.
//!
//! Builds one data-driven on-the-fly operator, measures its construction
//! wall (the cost an update *avoids*), then runs churn rounds: each round
//! inserts a batch of fresh points and removes as many old ones through
//! `insert_points`/`remove_points`, recording the update latency, the
//! touched root-to-leaf path nodes, the refactored block count, and the
//! sampled relative error after the round. The paper-level claim under
//! test: a point edit touches ~O(log n) nodes (its root-to-leaf path on
//! both the insert and remove side), so update latency sits orders of
//! magnitude under the full-rebuild wall while accuracy holds at the
//! factorization tolerance.
//!
//! `--check` runs a small deterministic smoke and asserts the structural
//! O(log n) bound (per-round path nodes ≤ batch × 2 × (depth + 1)), a
//! touched-node fraction well under the tree size, accuracy within the
//! tolerance envelope after every round, agreement with a from-scratch
//! rebuild on the final point set, and on a budgeted operator zero stale
//! cache residency and the resident set and misses per product of the same
//! operator freshly budgeted — then prints `UPDATE_CHURN_CHECK_OK`.

use h2_bench::{json_record, table, write_json, Args, Table};
use h2_core::{BasisMethod, CacheBudget, H2Config, H2Matrix, MemoryMode};
use h2_kernels::Coulomb;
use h2_points::gen;
use std::sync::Arc;
use std::time::Instant;

json_record! {
    /// One measured churn round.
    #[derive(Clone, Debug)]
    struct ChurnRound {
        round: usize,
        inserted: usize,
        removed: usize,
        /// Wall time of the insert + remove batch, ms.
        t_update_ms: f64,
        /// Root-to-leaf path nodes re-factored (insert + remove side).
        path_nodes: usize,
        /// Coupling/nearfield blocks regenerated or re-indexed.
        refactored_blocks: usize,
        /// Local-escalation full rebuilds triggered (0 on the fast path).
        rebuilds: usize,
        /// Operator epoch after the round.
        epoch: u64,
        /// Sampled relative error vs exact kernel rows after the round.
        rel_err: f64,
    }
}

fn main() {
    let args = Args::parse();
    let check = args.check;

    let n = if check {
        2000
    } else if args.full {
        60_000
    } else {
        8_000
    };
    let n = args.sizes.as_ref().map_or(n, |s| s[0]);
    let tol = args.tol_or(1e-6);
    let rounds = if check { 4 } else { 8 };
    let batch = if check { 4 } else { 16 };
    let dim = 3;

    let pts = gen::uniform_cube(n, dim, args.seed);
    let kernel = Arc::new(Coulomb);
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(tol, dim),
        mode: MemoryMode::OnTheFly,
        cache_budget: if check {
            // The check also gates cache hygiene: run with a budgeted tier
            // so stale-epoch entries would be observable if they survived.
            CacheBudget::Ratio(0.5)
        } else {
            CacheBudget::Off
        },
        // A deep tree at check scale, so the touched-fraction assertion is
        // meaningful (paths must stay well under the node count).
        leaf_size: if check { 24 } else { 128 },
        ..H2Config::default()
    };

    println!(
        "Update churn: n={n}, cube, Coulomb, tol={tol:.0e}, \
         {rounds} rounds of +{batch}/-{batch} points\n"
    );

    let t = Instant::now();
    let mut h2 = H2Matrix::build(&pts, kernel.clone(), &cfg);
    let rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
    let depth = h2.tree().depth();
    println!(
        "full build: {rebuild_ms:.1} ms ({} tree nodes, depth {depth})\n",
        h2.tree().node_count()
    );

    let mut rows: Vec<ChurnRound> = Vec::new();
    let mut t_tab = Table::new(&[
        "round",
        "+/-",
        "T_update",
        "path nodes",
        "blocks",
        "rebuilds",
        "epoch",
        "speedup",
        "rel err",
    ]);
    for round in 0..rounds {
        // Fresh arrivals land anywhere in the cube; departures sweep
        // through the id space so every round hits different leaves.
        let arriving = gen::uniform_cube(batch, dim, args.seed + 1 + round as u64);
        let departing: Vec<usize> = (0..batch)
            .map(|k| (round * 131 + k * 977) % h2.n())
            .collect();

        let t = Instant::now();
        let ins = h2.insert_points(&arriving).expect("insert");
        let rem = h2.remove_points(&departing).expect("remove");
        let t_update_ms = t.elapsed().as_secs_f64() * 1e3;

        let b = h2_core::error_est::probe_vector(h2.n(), args.seed ^ (round as u64) << 4);
        let y = h2.matvec(&b);
        let rel_err = h2.estimate_rel_error(&b, &y, 12, args.seed + round as u64);

        let row = ChurnRound {
            round,
            inserted: ins.inserted,
            removed: rem.removed,
            t_update_ms,
            path_nodes: ins.path_nodes + rem.path_nodes,
            refactored_blocks: ins.refactored_blocks + rem.refactored_blocks,
            rebuilds: ins.rebuilds + rem.rebuilds,
            epoch: rem.epoch,
            rel_err,
        };
        t_tab.row(vec![
            format!("{round}"),
            format!("+{}/-{}", row.inserted, row.removed),
            table::ms(row.t_update_ms),
            format!("{}", row.path_nodes),
            format!("{}", row.refactored_blocks),
            format!("{}", row.rebuilds),
            format!("{}", row.epoch),
            format!("{:.0}x", rebuild_ms / row.t_update_ms),
            format!("{:.1e}", row.rel_err),
        ]);
        rows.push(row);
    }
    t_tab.print();

    let mean_update = rows.iter().map(|r| r.t_update_ms).sum::<f64>() / rows.len() as f64;
    let mean_path = rows.iter().map(|r| r.path_nodes).sum::<usize>() / rows.len();
    println!(
        "\nmean update {mean_update:.1} ms vs full rebuild {rebuild_ms:.1} ms \
         ({:.0}x); mean {mean_path} path nodes of {} total",
        rebuild_ms / mean_update,
        h2.tree().node_count()
    );

    if check {
        let envelope = 100.0 * tol;
        // Each edited point re-factors at most its root-to-leaf path on
        // the insert side and the remove side: the O(log n) locality bound.
        let per_round_cap = 2 * batch * (depth + 1) + 2;
        for r in &rows {
            assert!(
                r.path_nodes <= per_round_cap,
                "round {}: {} path nodes exceeds the O(log n) cap {per_round_cap}",
                r.round,
                r.path_nodes
            );
            assert!(
                r.path_nodes < h2.tree().node_count() / 2,
                "round {}: touched most of the tree ({} of {})",
                r.round,
                r.path_nodes,
                h2.tree().node_count()
            );
            assert_eq!(r.rebuilds, 0, "round {}: escalated to a rebuild", r.round);
            assert!(
                r.rel_err < envelope,
                "round {}: rel err {:.2e} above {envelope:.0e}",
                r.round,
                r.rel_err
            );
        }
        assert_eq!(rows.last().expect("rounds ran").epoch, 2 * rounds as u64);
        // Zero stale cache residency: every surviving entry carries the
        // epoch the update path would use to regenerate it.
        let stats = h2.cache_stats().expect("check runs with a budget");
        for (kind, i, j, epoch) in h2.cache().expect("budgeted").keys() {
            assert_eq!(
                epoch,
                h2.pair_epoch(i, j),
                "stale {kind:?} cache entry ({i}, {j})"
            );
        }
        assert!(
            stats.resident_bytes <= stats.budget_bytes,
            "cache over budget after churn"
        );
        // Every update re-planned the cached tier: it holds the blocks, and
        // a product misses as often, as on the same operator freshly
        // budgeted.
        let mut replanned = h2.clone();
        replanned.set_cache_budget(CacheBudget::Bytes(stats.budget_bytes as u64));
        let probe = h2_core::error_est::probe_vector(h2.n(), args.seed);
        let misses_per_mv = |h2: &H2Matrix| {
            let before = h2.cache_stats().expect("budgeted").misses;
            let _ = h2.matvec(&probe);
            h2.cache_stats().expect("budgeted").misses - before
        };
        assert_eq!(misses_per_mv(&h2), misses_per_mv(&replanned));
        let keys = |h2: &H2Matrix| h2.cache().expect("budgeted").keys();
        assert_eq!(keys(&h2), keys(&replanned));
        // Equivalence: a from-scratch rebuild on the updated point set is
        // the ground truth the updated operator must track.
        let fresh = H2Matrix::build(h2.tree().points(), kernel, &cfg);
        let b = h2_core::error_est::probe_vector(h2.n(), args.seed ^ 0xC0DE);
        let err = h2_linalg::vec_ops::rel_err(&h2.matvec(&b), &fresh.matvec(&b));
        assert!(
            err < envelope,
            "updated operator diverged from a fresh rebuild: {err:.2e}"
        );
        println!("UPDATE_CHURN_CHECK_OK");
    }

    write_json(&args.json, rows);
    print!("{}", h2_telemetry::snapshot().prometheus_text());
}
