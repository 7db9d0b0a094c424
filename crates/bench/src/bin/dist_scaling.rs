//! **Distributed-execution study** — communication volume and phase costs
//! of the sharded matvec as the shard count grows.
//!
//! `h2-dist` cuts the cluster tree at a distribution level into contiguous
//! subtree shards and runs the five-sweep matvec over an explicit
//! message-passing transport. Because the sharded result is bit-identical
//! to the serial one, everything interesting here is in the *costs*: wire
//! bytes and messages per matvec, the modeled one-time setup traffic
//! (where the on-the-fly mode's advantage shows — it ships kernel
//! generators instead of dense blocks), and the per-phase critical path
//! across shards. Both memory modes run over the same point set so the
//! rows are directly comparable.

use h2_bench::{json_record, write_json, Args, Table};
use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
use h2_dist::ShardedH2;
use h2_kernels::Coulomb;
use h2_linalg::vec_ops::rel_err;
use h2_points::gen;
use std::sync::Arc;
use std::time::Instant;

json_record! {
    /// One measured (mode, shard-count) cell.
    #[derive(Clone, Debug)]
    struct DistRow {
        mode: String,
        shards: usize,
        /// Distribution level the tree was cut at.
        level: usize,
        matvec_ms: f64,
        /// Matvecs per second at this shard count.
        throughput: f64,
        /// Modeled one-time setup traffic (basis + block/generator shipping).
        setup_bytes: u64,
        /// Wire bytes exchanged per matvec (coefficient panels only).
        matvec_bytes: u64,
        /// Messages per matvec.
        messages: u64,
        /// Max-over-shards phase seconds (the critical path's shape).
        upward_s: f64,
        exchange_s: f64,
        horizontal_s: f64,
        downward_s: f64,
        leaf_s: f64,
        /// Coordinator top-tree seconds.
        top_s: f64,
        /// Relative deviation from the serial matvec (bit-exact → 0).
        rel_err: f64,
    }
}

fn main() {
    let args = Args::parse();
    let n = if args.full { 40_000 } else { 6_000 };
    let n = args.sizes.as_ref().map_or(n, |s| s[0]);
    let tol = args.tol_or(1e-6);
    let shard_counts = args.threads.clone().unwrap_or_else(|| vec![1, 2, 4, 8]);
    let reps = if args.full { 5 } else { 3 };
    let pts = gen::uniform_cube(n, 3, args.seed);
    let b = h2_core::error_est::probe_vector(n, args.seed ^ 0xd15);

    println!("Dist scaling: n={n}, cube, Coulomb, tol={tol:.0e}, shards {shard_counts:?}\n");
    let mut rows: Vec<DistRow> = Vec::new();
    for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(tol, 3),
            mode,
            ..H2Config::default()
        };
        let h2 = Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg));
        let serial = h2.matvec(&b);
        let mut t = Table::new(&[
            "shards",
            "level",
            "matvec ms",
            "mv/s",
            "setup KB",
            "wire KB/mv",
            "msgs",
            "exch ms",
            "top ms",
        ]);
        for &s in &shard_counts {
            let sh = match ShardedH2::new(h2.clone(), s) {
                Ok(sh) => sh,
                Err(e) => {
                    eprintln!("skip {s} shards ({}): {e}", mode.name());
                    continue;
                }
            };
            // Warm-up, then time `reps` matvecs; stats come from the last.
            let (y, _) = sh.matvec_with_stats(&b);
            let t0 = Instant::now();
            let mut stats = None;
            for _ in 0..reps {
                stats = Some(sh.matvec_with_stats(&b).1);
            }
            let secs = t0.elapsed().as_secs_f64() / reps as f64;
            let stats = stats.expect("reps >= 1");
            let phases = stats.max_phases();
            let row = DistRow {
                mode: mode.name().to_string(),
                shards: s,
                level: sh.level(),
                matvec_ms: secs * 1e3,
                throughput: 1.0 / secs,
                setup_bytes: sh.setup_bytes(),
                matvec_bytes: stats.total_bytes(),
                messages: stats.total_messages(),
                upward_s: phases.upward,
                exchange_s: phases.exchange,
                horizontal_s: phases.horizontal,
                downward_s: phases.downward,
                leaf_s: phases.leaf,
                top_s: stats.coordinator.top,
                rel_err: rel_err(&y, &serial),
            };
            t.row(vec![
                s.to_string(),
                row.level.to_string(),
                format!("{:.2}", row.matvec_ms),
                format!("{:.0}", row.throughput),
                format!("{:.1}", row.setup_bytes as f64 / 1024.0),
                format!("{:.1}", row.matvec_bytes as f64 / 1024.0),
                row.messages.to_string(),
                format!("{:.2}", row.exchange_s * 1e3),
                format!("{:.2}", row.top_s * 1e3),
            ]);
            assert!(
                row.rel_err <= 1e-12,
                "{}/{} shards: rel err {} above contract",
                mode.name(),
                s,
                row.rel_err
            );
            rows.push(row);
        }
        println!("mode = {}", mode.name());
        t.print();
        println!();
    }

    write_json(&args.json, rows);
}
