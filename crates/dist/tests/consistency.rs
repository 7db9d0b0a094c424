//! Sharded-equals-serial consistency suite.
//!
//! The contract is `≤ 1e-12` relative deviation across the full matrix of
//! shard counts × memory modes × kernels; the implementation actually
//! achieves bit-exactness (every per-node computation keeps the serial
//! operand order), so the assertions here demand exact equality and the
//! tolerance contract holds with margin. `n = 603` is deliberately not
//! divisible by any tested shard count.

use h2_core::error_est::probe_vector;
use h2_core::{BasisMethod, H2Config, H2Matrix, H2Operator, MemoryMode};
use h2_dist::{run_coordinator, run_shard, ChannelEndpoint, ShardedH2};
use h2_kernels::{Coulomb, Exponential, Kernel};
use h2_points::gen;
use h2_serve::MatvecService;
use std::sync::Arc;

const N: usize = 603;
const SHARDS: [usize; 4] = [1, 2, 4, 7];

fn build(kernel: Arc<dyn Kernel>, mode: MemoryMode) -> Arc<H2Matrix> {
    let pts = gen::uniform_cube(N, 3, 42);
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-6, 3),
        mode,
        leaf_size: 32,
        eta: 0.7,
        ..H2Config::default()
    };
    Arc::new(H2Matrix::build(&pts, kernel, &cfg))
}

#[test]
fn sharded_equals_serial_across_kernels_modes_and_shard_counts() {
    let kernels: [(&str, Arc<dyn Kernel>); 2] = [
        ("coulomb", Arc::new(Coulomb)),
        ("exponential", Arc::new(Exponential)),
    ];
    for (kname, kernel) in kernels {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let h2 = build(kernel.clone(), mode);
            let b = probe_vector(N, 7);
            let serial = h2.matvec(&b);
            for shards in SHARDS {
                let sh = ShardedH2::new(h2.clone(), shards)
                    .unwrap_or_else(|e| panic!("{kname}/{}/{shards}: {e}", mode.name()));
                let dist = sh.matvec(&b);
                // Exact equality — stronger than the 1e-12 contract.
                assert_eq!(
                    dist,
                    serial,
                    "{kname}/{}/{shards} shards diverged",
                    mode.name()
                );
                // And the documented contract, stated as such.
                let rel = h2_linalg::vec_ops::rel_err(&dist, &serial);
                assert!(rel <= 1e-12, "{kname}/{}/{shards}: rel {rel}", mode.name());
            }
        }
    }
}

#[test]
fn ranks_stay_at_width_one_under_a_wide_pool() {
    // A rank is the unit of parallelism: inside a 4-wide pool the serial
    // product runs on four threads, every shard and the coordinator on one
    // each, and the bits are the same. Each rank is driven here on a thread
    // that counts its own sweep helpers.
    let helpers = || h2_telemetry::local_scope();
    h2_linalg::exec::Width::new(4).install(|| {
        let h2 = build(Arc::new(Coulomb), MemoryMode::OnTheFly);
        let b = probe_vector(N, 13);
        let wide = helpers();
        let serial = h2.matvec(&b);
        assert_eq!(wide.count("sweep.helper_threads"), 3, "serial width");
        for shards in SHARDS {
            let sh = ShardedH2::new(h2.clone(), shards).unwrap();
            assert_eq!(sh.matvec(&b), serial, "{shards} shards");
            let part = sh.plan();
            let mut eps = ChannelEndpoint::<f64>::mesh(shards + 1);
            let mut coord_ep = eps.pop().unwrap();
            let (y, spawned) = std::thread::scope(|scope| {
                let ranks: Vec<_> = eps
                    .iter_mut()
                    .enumerate()
                    .map(|(s, ep)| {
                        let h2 = &*h2;
                        scope.spawn(move || {
                            let mine = helpers();
                            run_shard::<f64, f64, _>(h2, part, s, ep).unwrap();
                            mine.count("sweep.helper_threads")
                        })
                    })
                    .collect();
                let mine = helpers();
                let (y, _) = run_coordinator(&h2, part, &mut coord_ep, &b).unwrap();
                let ranks = ranks.into_iter().map(|r| r.join().unwrap());
                (y, mine.count("sweep.helper_threads") + ranks.sum::<u64>())
            });
            assert_eq!(y, serial, "{shards} shards, ranks by hand");
            assert_eq!(spawned, 0, "{shards} shards: a rank ran wide");
        }
    });
}

#[test]
fn sharded_equals_serial_at_deeper_explicit_levels() {
    let h2 = build(Arc::new(Coulomb), MemoryMode::OnTheFly);
    let b = probe_vector(N, 11);
    let serial = h2.matvec(&b);
    let depth = h2.tree().depth();
    for level in 1..=depth {
        let sh = match ShardedH2::with_level(h2.clone(), 2, level) {
            Ok(sh) => sh,
            Err(e) => panic!("level {level}: {e}"),
        };
        assert_eq!(sh.matvec(&b), serial, "level {level} diverged");
    }
}

#[test]
fn per_matvec_traffic_is_mode_independent() {
    // Only coefficient panels move at matvec time, so stored and
    // on-the-fly runs exchange exactly the same bytes; the modes differ in
    // the modeled one-time setup traffic instead.
    let b = probe_vector(N, 13);
    let mut per_mode = Vec::new();
    for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
        let sh = ShardedH2::new(build(Arc::new(Coulomb), mode), 4).unwrap();
        let (_, stats) = sh.matvec_with_stats(&b);
        per_mode.push((
            stats.total_messages(),
            stats.total_bytes(),
            sh.setup_bytes(),
        ));
    }
    let (msgs_n, bytes_n, setup_n) = per_mode[0];
    let (msgs_o, bytes_o, setup_o) = per_mode[1];
    assert_eq!(msgs_n, msgs_o);
    assert_eq!(bytes_n, bytes_o);
    assert!(
        setup_o < setup_n,
        "on-the-fly setup {setup_o} B must shrink below stored {setup_n} B"
    );
}

#[test]
fn matvec_service_serves_a_sharded_operator() {
    let h2 = build(Arc::new(Coulomb), MemoryMode::Normal);
    let sh = Arc::new(ShardedH2::new(h2.clone(), 2).unwrap());
    let svc = MatvecService::new(sh, 4);
    let tickets: Vec<_> = (0..6)
        .map(|s| svc.submit(probe_vector(N, 100 + s)).unwrap())
        .collect();
    let report = svc.drain();
    assert_eq!(report.requests, 6);
    for (s, t) in tickets.into_iter().enumerate() {
        assert_eq!(
            t.wait().unwrap(),
            h2.matvec(&probe_vector(N, 100 + s as u64)),
            "request {s}"
        );
    }
    let m = svc.metrics();
    assert_eq!(m.requests, 6);
    assert!(m.p99_compute_us > 0);
}

#[test]
fn matvec_into_and_matmat_defaults_work() {
    let h2 = build(Arc::new(Coulomb), MemoryMode::OnTheFly);
    let sh = ShardedH2::new(h2, 2).unwrap();
    let b = probe_vector(N, 23);
    let mut y = vec![f64::NAN; N];
    sh.matvec_into(&b, &mut y);
    assert_eq!(y, ShardedH2::matvec(&sh, &b));
    let panel = h2_linalg::Matrix::from_fn(N, 2, |i, j| ((i + j) % 3) as f64 - 1.0);
    let out = sh.matmat(&panel);
    for c in 0..2 {
        assert_eq!(out.col(c), &ShardedH2::matvec(&sh, panel.col(c))[..]);
    }
}
