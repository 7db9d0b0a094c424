//! Property tests of the budgeted block-cache tier (see `h2-cache`):
//!
//! - every budget — `Off`, 0 bytes, a ratio, `Unbounded` — is bitwise
//!   identical to normal mode and to the pure on-the-fly path, across
//!   kernels and storage precisions, for both the vector and the panel
//!   sweeps, and misses per product fall strictly as the budget grows,
//! - the byte-budget invariant holds while parallel matvecs hammer one
//!   shared cache, and intermediate budgets keep full accuracy.

use h2_core::{BasisMethod, CacheBudget, H2Config, H2Matrix, H2MatrixS, MemoryMode, Precision};
use h2_kernels::{Coulomb, Exponential, Kernel};
use h2_linalg::{Matrix, MatrixS, Scalar};
use h2_points::gen;
use std::sync::Arc;

const N: usize = 700;

fn cfg(mode: MemoryMode, budget: CacheBudget) -> H2Config {
    H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-6, 3),
        mode,
        leaf_size: 40,
        eta: 0.7,
        cache_budget: budget,
        ..H2Config::default()
    }
}

fn rhs<A: Scalar>(n: usize) -> Vec<A> {
    (0..n)
        .map(|i| A::from_f64(((i as f64) * 0.37).sin()))
        .collect()
}

/// Builds OTF operators at each budget plus a normal-mode reference and
/// checks the bitwise endpoint identities for storage scalar `S`.
fn endpoints_bitwise<S: Scalar>(kernel: Arc<dyn Kernel>) {
    let pts = gen::uniform_cube(N, 3, 17);
    let b = rhs::<S>(N);

    let otf = H2MatrixS::<S>::build(
        &pts,
        kernel.clone(),
        &cfg(MemoryMode::OnTheFly, CacheBudget::Off),
    );
    let normal = H2MatrixS::<S>::build(
        &pts,
        kernel.clone(),
        &cfg(MemoryMode::Normal, CacheBudget::Off),
    );
    assert!(otf.cache().is_none(), "budget Off must not install a cache");

    // A block not held is materialized as normal mode stores it and
    // applied with the same routines.
    let y_otf = otf.matvec(&b);
    let y_normal = normal.matvec(&b);
    assert_eq!(y_otf, y_normal, "on-the-fly != normal (bitwise)");

    // Budget 0 spelled explicitly installs no cache.
    let zero = H2MatrixS::<S>::build(
        &pts,
        kernel.clone(),
        &cfg(MemoryMode::OnTheFly, CacheBudget::Bytes(0)),
    );
    assert!(zero.cache().is_none());
    assert_eq!(zero.matvec(&b), y_normal, "budget 0 != normal (bitwise)");

    // Unbounded budget: everything resident, applied with the normal-mode
    // routines → bitwise identical to normal mode.
    let full = H2MatrixS::<S>::build(
        &pts,
        kernel.clone(),
        &cfg(MemoryMode::OnTheFly, CacheBudget::Unbounded),
    );
    let cache = full.cache().expect("unbounded budget installs a cache");
    assert_eq!(
        cache.resident_bytes(),
        full.full_block_bytes(),
        "an unbounded budget holds every block"
    );

    // Any partial budget is still bitwise ≡ normal: misses regenerate the
    // same S-scalar block the normal builder materializes and apply it
    // with the same routines. A partial budget both hits and misses, and
    // misses per product fall strictly as the budget grows.
    let partial = |ratio: f64| {
        H2MatrixS::<S>::build(
            &pts,
            kernel.clone(),
            &cfg(MemoryMode::OnTheFly, CacheBudget::Ratio(ratio)),
        )
    };
    let (quarter, half) = (partial(0.25), partial(0.5));
    let mut misses = Vec::new();
    for (what, h2) in [("25%", &quarter), ("50%", &half), ("∞", &full)] {
        let cache = h2.cache().expect("a nonzero budget installs a cache");
        assert!(cache.resident_bytes() <= cache.budget_bytes());
        let before = h2.cache_stats().unwrap();
        assert_eq!(h2.matvec(&b), y_normal, "budget {what} != normal (bitwise)");
        let after = h2.cache_stats().unwrap();
        let (hits, missed) = (after.hits - before.hits, after.misses - before.misses);
        if what != "∞" {
            assert!(cache.budget_bytes() < full.full_block_bytes());
            assert!(
                hits > 0 && missed > 0,
                "{what}: {hits} hits, {missed} misses"
            );
        }
        misses.push(missed);
    }
    assert!(
        misses.windows(2).all(|w| w[0] > w[1]),
        "misses per product must fall as the budget grows: {misses:?}"
    );

    // Same endpoint identities for the panel product, column by column.
    let panel = MatrixS::<S>::from_fn(N, 3, |i, j| {
        S::from_f64(((i * 7 + j * 13) % 5) as f64 - 2.0)
    });
    let y_normal = normal.matmat(&panel);
    let tiers = [
        ("off", &otf),
        ("0", &zero),
        ("∞", &full),
        ("25%", &quarter),
        ("50%", &half),
    ];
    for (what, h2) in tiers {
        assert_eq!(
            h2.matmat(&panel).as_slice(),
            y_normal.as_slice(),
            "matmat budget {what} != normal"
        );
    }
}

#[test]
fn endpoints_bitwise_f64_coulomb() {
    endpoints_bitwise::<f64>(Arc::new(Coulomb));
}

#[test]
fn endpoints_bitwise_f64_exponential() {
    endpoints_bitwise::<f64>(Arc::new(Exponential));
}

#[test]
fn endpoints_bitwise_f32_coulomb() {
    endpoints_bitwise::<f32>(Arc::new(Coulomb));
}

#[test]
fn endpoints_bitwise_mixed_precision() {
    // Mixed mode: f32 storage, f64 accumulation. Every tier applies f32
    // blocks with the f64 accumulator — exactly what normal mode does — so
    // the endpoint identities hold here too.
    let pts = gen::uniform_cube(N, 3, 19);
    let b = rhs::<f64>(N);
    let kernel: Arc<dyn Kernel> = Arc::new(Coulomb);

    let otf = H2MatrixS::<f32>::build(
        &pts,
        kernel.clone(),
        &cfg(MemoryMode::OnTheFly, CacheBudget::Off),
    );
    let normal = H2MatrixS::<f32>::build(
        &pts,
        kernel.clone(),
        &cfg(MemoryMode::Normal, CacheBudget::Off),
    );
    let full = H2MatrixS::<f32>::build(
        &pts,
        kernel.clone(),
        &cfg(MemoryMode::OnTheFly, CacheBudget::Unbounded),
    );
    let zero = H2MatrixS::<f32>::build(
        &pts,
        kernel,
        &cfg(MemoryMode::OnTheFly, CacheBudget::Bytes(0)),
    );
    let y_normal = normal.matvec_f64(&b);
    for (what, h2) in [("off", &otf), ("0", &zero), ("∞", &full)] {
        assert_eq!(h2.matvec_f64(&b), y_normal, "budget {what} != normal");
    }
}

#[test]
fn precision_config_respects_budget() {
    // The runtime-dispatched precision path builds through the same
    // `build::<S>` entry point, so the budget arrives there too.
    use h2_core::{AnyH2, H2Operator};
    let pts = gen::uniform_cube(400, 3, 23);
    let c = H2Config {
        precision: Precision::MixedF32,
        mode: MemoryMode::OnTheFly,
        cache_budget: CacheBudget::Ratio(0.25),
        basis: BasisMethod::data_driven_for_tol(1e-5, 3),
        leaf_size: 40,
        ..H2Config::default()
    };
    let op = AnyH2::build(&pts, Arc::new(Coulomb), &c);
    let stats = op.cache_stats().expect("cache installed through AnyH2");
    assert!(stats.budget_bytes > 0);
    assert!(stats.resident_bytes <= stats.budget_bytes);
    let y = op.matvec(&vec![1.0; 400]);
    assert_eq!(y.len(), 400);
}

#[test]
fn set_cache_budget_is_noop_in_normal_mode_and_reversible_in_otf() {
    let pts = gen::uniform_cube(500, 3, 29);
    let kernel: Arc<dyn Kernel> = Arc::new(Coulomb);
    let mut normal = H2Matrix::build(
        &pts,
        kernel.clone(),
        &cfg(MemoryMode::Normal, CacheBudget::Off),
    );
    normal.set_cache_budget(CacheBudget::Unbounded);
    assert!(
        normal.cache().is_none(),
        "normal mode never installs a cache"
    );

    let mut otf = H2Matrix::build(&pts, kernel, &cfg(MemoryMode::OnTheFly, CacheBudget::Off));
    otf.set_cache_budget(CacheBudget::Ratio(0.3));
    assert!(otf.cache().is_some());
    let report = otf.memory_report();
    assert_eq!(report.cached_blocks, otf.cache().unwrap().resident_bytes());
    assert!(report.cached_blocks > 0);
    otf.set_cache_budget(CacheBudget::Off);
    assert!(otf.cache().is_none(), "budget Off uninstalls the cache");
    assert_eq!(otf.memory_report().cached_blocks, 0);
}

#[test]
fn concurrent_matvecs_share_one_cache_within_budget() {
    // Satellite: hammer one `Cached`-tier operator from parallel sweep
    // threads. Every result must stay bitwise ≡ normal mode (no torn
    // panels) and the resident-byte invariant must hold throughout.
    let pts = gen::uniform_cube(N, 3, 31);
    let kernel: Arc<dyn Kernel> = Arc::new(Coulomb);
    let normal = H2Matrix::build(
        &pts,
        kernel.clone(),
        &cfg(MemoryMode::Normal, CacheBudget::Off),
    );
    // A deliberately tight budget (20%): most requests miss and regenerate
    // beside concurrent readers of the resident fifth.
    let h2 = Arc::new(H2Matrix::build(
        &pts,
        kernel,
        &cfg(MemoryMode::OnTheFly, CacheBudget::Ratio(0.2)),
    ));
    let cache = Arc::clone(h2.cache().expect("cache installed"));
    assert!(cache.budget_bytes() > 0);

    let threads = 8;
    let rounds = 6;
    let mut expected = Vec::new();
    for t in 0..threads {
        let b: Vec<f64> = (0..N)
            .map(|i| ((i as f64) * 0.11 + t as f64).sin())
            .collect();
        expected.push((b.clone(), normal.matvec(&b)));
    }

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = {
        let cache = Arc::clone(&cache);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut max_seen = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                max_seen = max_seen.max(cache.resident_bytes());
                std::thread::yield_now();
            }
            max_seen
        })
    };

    std::thread::scope(|s| {
        for (b, y_ref) in &expected {
            let h2 = Arc::clone(&h2);
            s.spawn(move || {
                for _ in 0..rounds {
                    assert_eq!(&h2.matvec(b), y_ref, "torn or stale cached panel");
                }
            });
        }
    });
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let max_seen = watcher.join().unwrap();

    let stats = cache.stats();
    assert!(max_seen <= stats.budget_bytes, "budget invariant violated");
    assert!(stats.resident_bytes <= stats.budget_bytes);
    assert!(stats.hits > 0, "the resident blocks must serve hits");
}

#[test]
fn matmat_columns_match_matvec_with_cache() {
    // The panel product stays column-wise bitwise identical to the vector
    // product when the cached tier is active (both route through the same
    // stored-block application).
    let pts = gen::uniform_cube(500, 3, 37);
    let h2 = H2Matrix::build(
        &pts,
        Arc::new(Coulomb),
        &cfg(MemoryMode::OnTheFly, CacheBudget::Ratio(0.4)),
    );
    let panel = Matrix::from_fn(500, 3, |i, j| ((i as f64) * 0.07 + j as f64).cos());
    let y = h2.matmat(&panel);
    for c in 0..3 {
        assert_eq!(y.col(c), h2.matvec(panel.col(c)), "column {c}");
    }
}

#[test]
fn telemetry_counters_track_cache_traffic() {
    let pts = gen::uniform_cube(400, 3, 41);
    let h2 = H2Matrix::build(
        &pts,
        Arc::new(Coulomb),
        &cfg(MemoryMode::OnTheFly, CacheBudget::Ratio(0.3)),
    );
    let b = rhs::<f64>(400);
    let before = h2_telemetry::snapshot().counter("cache.hit");
    let _ = h2.matvec(&b);
    let after = h2_telemetry::snapshot().counter("cache.hit");
    // The global counter is shared across parallel tests, so only the
    // monotone delta is meaningful here; per-cache counts are asserted
    // through `CacheStats`.
    assert!(
        after > before,
        "resident blocks must register telemetry hits"
    );
    let stats = h2.cache_stats().unwrap();
    assert!(stats.hits > 0);
    assert!(stats.resident_bytes <= stats.budget_bytes);
}
