//! Property tests of the budgeted block-cache tier (see `h2_core::cache`):
//!
//! - every budget — `Off`, 0 bytes, a ratio, `Unbounded` — is bitwise
//!   identical to normal mode and to the pure on-the-fly path, across
//!   kernels, storage precisions and product widths, for both the vector
//!   and the panel sweeps, and misses per product fall strictly as the
//!   budget grows; a normal-mode product generates nothing,
//! - an update carries every clean held block of the table by `Arc`, in
//!   normal mode and under a budget, and so does a new budget,
//! - a table slot is its pair's position in the operator's sorted pair
//!   lists, on random cubes, on a grid and through updates that relist,
//! - the byte-budget invariant holds while parallel matvecs hammer one
//!   shared cache, and intermediate budgets keep full accuracy.

use h2_core::{
    BasisMethod, BlockKind, CacheBudget, H2Config, H2Matrix, H2MatrixS, MemoryMode, UpdatePolicy,
};
use h2_kernels::{Coulomb, Exponential, Kernel};
use h2_linalg::{exec, Matrix, MatrixS, Scalar};
use h2_points::{gen, PointSet};
use std::collections::HashSet;
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

/// Budgets 0, 25 %, 50 % and full at product widths 1 and 2 against the
/// normal-mode product, for storage scalar `S` and accumulator `A`; the
/// normal-mode product reads every block and generates none.
fn budgets_and_widths_bitwise<S: Scalar, A: Scalar>(what: &str) {
    let pts = gen::uniform_cube(N, 3, 43);
    let kernel: Arc<dyn Kernel> = Arc::new(Coulomb);
    let build = |mode, budget| H2MatrixS::<S>::build(&pts, kernel.clone(), &cfg(mode, budget));
    let normal = build(MemoryMode::Normal, CacheBudget::Off);
    let b = MatrixS::<A>::from_fn(N, 2, |i, j| A::from_f64(((i * 3 + j) as f64 * 0.37).sin()));
    let at_width = |h2: &H2MatrixS<S>, width| exec::Width::new(width).install(|| h2.matmat(&b));
    let scope = h2_telemetry::local_scope();
    let want = at_width(&normal, 1);
    let generated = ["coupling_blocks", "nearfield_blocks", "kernel_evals"];
    assert_eq!(generated.map(|c| scope.count(c)), [0; 3], "{what}: normal");
    let budgets = [
        CacheBudget::Bytes(0),
        CacheBudget::Ratio(0.25),
        CacheBudget::Ratio(0.5),
        CacheBudget::Unbounded,
    ];
    for budget in budgets {
        let h2 = build(MemoryMode::OnTheFly, budget);
        for (tier, h2) in [("normal", &normal), ("budget", &h2)] {
            for width in [1, 2] {
                let y = at_width(h2, width);
                let cell = format!("{what}: {tier} {budget}, width {width}");
                assert_eq!(y.as_slice(), want.as_slice(), "{cell}");
            }
        }
    }
}

#[test]
fn every_budget_precision_and_width_is_the_normal_product() {
    budgets_and_widths_bitwise::<f64, f64>("f64");
    budgets_and_widths_bitwise::<f32, f32>("f32");
    budgets_and_widths_bitwise::<f32, f64>("mixed");
}

#[test]
fn an_update_carries_every_clean_held_block_by_arc() {
    let pts = gen::uniform_cube(N, 3, 47);
    let tiers = [
        (MemoryMode::Normal, CacheBudget::Off),
        (MemoryMode::OnTheFly, CacheBudget::Ratio(0.5)),
    ];
    for (mode, budget) in tiers {
        let what = format!("{}/{budget}", mode.name());
        let mut h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg(mode, budget));
        let old = Arc::clone(h2.table());
        let before = old.keys();
        let mut extra = PointSet::new(3, vec![]);
        extra.push(&[0.31, 0.52, 0.18]);
        h2.insert_points(&extra).unwrap();
        // A block held before at the epoch it is held at now is clean: the
        // successor shares it.
        let table = h2.table();
        let mut carried = 0;
        for key @ (kind, i, j, at) in table.keys() {
            if before.binary_search(&key).is_ok() {
                let (was, is) = (old.get_at(kind, i, j, at), table.get_at(kind, i, j, at));
                assert!(Arc::ptr_eq(&was.unwrap(), &is.unwrap()), "{what}: {key:?}");
                carried += 1;
            }
        }
        assert!(carried > 0, "{what}: nothing carried");
        if mode == MemoryMode::Normal {
            // Every listed pair is held, so every clean one is carried.
            let clean = before.iter().filter(|&&(kind, i, j, at)| {
                table.slot(kind, i, j).is_some() && h2.pair_epoch(i, j) == at
            });
            assert_eq!(carried, clean.count(), "{what}");
            assert_eq!(table.keys().len(), table.stats().entries, "{what}");
        }
        // Whoever holds the old table keeps it.
        assert_eq!(old.keys(), before, "{what}");
    }
}

#[test]
fn re_budgeting_carries_what_the_table_holds() {
    let pts = gen::uniform_cube(N, 3, 53);
    let c = cfg(MemoryMode::OnTheFly, CacheBudget::Ratio(0.3));
    let mut h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &c);
    let _ = h2.matvec(&rhs::<f64>(N));
    // The table before, and the blocks the new budget generated.
    let rebudget = |h2: &mut H2Matrix, budget| {
        let old = Arc::clone(h2.table());
        let scope = h2_telemetry::local_scope();
        h2.set_cache_budget(budget);
        let made = scope.count("coupling_blocks") + scope.count("nearfield_blocks");
        (old, made)
    };
    let (old, made) = rebudget(&mut h2, CacheBudget::Ratio(0.3));
    assert_eq!(made, 0, "the same budget generates nothing");
    assert_eq!(h2.table().keys(), old.keys());
    assert!(old.stats().hits > 0);
    assert_eq!(h2.table().stats(), old.stats(), "the counters carry");

    let (old, made) = rebudget(&mut h2, CacheBudget::Ratio(0.6));
    let (before, after) = (old.keys(), h2.table().keys());
    let planned = |key: &_| before.binary_search(key).is_err();
    let new = after.iter().filter(|key| planned(key)).count();
    assert!(new > 0, "a larger budget holds more");
    assert_eq!(
        made, new as u64,
        "only the newly planned pairs are generated"
    );
    let (was, is) = (old.stats(), h2.table().stats());
    let carried = after.len() - new;
    assert_eq!(
        is.stale_purged,
        was.stale_purged + (before.len() - carried) as u64
    );
    assert_eq!((is.hits, is.misses), (was.hits, was.misses));
    for &(kind, i, j, at) in after.iter().filter(|key| !planned(key)) {
        let (a, b) = (
            old.get_at(kind, i, j, at),
            h2.table().get_at(kind, i, j, at),
        );
        assert!(
            Arc::ptr_eq(&a.unwrap(), &b.unwrap()),
            "({i}, {j}) carried by Arc"
        );
    }
}

/// The operator's pair lists are its table's index: one copy, strictly
/// ascending and canonical, every listed pair found at its list position
/// (transposed when named `(j, i)`), every other pair of nodes not found.
fn assert_lists_index_the_table(h2: &H2Matrix, what: &str) {
    let (lists, table) = (h2.lists(), h2.table());
    assert!(std::ptr::eq(lists, &**table.lists()), "{what}: one copy");
    for kind in [BlockKind::Coupling, BlockKind::Nearfield] {
        let pairs = kind.pairs(lists);
        assert!(!pairs.is_empty(), "{what}: {kind:?} lists pairs");
        assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "{what}: {kind:?} order"
        );
        assert!(
            pairs.iter().all(|&(i, j)| i <= j),
            "{what}: {kind:?} i <= j"
        );
        for (slot, &(i, j)) in pairs.iter().enumerate() {
            assert_eq!(table.slot(kind, i, j), Some((slot, false)), "{what}");
            if i != j {
                assert_eq!(table.slot(kind, j, i), Some((slot, true)), "{what}");
            }
        }
        let listed: HashSet<_> = pairs.iter().copied().collect();
        let nodes = h2.tree().node_count();
        for i in 0..nodes {
            for j in i..nodes {
                if !listed.contains(&(i, j)) {
                    assert_eq!(table.slot(kind, i, j), None, "{what}: {kind:?} ({i}, {j})");
                    assert_eq!(table.slot(kind, j, i), None, "{what}: {kind:?} ({j}, {i})");
                }
            }
        }
    }
}

#[test]
fn the_sorted_pair_lists_are_the_block_index() {
    gen::cases(4, |r| {
        // Deep enough trees that both families list pairs.
        let pts = gen::uniform_cube(600 + r.below(600), 3, r.next_u64());
        let c = H2Config {
            leaf_size: 16 + r.below(32),
            eta: 0.7 + 0.1 * r.below(4) as f64,
            ..cfg(MemoryMode::OnTheFly, CacheBudget::Off)
        };
        let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &c);
        assert_lists_index_the_table(&h2, "a random cube");
    });
    // A grid: boxes of equal size tie on diameter, and a removal that
    // changes a point count relists.
    let grid = PointSet::from_fn(512, 3, |i, d| ((i >> (3 * d)) & 7) as f64);
    let c = H2Config {
        leaf_size: 32,
        ..cfg(MemoryMode::Normal, CacheBudget::Off)
    };
    let mut h2 = H2Matrix::build(&grid, Arc::new(Coulomb), &c);
    assert_lists_index_the_table(&h2, "the grid");
    h2.remove_points(&[200, 201]).unwrap();
    assert_lists_index_the_table(&h2, "a grid removal");
    // Updates that relist: a box grows, then a leaf splits.
    let mut h2 = H2Matrix::build(
        &gen::uniform_cube(N, 3, 59),
        Arc::new(Coulomb),
        &cfg(MemoryMode::OnTheFly, CacheBudget::Ratio(0.5)),
    );
    let max_leaf = h2.tree().leaves().iter().map(|&l| h2.tree().node(l).len());
    h2.set_update_policy(UpdatePolicy {
        max_leaf_points: max_leaf.max(),
        ..UpdatePolicy::default()
    })
    .unwrap();
    let before = Arc::clone(h2.table().lists());
    h2.insert_points(&PointSet::new(3, vec![1.4, -0.3, 0.5]))
        .unwrap();
    assert!(
        !Arc::ptr_eq(&before, h2.table().lists()),
        "a grown box relists"
    );
    assert_lists_index_the_table(&h2, "a grown box");
    let mut splits = 0;
    for k in 0..60 {
        let e = 1e-4 * k as f64;
        let p = PointSet::new(3, vec![0.3 + e, 0.6 - e, 0.4]);
        splits += h2.insert_points(&p).unwrap().splits;
        assert_lists_index_the_table(&h2, &format!("insert {k}"));
        if splits > 0 {
            break;
        }
    }
    assert!(splits > 0, "no leaf ever split");
}

#[test]
fn precision_config_respects_budget() {
    // An `f32` operator builds through the same `build::<S>` entry point,
    // so the budget arrives there too, and the mixed-precision interface
    // reports the cache it runs on.
    use h2_core::H2Operator;
    let pts = gen::uniform_cube(400, 3, 23);
    let c = H2Config {
        mode: MemoryMode::OnTheFly,
        cache_budget: CacheBudget::Ratio(0.25),
        basis: BasisMethod::data_driven_for_tol(1e-5, 3),
        leaf_size: 40,
        ..H2Config::default()
    };
    let op = H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &c);
    let stats = H2Operator::<f64>::cache_stats(&op).expect("cache installed at build");
    assert!(stats.budget_bytes > 0);
    assert!(stats.resident_bytes <= stats.budget_bytes);
    let y = H2Operator::<f64>::matvec(&op, &vec![1.0; 400]);
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
