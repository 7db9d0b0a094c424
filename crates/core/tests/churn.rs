//! Churn equivalence gate: after any insert/delete sequence, the updated
//! operator must agree with a from-scratch rebuild on the same final point
//! set to the factorization tolerance — across kernels, both builders
//! (anchor-net and sketched), storage precisions (f64, f32, and mixed
//! f32-storage/f64-accumulation applies), both memory modes, and every
//! cache-budget tier. The budgeted runs additionally assert cache hygiene:
//! zero stale-epoch entries resident after the churn (every resident key
//! carries its pair's current epoch), no stale hits during post-update
//! applies, and the hits and misses per product of the same operator
//! freshly budgeted.

use h2_core::{
    BasisMethod, BuilderProvenance, BuilderStrategy, CacheBudget, H2Config, H2MatrixS, MemoryMode,
    UpdatePolicy,
};
use h2_kernels::{Coulomb, Exponential, Gaussian, Kernel};
use h2_linalg::Scalar;
use h2_points::gen;
use std::sync::Arc;

const N: usize = 600;
const TOL: f64 = 1e-5;
/// Factorization-tolerance envelope: churn compounds a few tol-accurate
/// re-factorizations, and the f32 lanes add storage rounding on top.
const ENVELOPE: f64 = 100.0 * TOL;

fn cfg(builder: &BuilderStrategy, mode: MemoryMode, budget: CacheBudget) -> H2Config {
    H2Config {
        basis: BasisMethod::data_driven_for_tol(TOL, 3),
        builder: builder.clone(),
        mode,
        leaf_size: 48,
        eta: 0.7,
        cache_budget: budget,
        ..H2Config::default()
    }
}

fn rel_err_f64(a: &[f64], b: &[f64]) -> f64 {
    h2_linalg::vec_ops::rel_err(a, b)
}

/// Runs the shared churn sequence on a fresh build and returns the updated
/// operator: two rounds of +4/-4 points spread across the id space.
fn churned<S: Scalar>(kernel: Arc<dyn Kernel>, cfg: &H2Config) -> H2MatrixS<S> {
    let pts = gen::uniform_cube(N, 3, 23);
    let mut h2 = H2MatrixS::<S>::build(&pts, kernel, cfg);
    for round in 0..2usize {
        let arriving = gen::uniform_cube(4, 3, 100 + round as u64);
        h2.insert_points(&arriving).expect("insert");
        let departing: Vec<usize> = (0..4).map(|k| (round * 37 + k * 131) % h2.n()).collect();
        h2.remove_points(&departing).expect("remove");
    }
    h2
}

/// The equivalence + hygiene assertions for one (kernel, builder, mode,
/// budget) cell at storage scalar `S`, applied at accumulator width `A` via
/// `apply`.
fn assert_cell<S: Scalar>(
    kernel: Arc<dyn Kernel>,
    cfg: &H2Config,
    label: &str,
    apply: impl Fn(&H2MatrixS<S>, usize) -> Vec<f64>,
) {
    let h2 = churned::<S>(kernel.clone(), cfg);
    assert_eq!(h2.epoch(), 4, "{label}: two insert + two remove batches");
    assert_eq!(h2.n(), N, "{label}: churn preserves the point count");

    // Cache hygiene: nothing resident at a stale epoch, and applying the
    // operator afterwards never returns a block from a purged generation.
    if let Some(cache) = h2.cache() {
        for (kind, i, j, epoch) in cache.keys() {
            assert_eq!(
                epoch,
                h2.pair_epoch(i, j),
                "{label}: stale {kind:?} cache entry at pair ({i}, {j})"
            );
        }
    }
    let y = apply(&h2, 7);
    if let Some(stats) = h2.cache_stats() {
        assert!(
            stats.resident_bytes <= stats.budget_bytes,
            "{label}: cache over budget after churn"
        );
        // A second identical apply is deterministic: stale entries would
        // surface here as a changed result.
        assert_eq!(y, apply(&h2, 7), "{label}: apply not deterministic");
        // The churn cost the cached tier nothing: a product hits and misses
        // as it does on the same operator freshly budgeted.
        let traffic = |h2: &H2MatrixS<S>| {
            let before = h2.cache_stats().expect("budgeted");
            apply(h2, 7);
            let after = h2.cache_stats().expect("budgeted");
            (after.hits - before.hits, after.misses - before.misses)
        };
        let mut replanned = h2.clone();
        replanned.set_cache_budget(CacheBudget::Bytes(stats.budget_bytes as u64));
        assert_eq!(traffic(&h2), traffic(&replanned), "{label}: hits, misses");
    }

    // Equivalence: rebuild from scratch on the exact final point set.
    let fresh = H2MatrixS::<S>::build(h2.tree().points(), kernel, cfg);
    let err = rel_err_f64(&y, &apply(&fresh, 7));
    assert!(
        err < ENVELOPE,
        "{label}: updated operator diverged from a fresh rebuild ({err:.2e})"
    );
}

/// Every (builder, mode, budget) cell for one kernel: budgets only exist on
/// the on-the-fly side (normal mode materializes everything up front). The
/// path re-factorizations use the anchor-net rule whatever built the
/// operator, so a sketched operator's cells also check that the two rules
/// mix inside one operator.
fn sweep_kernel(kernel: Arc<dyn Kernel>) {
    let cells = [
        (MemoryMode::Normal, CacheBudget::Off, "normal"),
        (MemoryMode::OnTheFly, CacheBudget::Off, "otf/off"),
        (MemoryMode::OnTheFly, CacheBudget::Ratio(0.3), "otf/30%"),
        (MemoryMode::OnTheFly, CacheBudget::Unbounded, "otf/full"),
    ];
    let builders = [
        BuilderStrategy::AnchorNet,
        BuilderStrategy::sketched_for_tol(TOL, 3),
    ];
    for (builder, (mode, budget, cell)) in builders
        .iter()
        .flat_map(|b| cells.iter().map(move |&c| (b, c)))
    {
        let name = format!("{}/{}", kernel.name(), builder.name());
        let cfg = &cfg(builder, mode, budget);
        // f64 storage, f64 accumulation.
        assert_cell::<f64>(
            kernel.clone(),
            cfg,
            &format!("{name}/{cell}/f64"),
            |h2, seed| h2.matvec(&h2_core::error_est::probe_vector(h2.n(), seed as u64)),
        );
        // f32 storage, f32 accumulation.
        assert_cell::<f32>(
            kernel.clone(),
            cfg,
            &format!("{name}/{cell}/f32"),
            |h2, seed| {
                let b: Vec<f32> = h2_core::error_est::probe_vector(h2.n(), seed as u64)
                    .into_iter()
                    .map(|v| v as f32)
                    .collect();
                h2.matvec(&b).into_iter().map(f32::to_f64).collect()
            },
        );
        // Mixed: f32 storage, f64 accumulation.
        assert_cell::<f32>(
            kernel.clone(),
            cfg,
            &format!("{name}/{cell}/mixed"),
            |h2, seed| h2.matvec_f64(&h2_core::error_est::probe_vector(h2.n(), seed as u64)),
        );
    }
}

#[test]
fn churn_matches_fresh_rebuild_coulomb() {
    sweep_kernel(Arc::new(Coulomb));
}

#[test]
fn churn_matches_fresh_rebuild_exponential() {
    sweep_kernel(Arc::new(Exponential));
}

#[test]
fn churn_matches_fresh_rebuild_gaussian() {
    sweep_kernel(Arc::new(Gaussian::paper()));
}

#[test]
fn rebuild_escalation_factors_a_sketched_operator_with_the_anchor_net_rule() {
    // What a `rebuild_churn` escalation does today: it rebuilds with the
    // update engine's own rule (anchor-net sampling at the policy
    // tolerance), not with the strategy that built the operator — so a
    // sketched operator changes provenance, and stays accurate.
    let builder = BuilderStrategy::sketched_for_tol(TOL, 3);
    let cfg = cfg(&builder, MemoryMode::OnTheFly, CacheBudget::Off);
    let pts = gen::uniform_cube(N, 3, 23);
    let mut h2 = H2MatrixS::<f64>::build(&pts, Arc::new(Coulomb), &cfg);
    assert_eq!(h2.provenance(), BuilderProvenance::Sketched);
    h2.set_update_policy(UpdatePolicy {
        tol: TOL,
        rebuild_churn: 0.001,
        ..UpdatePolicy::default()
    })
    .expect("sketched skeletons are data points");
    let report = h2
        .insert_points(&gen::uniform_cube(4, 3, 100))
        .expect("insert");
    assert_eq!(report.rebuilds, 1);
    assert_eq!(h2.provenance(), BuilderProvenance::AnchorNet);
    let b = h2_core::error_est::probe_vector(h2.n(), 7);
    let dense = h2_kernels::dense_matvec(&Coulomb, h2.tree().points(), &b);
    let err = rel_err_f64(&h2.matvec(&b), &dense);
    assert!(
        err < ENVELOPE,
        "rebuilt operator off the dense product ({err:.2e})"
    );
}

#[test]
fn a_rebuild_carries_the_table_counters() {
    // An on-the-fly operator at half its block bytes, used and updated,
    // then forced into a rebuild: the rebuilt operator's table succeeds the
    // one it replaces, so hits and misses carry on and every block that
    // table held is counted as purged (every node's epoch moved).
    let cfg = cfg(
        &BuilderStrategy::AnchorNet,
        MemoryMode::OnTheFly,
        CacheBudget::Ratio(0.5),
    );
    let mut h2 = H2MatrixS::<f64>::build(&gen::uniform_cube(N, 3, 23), Arc::new(Coulomb), &cfg);
    let b = |n| h2_core::error_est::probe_vector(n, 7);
    h2.matvec(&b(h2.n()));
    h2.insert_points(&gen::uniform_cube(2, 3, 100))
        .expect("insert");
    h2.matvec(&b(h2.n()));
    let before = h2.cache_stats().expect("a budgeted cache");
    assert!(before.hits > 0 && before.misses > 0 && before.stale_purged > 0);
    assert!(before.entries > 0);
    h2.set_update_policy(UpdatePolicy {
        tol: TOL,
        rebuild_churn: 0.001,
        ..UpdatePolicy::default()
    })
    .expect("anchor-net skeletons are data points");
    let report = h2
        .insert_points(&gen::uniform_cube(2, 3, 101))
        .expect("insert");
    assert_eq!(report.rebuilds, 1);
    let after = h2.cache_stats().expect("a budgeted cache");
    assert_eq!((after.hits, after.misses), (before.hits, before.misses));
    let purged = before.stale_purged + before.entries as u64;
    assert_eq!(after.stale_purged, purged, "the blocks left behind");
    h2.matvec(&b(h2.n()));
    let used = h2.cache_stats().expect("a budgeted cache");
    assert!(used.hits > after.hits && used.misses > after.misses);
}

/// A grown box can give a node off every updated path a new interaction
/// partner. Its `Y*` never sampled that partner's points, so the update
/// must re-factor it: after every update of a seeded stream, each node
/// whose interaction list gained a partner carries the update's epoch.
#[test]
fn a_node_that_gains_a_partner_is_refactored() {
    let mut gained = 0;
    for seed in 1..=4u64 {
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-6, 3),
            mode: MemoryMode::OnTheFly,
            leaf_size: 32,
            ..H2Config::default()
        };
        let pts = gen::uniform_cube(1200, 3, seed);
        let mut h2 = H2MatrixS::<f64>::build(&pts, Arc::new(Coulomb), &cfg);
        for op in 0..9u64 {
            for insert in [true, false] {
                let before = h2.lists().interaction.clone();
                if insert {
                    h2.insert_points(&gen::uniform_cube(2, 3, seed + 1 + op))
                        .expect("insert");
                } else {
                    h2.remove_points(&[0, 1]).expect("remove");
                }
                for (i, list) in h2.lists().interaction.iter().enumerate() {
                    let old = before.get(i).map_or(&[][..], Vec::as_slice);
                    if list.iter().any(|j| !old.contains(j)) {
                        gained += 1;
                        assert_eq!(
                            h2.node_epochs()[i],
                            h2.epoch(),
                            "seed {seed}, op {op}: node {i} gained a partner, kept its basis"
                        );
                    }
                }
            }
        }
    }
    assert!(gained > 0, "the stream changes no interaction list");
}
