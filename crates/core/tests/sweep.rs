//! The sweep engine's own contract: one code path for every `k` and every
//! thread count, so a panel column is the vector product bit for bit and a
//! product is the same bits at any width — in every memory tier, precision
//! and builder, including on an operator that has been updated in place —
//! and one arithmetic class, so a product is the same bits in every tier.
//! Construction runs on the same executor, so the *builder's* width is a
//! dimension too: an operator is the same bytes, and its telemetry the same
//! counts, whatever width it was built and updated at.

use h2_core::{
    BasisMethod, BlockKind, BuilderStrategy, CacheBudget, H2Config, H2MatrixS, MemoryMode,
    SweepPlan, UpdatePolicy,
};
use h2_kernels::{Coulomb, Exponential, Kernel};
use h2_linalg::{MatrixS, Scalar};
use h2_points::{gen, PointSet};
use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};

const N: usize = 700;
const TOL: f64 = 1e-6;

fn cfg(mode: MemoryMode, budget: CacheBudget, builder: BuilderStrategy) -> H2Config {
    H2Config {
        basis: BasisMethod::data_driven_for_tol(TOL, 3),
        mode,
        builder,
        cache_budget: budget,
        leaf_size: 48,
        eta: 0.7,
        ..H2Config::default()
    }
}

fn panel<A: Scalar>(n: usize, k: usize) -> MatrixS<A> {
    MatrixS::from_fn(n, k, |i, j| {
        A::from_f64(((i * 37 + j * 101) % 997) as f64 / 500.0 - 1.0)
    })
}

/// Runs `f` with the sweeps sized to `width` threads — the one sizing
/// mechanism there is.
fn at_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    h2_linalg::exec::Width::new(width).install(f)
}

/// The product at `width`, and how many helper threads its sweep spawned.
fn product_at<S: Scalar, A: Scalar>(
    h2: &H2MatrixS<S>,
    b: &MatrixS<A>,
    width: usize,
) -> (MatrixS<A>, u64) {
    let scope = h2_telemetry::local_scope();
    let y = at_width(width, || h2.matmat(b));
    (y, scope.count("sweep.helper_threads"))
}

/// Column `c` of a `k`-column product equals the vector product of column
/// `c` — at `k` = 2, 3, 4, 5 and 8, so below, at and past the panel
/// kernels' 4-column tile (`k = 4`, the serving batch, runs every column
/// through the tiles and none on the one-column path), over a panel with
/// exact zeros and an all-zero column 1 — and the empty panel maps to the
/// empty panel.
fn assert_k_invariant<S: Scalar, A: Scalar>(h2: &H2MatrixS<S>, what: &str) {
    for k in [2, 3, 4, 5, 8] {
        let mut b = panel::<A>(h2.n(), k);
        for (e, v) in b.as_mut_slice().iter_mut().enumerate() {
            if e % 7 == 0 || e / h2.n() == 1 {
                *v = A::ZERO;
            }
        }
        let y = h2.matmat(&b);
        let what = format!("{what}, k = {k}");
        for c in 0..k {
            assert_eq!(y.col(c), &h2.matvec(b.col(c))[..], "{what}: column {c}");
        }
    }
    let empty = h2.matmat(&panel::<A>(h2.n(), 0));
    assert_eq!(empty.shape(), (h2.n(), 0), "{what}: k = 0");
}

/// Products at widths 2, 3 and 8 equal the width-1 product bit for bit, for
/// one and for eight columns, and every one of them really ran that wide.
/// Returns the width-1 products, `k = 1` first.
fn assert_width_invariant<S: Scalar, A: Scalar>(h2: &H2MatrixS<S>, what: &str) -> Vec<MatrixS<A>> {
    let mut products = Vec::new();
    for k in [1, 8] {
        let b = panel::<A>(h2.n(), k);
        let (serial, helpers) = product_at(h2, &b, 1);
        assert_eq!(helpers, 0, "{what}: width 1 spawns nothing");
        for width in [2, 3, 8] {
            let (y, helpers) = product_at(h2, &b, width);
            assert_eq!(helpers, width as u64 - 1, "{what}: helpers at {width}");
            assert_eq!(
                y.as_slice(),
                serial.as_slice(),
                "{what}: k = {k}, width {width}"
            );
        }
        products.push(serial);
    }
    products
}

/// Saves the operator and serves it back in place off the page cache.
fn mmap_loaded<S: Scalar>(h2: &H2MatrixS<S>, kernel: Arc<dyn Kernel>, tag: &str) -> H2MatrixS<S> {
    let name = format!("h2-core-sweep-{}-{tag}.h2op", std::process::id());
    let path = std::env::temp_dir().join(name);
    h2_serve::save(h2, &path).expect("write operator file");
    let loaded = h2_serve::load_mmap::<S>(&path, kernel).expect("mmap operator file");
    std::fs::remove_file(&path).ok();
    assert!(loaded.memory_report().mapped_bytes > 0, "{tag}: not mapped");
    loaded
}

/// The width-1 products at `k` = 1 and 8 of one operator per `(S, A)`:
/// `f64`, `f32` and mixed.
type Products = (Vec<MatrixS<f64>>, Vec<MatrixS<f32>>, Vec<MatrixS<f64>>);

/// Within one tier, every `k` and every width give the same bits; across
/// tiers, normal ≡ mmap ≡ cached ≡ on-the-fly for each `(S, A)`: a block not
/// held is materialized as the builder stores it and applied as a held one.
#[test]
fn products_are_bitwise_identical_for_every_k_and_width_in_every_tier_precision_and_builder() {
    let pts = gen::uniform_cube(N, 3, 19);
    let tiers = [
        ("normal", MemoryMode::Normal, CacheBudget::Off),
        ("mmap", MemoryMode::Normal, CacheBudget::Off),
        ("cached", MemoryMode::OnTheFly, CacheBudget::Ratio(0.5)),
        ("otf", MemoryMode::OnTheFly, CacheBudget::Off),
    ];
    let (data_driven, anchor) = (
        BasisMethod::data_driven_for_tol(TOL, 3),
        BuilderStrategy::AnchorNet,
    );
    let builders = [
        ("data-driven", data_driven.clone(), anchor.clone()),
        (
            "interpolation",
            BasisMethod::interpolation_for_tol(1e-3, 3),
            anchor,
        ),
        (
            "sketched",
            data_driven,
            BuilderStrategy::sketched_for_tol(TOL, 3),
        ),
    ];
    let kernels: [(&str, Arc<dyn Kernel>); 2] = [
        ("coulomb", Arc::new(Coulomb)),
        ("exponential", Arc::new(Exponential)),
    ];
    for (kname, kernel) in &kernels {
        for (bname, basis, builder) in &builders {
            let mut normal: Option<Products> = None;
            for (tier, mode, budget) in tiers {
                let c = H2Config {
                    basis: basis.clone(),
                    ..cfg(mode, budget, builder.clone())
                };
                let what = format!("{kname}/{bname}/{tier}");
                let mut h64 = H2MatrixS::<f64>::build(&pts, kernel.clone(), &c);
                let mut h32 = H2MatrixS::<f32>::build(&pts, kernel.clone(), &c);
                assert_eq!(h64.cache().is_some(), tier == "cached", "{what}");
                if tier == "mmap" {
                    h64 = mmap_loaded(&h64, kernel.clone(), &format!("{kname}-{bname}-f64"));
                    h32 = mmap_loaded(&h32, kernel.clone(), &format!("{kname}-{bname}-f32"));
                }
                assert_k_invariant::<f64, f64>(&h64, &format!("{what}/f64"));
                assert_k_invariant::<f32, f32>(&h32, &format!("{what}/f32"));
                assert_k_invariant::<f32, f64>(&h32, &format!("{what}/mixed"));
                let products = (
                    assert_width_invariant::<f64, f64>(&h64, &format!("{what}/f64")),
                    assert_width_invariant::<f32, f32>(&h32, &format!("{what}/f32")),
                    assert_width_invariant::<f32, f64>(&h32, &format!("{what}/mixed")),
                );
                let want = normal.get_or_insert_with(|| products.clone());
                assert!(products.0 == want.0, "{what}/f64: not the normal product");
                assert!(products.1 == want.1, "{what}/f32: not the normal product");
                assert!(products.2 == want.2, "{what}/mixed: not the normal product");
            }
        }
    }
}

#[test]
fn schedule_is_every_listed_pair_once_in_conflict_free_rounds() {
    let pts = gen::uniform_cube(N, 3, 23);
    let c = cfg(
        MemoryMode::OnTheFly,
        CacheBudget::Off,
        BuilderStrategy::AnchorNet,
    );
    let h2 = H2MatrixS::<f64>::build(&pts, Arc::new(Coulomb), &c);
    let plan = SweepPlan::whole(&h2);
    let families = [
        (BlockKind::Coupling, &h2.lists().interaction_pairs),
        (BlockKind::Nearfield, &h2.lists().nearfield_pairs),
    ];
    for (kind, listed) in families {
        let steps: Vec<_> = match kind {
            BlockKind::Coupling => plan.coupling().collect(),
            BlockKind::Nearfield => plan.nearfield().collect(),
        };
        // Every listed pair exactly once, both directions (a diagonal
        // nearfield block is applied once, not mirrored onto itself).
        let slots: BTreeSet<usize> = steps.iter().map(|st| st.slot).collect();
        assert_eq!(steps.len(), listed.len(), "{kind:?}");
        assert_eq!(slots.len(), listed.len(), "{kind:?}: a pair repeats");
        for st in &steps {
            assert_eq!((st.i, st.j), listed[st.slot]);
            assert_eq!((st.fwd, st.rev), (true, st.i != st.j));
        }

        // The order is the cells of the rounds, list order inside a cell.
        let order = plan.order(kind);
        let mut walked = Vec::new();
        let mut groups_seen = BTreeSet::new();
        for (r, round) in order.rounds().enumerate() {
            let mut busy = BTreeSet::new();
            for cell in round {
                let (c, d) = cell.groups;
                assert_eq!(c == d, r == 0, "{kind:?}: round 0 is the diagonal");
                assert!(busy.insert(c), "{kind:?}: group {c} twice in round {r}");
                assert!(c == d || busy.insert(d), "{kind:?}: group {d} twice");
                assert!(
                    groups_seen.insert((c, d)),
                    "{kind:?}: cell ({c}, {d}) twice"
                );
                let cell_slots = order.slots(cell);
                assert!(!cell_slots.is_empty(), "{kind:?}: empty cell");
                assert!(cell_slots.windows(2).all(|w| w[0] < w[1]), "list order");
                let mut bytes = 0;
                for &slot in cell_slots {
                    let (i, j) = listed[slot];
                    let (gi, gj) = (plan.group(i), plan.group(j));
                    assert_eq!((gi.min(gj), gi.max(gj)), (c, d), "pair outside its cell");
                    let (rows, cols) = match kind {
                        BlockKind::Coupling => (h2.rank(i), h2.rank(j)),
                        BlockKind::Nearfield => (h2.tree().node(i).len(), h2.tree().node(j).len()),
                    };
                    bytes += rows * cols * 8;
                }
                assert_eq!(cell.bytes, bytes, "{kind:?}: cell weight");
                walked.extend_from_slice(cell_slots);
            }
            // Threads take a round's cells heaviest first.
            assert!(r == 0 || round.windows(2).all(|w| w[0].bytes >= w[1].bytes));
        }
        let stepped: Vec<usize> = steps.iter().map(|st| st.slot).collect();
        assert_eq!(walked, stepped, "{kind:?}: schedule is the round walk");
    }
    // Eight cut roots and the nodes above them.
    let groups: BTreeSet<usize> = (0..h2.tree().node_count()).map(|i| plan.group(i)).collect();
    assert_eq!(groups.len(), h2_core::sweep::GROUPS + 1);
    for &l in h2.tree().leaves() {
        assert!(
            plan.group(l) < h2_core::sweep::GROUPS,
            "leaf {l} above the cut"
        );
    }

    // The warm-up order is the schedule: coupling, then nearfield.
    let blocks: Vec<_> = plan
        .block_schedule(&h2)
        .map(|(kind, i, j, _)| (kind, i, j))
        .collect();
    let scheduled: Vec<_> = plan
        .coupling()
        .map(|st| (BlockKind::Coupling, st.i, st.j))
        .chain(
            plan.nearfield()
                .map(|st| (BlockKind::Nearfield, st.i, st.j)),
        )
        .collect();
    assert_eq!(blocks, scheduled);
}

#[test]
fn counters_see_each_block_generated_once_at_any_width() {
    let pts = gen::uniform_cube(N, 3, 31);
    for budget in [CacheBudget::Off, CacheBudget::Ratio(0.5)] {
        let c = cfg(MemoryMode::OnTheFly, budget, BuilderStrategy::AnchorNet);
        let h2 = H2MatrixS::<f64>::build(&pts, Arc::new(Coulomb), &c);
        let b = panel::<f64>(N, 3);
        let counts_at = |width: usize| {
            let scope = h2_telemetry::local_scope();
            let _ = at_width(width, || h2.matmat(&b));
            [
                "coupling_blocks",
                "nearfield_blocks",
                "kernel_evals",
                "cache.hit",
                "cache.miss",
            ]
            .map(|name| scope.count(name))
        };
        let serial = counts_at(1);
        let [coupling, nearfield, evals, hits, misses] = serial;
        let pairs = |list: &[(usize, usize)]| list.len() as u64;
        let lists = h2.lists();
        let listed = pairs(&lists.interaction_pairs) + pairs(&lists.nearfield_pairs);
        assert!(evals > 0, "{budget}");
        if budget.is_off() {
            assert_eq!(coupling, pairs(&lists.interaction_pairs));
            assert_eq!(nearfield, pairs(&lists.nearfield_pairs));
            assert_eq!((hits, misses), (0, 0));
        } else {
            // Every listed pair is one request to the cached tier and every
            // miss one generation.
            assert_eq!(hits + misses, listed);
            assert_eq!(misses, coupling + nearfield);
            assert!(hits > 0 && misses > 0, "half a budget hits and misses");
        }
        // Helper threads tally in plain integers and the caller records the
        // sums, so a scope on the calling thread misses nothing.
        assert_eq!(counts_at(2), serial, "{budget}: width 2");
        assert_eq!(counts_at(4), serial, "{budget}: width 4");
    }
}

/// The keys of the cached tier of `h2`.
fn resident_keys<S: Scalar>(h2: &H2MatrixS<S>) -> Vec<(BlockKind, usize, usize, u64)> {
    let cache = h2.cache().expect("budgeted operator");
    assert!(cache.resident_bytes() <= cache.budget_bytes());
    cache.keys()
}

/// Residency is a function of (operator, budget): whatever updates the
/// operator has been through and however wide its products ran, the cached
/// tier is the one a fresh `set_cache_budget` at the same bytes installs.
fn assert_residency_is_the_plans<S: Scalar>(h2: &H2MatrixS<S>, what: &str) {
    let budget = h2.cache().expect("budgeted operator").budget_bytes();
    let mut replanned = h2.clone();
    replanned.set_cache_budget(CacheBudget::Bytes(budget as u64));
    let keys = resident_keys(&replanned);
    assert!(!keys.is_empty(), "{what}: nothing resident");
    // A clone's `Vec`s are trimmed, so only the block bytes of the two
    // reports compare; the operator's own report must not move at all.
    let report = h2.memory_report();
    let cached = replanned.memory_report().cached_blocks;
    assert_eq!(report.cached_blocks, cached, "{what}");
    let b = panel::<S>(h2.n(), 2);
    for width in [1, 2, 3, 8] {
        let _ = at_width(width, || h2.matmat(&b));
        assert_eq!(h2.memory_report(), report, "{what}: after width {width}");
        assert!(
            resident_keys(h2) == keys,
            "{what}: keys after width {width}"
        );
    }
}

fn residency_survives_churn<S: Scalar>(ratio: f64) {
    let pts = gen::uniform_cube(N, 3, 47);
    let budget = CacheBudget::Ratio(ratio);
    let c = cfg(MemoryMode::OnTheFly, budget, BuilderStrategy::AnchorNet);
    let mut h2 = H2MatrixS::<S>::build(&pts, Arc::new(Coulomb), &c);
    let what = |stage: &str| format!("{}/{budget}/{stage}", S::NAME);
    assert_residency_is_the_plans(&h2, &what("fresh"));

    let mut extra = PointSet::new(3, vec![]);
    extra.push(&[0.31, 0.52, 0.18]);
    extra.push(&[0.77, 0.21, 0.64]);
    h2.insert_points(&extra).unwrap();
    h2.remove_points(&[13, 400]).unwrap();
    assert_residency_is_the_plans(&h2, &what("insert + remove"));

    // Hammer one spot under a leaf bound every leaf but the smallest is
    // over: a leaf splits in place.
    let leaves = h2.tree().leaves().iter();
    let smallest = leaves.map(|&l| h2.tree().node(l).len()).min().unwrap();
    h2.set_update_policy(UpdatePolicy {
        tol: TOL,
        max_leaf_points: Some(smallest),
        rebuild_churn: 0.03,
    })
    .unwrap();
    let mut splits = 0;
    for k in 0..6 {
        let e = 1e-4 * k as f64;
        let mut p = PointSet::new(3, vec![]);
        p.push(&[0.5 + e, 0.5 - e, 0.5 + 2.0 * e]);
        let r = h2.insert_points(&p).unwrap();
        assert_eq!(r.rebuilds, 0);
        splits += r.splits;
    }
    assert!(splits > 0, "{}: no leaf split", what("split"));
    assert_residency_is_the_plans(&h2, &what("split"));

    // 6 edits since the policy was set; 20 more pass 3% of n and escalate
    // to a rebuild.
    let r = h2.insert_points(&gen::uniform_cube(20, 3, 53)).unwrap();
    assert_eq!(r.rebuilds, 1, "{}", what("rebuild"));
    assert_residency_is_the_plans(&h2, &what("rebuild"));
}

#[test]
fn residency_is_a_function_of_operator_and_budget_at_every_product_width() {
    for ratio in [0.25, 0.5] {
        residency_survives_churn::<f64>(ratio);
        residency_survives_churn::<f32>(ratio);
    }
}

/// The operator file of `c` built `width` wide and, `churned`, updated
/// (an insert and a remove) at that width too, with the build's statistics.
fn built_at<S: Scalar>(
    pts: &PointSet,
    c: &H2Config,
    width: usize,
    churned: bool,
) -> (Vec<u8>, [usize; 4]) {
    at_width(width, || {
        let mut h2 = H2MatrixS::<S>::build(pts, Arc::new(Coulomb), c);
        let s = h2.stats();
        let sketch = [
            s.sketch_samples,
            s.sketch_probes,
            s.sketch_retries,
            s.sketch_max_rounds,
        ];
        if churned {
            let mut extra = PointSet::new(3, vec![]);
            extra.push(&[0.31, 0.52, 0.18]);
            extra.push(&[0.77, 0.21, 0.64]);
            h2.insert_points(&extra).unwrap();
            h2.remove_points(&[13, 400]).unwrap();
        }
        (h2_serve::codec::encode(&h2), sketch)
    })
}

#[test]
fn operators_are_byte_identical_at_every_builder_width() {
    let pts = gen::uniform_cube(N, 3, 41);
    let anchor = BuilderStrategy::AnchorNet;
    let builders = [
        (
            "data-driven",
            BasisMethod::data_driven_for_tol(TOL, 3),
            anchor.clone(),
        ),
        (
            "interpolation",
            BasisMethod::interpolation_for_tol(1e-3, 3),
            anchor,
        ),
        (
            "sketched",
            BasisMethod::data_driven_for_tol(TOL, 3),
            BuilderStrategy::sketched_for_tol(TOL, 3),
        ),
    ];
    let tiers = [
        (MemoryMode::Normal, CacheBudget::Off),
        (MemoryMode::OnTheFly, CacheBudget::Off),
        (MemoryMode::OnTheFly, CacheBudget::Ratio(0.5)),
    ];
    for (bname, basis, builder) in &builders {
        for (mode, budget) in tiers {
            let c = H2Config {
                basis: basis.clone(),
                ..cfg(mode, budget, builder.clone())
            };
            // Grid proxies are not data points: such an operator has no
            // update path.
            for churned in [false, *bname != "interpolation"] {
                let what = format!("{bname}/{}/{budget}/churned={churned}", mode.name());
                let serial64 = built_at::<f64>(&pts, &c, 1, churned);
                let serial32 = built_at::<f32>(&pts, &c, 1, churned);
                assert_eq!(
                    serial64.1[0] > 0,
                    *bname == "sketched",
                    "{what}: sketch stats"
                );
                for width in [2, 3, 8] {
                    let wide64 = built_at::<f64>(&pts, &c, width, churned);
                    let wide32 = built_at::<f32>(&pts, &c, width, churned);
                    assert!(wide64 == serial64, "{what}: f64 built at width {width}");
                    assert!(wide32 == serial32, "{what}: f32 built at width {width}");
                }
            }
        }
    }
}

#[test]
fn build_counters_are_exact_at_any_builder_width() {
    let pts = gen::uniform_cube(N, 3, 43);
    for (bname, builder) in [
        ("anchor", BuilderStrategy::AnchorNet),
        ("sketched", BuilderStrategy::sketched_for_tol(TOL, 3)),
    ] {
        let c = cfg(MemoryMode::Normal, CacheBudget::Off, builder);
        let counts_at = |width: usize| {
            let scope = h2_telemetry::local_scope();
            let h2 = at_width(width, || {
                H2MatrixS::<f64>::build(&pts, Arc::new(Coulomb), &c)
            });
            let s = h2.stats();
            // What the scope saw on this thread is what the build reports.
            let sketch = [s.sketch_samples, s.sketch_probes, s.sketch_retries];
            let scoped = ["sketch.samples", "sketch.probes", "sketch.retries"];
            assert_eq!(
                scoped.map(|name| scope.count(name) as usize),
                sketch,
                "{bname}"
            );
            let pairs = |list: &[(usize, usize)]| list.len() as u64;
            let blocks = ["coupling_blocks", "nearfield_blocks", "kernel_evals"];
            let blocks = blocks.map(|name| scope.count(name));
            assert_eq!(blocks[0], pairs(&h2.lists().interaction_pairs), "{bname}");
            assert_eq!(blocks[1], pairs(&h2.lists().nearfield_pairs), "{bname}");
            assert!(blocks[2] > 0, "{bname}");
            (blocks, sketch, s.sketch_max_rounds)
        };
        let serial = counts_at(1);
        assert_eq!(counts_at(2), serial, "{bname}: width 2");
        assert_eq!(counts_at(4), serial, "{bname}: width 4");
    }
}

#[test]
fn two_callers_share_a_half_budget_cache_at_width_two() {
    let pts = gen::uniform_cube(N, 3, 37);
    let c = cfg(
        MemoryMode::OnTheFly,
        CacheBudget::Ratio(0.5),
        BuilderStrategy::AnchorNet,
    );
    let h2 = H2MatrixS::<f64>::build(&pts, Arc::new(Coulomb), &c);
    let cache = h2.cache().expect("half-budget cache installed");
    let b = panel::<f64>(N, 2);
    let serial = at_width(1, || h2.matmat(&b));
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for caller in 0..2 {
            let (h2, b, serial, start) = (&h2, &b, &serial, &start);
            scope.spawn(move || {
                // Both callers enter their first product together.
                start.wait();
                for round in 0..4 {
                    let (y, helpers) = product_at(h2, b, 2);
                    assert_eq!(helpers, 1, "caller {caller}");
                    assert_eq!(
                        y.as_slice(),
                        serial.as_slice(),
                        "caller {caller}, round {round}"
                    );
                    assert!(cache.resident_bytes() <= cache.budget_bytes());
                }
            });
        }
    });
    let stats = cache.stats();
    assert!(stats.resident_bytes <= stats.budget_bytes);
    assert!(stats.misses > 0, "half a budget must miss");
}

#[test]
fn degenerate_trees_run_at_width_four() {
    // (n, leaf size): a root-only tree, a tree shallower than the cut (four
    // leaves), and the default leaf size at n = 1000: eight leaf groups
    // with no admissible pair, so every rank is 0 and every panel empty.
    for (n, leaf_size, wide) in [(40, 48, false), (150, 48, false), (1000, 128, true)] {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let pts = gen::uniform_cube(n, 3, 41);
            let c = H2Config {
                leaf_size,
                ..cfg(mode, CacheBudget::Off, BuilderStrategy::AnchorNet)
            };
            let h2 = H2MatrixS::<f64>::build(&pts, Arc::new(Coulomb), &c);
            let what = format!("n = {n}, {}", mode.name());
            assert_eq!(h2.tree().level_with_cut(8).is_some(), wide, "{what}");
            if wide {
                assert!(h2.ranks().iter().all(|&r| r == 0), "{what}: ranks");
            }
            let b = panel::<f64>(n, 3);
            let (serial, _) = product_at(&h2, &b, 1);
            let trace = h2_telemetry::next_trace_id();
            let traced = h2_telemetry::trace_scope(trace);
            let (y, helpers) = product_at(&h2, &b, 4);
            drop(traced);
            // Every phase reports, the ones with nothing to do included.
            let snap = h2_telemetry::snapshot();
            for phase in [
                "gather",
                "upward",
                "horizontal",
                "downward",
                "leaf",
                "scatter",
            ] {
                let name = format!("matvec.{phase}");
                let mine = |s: &&h2_telemetry::SpanRecord| s.trace == trace && s.name == name;
                assert_eq!(snap.spans.iter().filter(mine).count(), 1, "{what}: {name}");
            }
            // One group runs on the calling thread.
            assert_eq!(helpers, if wide { 3 } else { 0 }, "{what}");
            assert_eq!(y.as_slice(), serial.as_slice(), "{what}");
            // All nearfield: the product is the dense one.
            let dense = h2_kernels::dense_matvec(&Coulomb, &pts, b.col(0));
            let err = h2_linalg::vec_ops::rel_err(y.col(0), &dense);
            assert!(err < 1e-12, "{what}: {err}");
        }
    }
}

#[test]
fn updated_operator_equals_its_from_parts_rebuild_bitwise() {
    for (mode, budget) in [
        (MemoryMode::Normal, CacheBudget::Off),
        (MemoryMode::OnTheFly, CacheBudget::Off),
        (MemoryMode::OnTheFly, CacheBudget::Ratio(0.5)),
    ] {
        let pts = gen::uniform_cube(N, 3, 29);
        let c = cfg(mode, budget, BuilderStrategy::AnchorNet);
        let mut h2 = H2MatrixS::<f64>::build(&pts, Arc::new(Coulomb), &c);
        let mut extra = PointSet::new(3, vec![]);
        extra.push(&[0.31, 0.52, 0.18]);
        extra.push(&[0.77, 0.21, 0.64]);
        extra.push(&[0.48, 0.49, 0.51]);
        h2.insert_points(&extra).unwrap();
        h2.remove_points(&[13, 400]).unwrap();
        // Ranks, node extents and lists all moved: the layout and the
        // order the sweep derives from them must be the ones a fresh load
        // derives.
        let mut back = H2MatrixS::<f64>::from_parts(h2.to_parts(), Arc::new(Coulomb)).unwrap();
        back.set_cache_budget(budget);
        assert_eq!(back.epoch(), 2);
        let b = panel::<f64>(h2.n(), 3);
        assert_eq!(
            h2.matmat(&b).as_slice(),
            back.matmat(&b).as_slice(),
            "{}/{budget}",
            mode.name()
        );
        let what = format!("updated {}/{budget}", mode.name());
        assert_k_invariant::<f64, f64>(&h2, &what);
        assert_width_invariant::<f64, f64>(&h2, &what);
    }
}
