//! The sweep engine's own contract: one code path for every `k`, so a
//! panel column is the vector product bit for bit in every memory tier,
//! precision and builder — including on an operator that has been updated
//! in place.

use h2_core::{
    BasisMethod, BuilderStrategy, CacheBudget, H2Config, H2MatrixS, MemoryMode, SweepPlan,
};
use h2_kernels::Coulomb;
use h2_linalg::{MatrixS, Scalar};
use h2_points::{gen, PointSet};
use std::sync::Arc;

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

/// Column `c` of the 8-column product equals the vector product of column
/// `c`, and the empty panel maps to the empty panel.
fn assert_k_invariant<S: Scalar, A: Scalar>(h2: &H2MatrixS<S>, what: &str) {
    let b = panel::<A>(h2.n(), 8);
    let y = h2.matmat(&b);
    for c in 0..8 {
        assert_eq!(y.col(c), &h2.matvec(b.col(c))[..], "{what}: column {c}");
    }
    let empty = h2.matmat(&panel::<A>(h2.n(), 0));
    assert_eq!(empty.shape(), (h2.n(), 0), "{what}: k = 0");
}

#[test]
fn panel_columns_equal_vector_products_in_every_tier_precision_and_builder() {
    let pts = gen::uniform_cube(N, 3, 19);
    let tiers = [
        ("normal", MemoryMode::Normal, CacheBudget::Off),
        ("otf", MemoryMode::OnTheFly, CacheBudget::Off),
        ("cached", MemoryMode::OnTheFly, CacheBudget::Ratio(0.5)),
    ];
    let builders = [
        ("anchor", BuilderStrategy::AnchorNet),
        ("sketched", BuilderStrategy::sketched_for_tol(TOL, 3)),
    ];
    for (tier, mode, budget) in tiers {
        for (bname, builder) in &builders {
            let c = cfg(mode, budget, builder.clone());
            let what = format!("{tier}/{bname}");
            let h64 = H2MatrixS::<f64>::build(&pts, Arc::new(Coulomb), &c);
            let h32 = H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &c);
            assert_eq!(h64.cache().is_some(), tier == "cached", "{what}");
            assert_k_invariant::<f64, f64>(&h64, &format!("{what}/f64"));
            assert_k_invariant::<f32, f32>(&h32, &format!("{what}/f32"));
            assert_k_invariant::<f32, f64>(&h32, &format!("{what}/mixed"));
        }
    }
}

#[test]
fn whole_tree_schedule_is_both_directions_of_every_listed_pair_in_order() {
    let pts = gen::uniform_cube(N, 3, 23);
    let c = cfg(
        MemoryMode::OnTheFly,
        CacheBudget::Off,
        BuilderStrategy::AnchorNet,
    );
    let h2 = H2MatrixS::<f64>::build(&pts, Arc::new(Coulomb), &c);
    let plan = SweepPlan::whole(&h2);
    let coupling: Vec<_> = plan.coupling().collect();
    assert_eq!(coupling.len(), h2.lists().interaction_pairs.len());
    for (slot, (st, &(i, j))) in coupling
        .iter()
        .zip(&h2.lists().interaction_pairs)
        .enumerate()
    {
        assert_eq!(
            (st.slot, st.i, st.j, st.fwd, st.rev),
            (slot, i, j, true, true)
        );
    }
    // A diagonal nearfield block is applied once, not mirrored onto itself.
    for (st, &(i, j)) in plan.nearfield().zip(&h2.lists().nearfield_pairs) {
        assert_eq!((st.i, st.j, st.fwd, st.rev), (i, j, true, i != j));
    }
    // The warm-up order is the schedule: coupling, then nearfield.
    let blocks: Vec<_> = plan
        .block_schedule(&h2)
        .map(|(_, i, j, _)| (i, j))
        .collect();
    let listed: Vec<_> = h2
        .lists()
        .interaction_pairs
        .iter()
        .chain(&h2.lists().nearfield_pairs)
        .copied()
        .collect();
    assert_eq!(blocks, listed);
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
        // Ranks, node extents and lists all moved: the layout the sweep
        // derives from them must be the one a fresh load derives.
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
        assert_k_invariant::<f64, f64>(&h2, &format!("updated {}/{budget}", mode.name()));
    }
}
