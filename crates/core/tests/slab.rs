//! Where stored blocks live: every block plan writes its fresh blocks into
//! one slab, the memory report counts each live slab's payload once, and a
//! normal-mode update sequence that moves most blocks out of the build's
//! slab keeps at most twice the bytes it holds, with the on-the-fly
//! operator's products bit for bit.

use h2_core::{BasisMethod, BlockKind, CacheBudget, H2Config, H2MatrixS, MemoryMode};
use h2_kernels::Coulomb;
use h2_linalg::{MatrixS, Scalar, SlabMem};
use h2_points::gen;
use std::sync::Arc;

const KINDS: [BlockKind; 2] = [BlockKind::Coupling, BlockKind::Nearfield];

fn cfg(mode: MemoryMode) -> H2Config {
    H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-5, 3),
        mode,
        leaf_size: 48,
        eta: 0.7,
        cache_budget: CacheBudget::Off,
        ..H2Config::default()
    }
}

fn stored<S: Scalar>(h2: &H2MatrixS<S>, kind: BlockKind) -> Vec<&MatrixS<S>> {
    h2.table().stored_blocks(kind).expect("normal mode")
}

/// Bytes of the blocks held per family: `rows · cols · S::BYTES` each.
fn held<S: Scalar>(h2: &H2MatrixS<S>) -> [usize; 2] {
    let bytes = |b: &&MatrixS<S>| b.nrows() * b.ncols() * S::BYTES;
    KINDS.map(|kind| stored(h2, kind).iter().map(bytes).sum())
}

fn one_slab<S: Scalar>() {
    let h2 = H2MatrixS::<S>::build(
        &gen::uniform_cube(1500, 3, 5),
        Arc::new(Coulomb),
        &cfg(MemoryMode::Normal),
    );
    let blocks: Vec<_> = KINDS.iter().flat_map(|&kind| stored(&h2, kind)).collect();
    assert!(h2.lists().interaction_pairs.len() > 10);
    let slab = blocks[0].slab().expect("a view of the plan's slab");
    assert!(!slab.is_file_mapping());
    for block in &blocks {
        assert!(Arc::ptr_eq(block.slab().expect("a view"), slab));
        let at = block.as_slice().as_ptr() as usize - slab.as_bytes().as_ptr() as usize;
        assert_eq!(
            at % h2_linalg::SLAB_ALIGN,
            0,
            "aligned as the codec lays blocks"
        );
    }
    let report = h2.memory_report();
    let want = held(&h2);
    assert_eq!([report.coupling_blocks, report.nearfield_blocks], want);
    assert_eq!((report.cached_blocks, report.mapped_bytes), (0, 0));
}

#[test]
fn a_build_writes_its_blocks_into_one_slab_counted_as_held() {
    one_slab::<f64>();
    one_slab::<f32>();
}

#[test]
fn a_budgeted_plan_is_one_slab_counted_as_cached() {
    let mut otf = H2MatrixS::<f64>::build(
        &gen::uniform_cube(1500, 3, 6),
        Arc::new(Coulomb),
        &cfg(MemoryMode::OnTheFly),
    );
    otf.set_cache_budget(CacheBudget::Ratio(0.4));
    let keys = otf.table().keys();
    assert!(keys.len() > 1);
    let mut slabs: Vec<Arc<SlabMem>> = Vec::new();
    for &(kind, i, j, at) in &keys {
        let block = otf.table().get_at(kind, i, j, at).expect("held");
        let slab = block.slab().expect("a view");
        if !slabs.iter().any(|s| Arc::ptr_eq(s, slab)) {
            slabs.push(slab.clone());
        }
    }
    assert_eq!(slabs.len(), 1, "one plan, one slab");
    let report = otf.memory_report();
    assert_eq!(report.cached_blocks, otf.table().resident_bytes());
    assert_eq!(report.coupling_blocks + report.nearfield_blocks, 0);
}

#[test]
fn updates_that_empty_the_build_slab_stay_within_twice_the_held_bytes() {
    let pts = gen::uniform_cube(1200, 3, 7);
    let kernel = Arc::new(Coulomb);
    let mut normal = H2MatrixS::<f64>::build(&pts, kernel.clone(), &cfg(MemoryMode::Normal));
    let mut otf = H2MatrixS::<f64>::build(&pts, kernel, &cfg(MemoryMode::OnTheFly));
    let blocks = |h2: &H2MatrixS<f64>| KINDS.map(|kind| stored(h2, kind)).concat().len();
    let build_slab = stored(&normal, BlockKind::Nearfield)[0]
        .slab()
        .unwrap()
        .clone();
    let in_build_slab = |h2: &H2MatrixS<f64>| {
        let all = KINDS.map(|kind| stored(h2, kind)).concat();
        let ours = |b: &&&MatrixS<f64>| b.slab().is_some_and(|s| Arc::ptr_eq(s, &build_slab));
        all.iter().filter(ours).count()
    };
    let built = in_build_slab(&normal);
    assert_eq!(built, blocks(&normal));
    let b = h2_core::error_est::probe_vector(1200, 3);
    let mut partly_held = false;
    for round in 0..10u64 {
        // Points spread over the cube, so the touched leaves move round by
        // round: the build slab is held in part, then copied out of.
        let arriving = gen::uniform_cube(2, 3, 200 + round);
        let departing: Vec<usize> = (0..2)
            .map(|k| (round as usize * 241 + k * 597) % 1200)
            .collect();
        for h2 in [&mut normal, &mut otf] {
            h2.insert_points(&arriving).expect("insert");
            h2.remove_points(&departing).expect("remove");
        }
        let report = normal.memory_report();
        let resident = report.coupling_blocks + report.nearfield_blocks;
        let held = held(&normal);
        let held = held[0] + held[1];
        assert!(
            held <= resident && resident <= 2 * held,
            "round {round}: {resident} for {held}"
        );
        let left = in_build_slab(&normal);
        partly_held |= 0 < left && left < built;
        let (y, z) = (normal.matvec(&b), otf.matvec(&b));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&z), "round {round}");
    }
    assert!(partly_held, "no round held part of the build slab");
    assert_eq!(in_build_slab(&normal), 0, "the last blocks were copied out");
}
