//! An updated operator is the same at every executor width: a churn
//! sequence run at widths 1, 2 and 3 gives the same operator file and the
//! same products, bit for bit, after every step.

use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode, UpdatePolicy};
use h2_kernels::Coulomb;
use h2_linalg::exec::Width;
use h2_points::{gen, PointSet};
use std::sync::Arc;

/// What one step leaves: its report, the operator file and a product.
type Step = (String, Vec<u8>, Vec<f64>);

/// The churn sequence at the installed width: inserts inside and outside
/// the boxes, removals, inserts at one spot until its leaf splits, and a
/// batch past the churn budget that rebuilds.
fn churn() -> Vec<Step> {
    let pts = gen::uniform_cube(1000, 3, 31);
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-6, 3),
        mode: MemoryMode::OnTheFly,
        leaf_size: 40,
        ..H2Config::default()
    };
    let mut h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
    let max_leaf = h2
        .tree()
        .leaves()
        .iter()
        .map(|&l| h2.tree().node(l).len())
        .max();
    let policy = UpdatePolicy {
        max_leaf_points: max_leaf,
        rebuild_churn: 0.05,
        ..UpdatePolicy::default()
    };
    h2.set_update_policy(policy).unwrap();
    let mut steps = Vec::new();
    let mut step = |h2: &H2Matrix, report: String| {
        let b: Vec<f64> = (0..h2.n()).map(|i| (i as f64 * 0.61).cos()).collect();
        steps.push((report, h2_serve::codec::encode(h2), h2.matvec(&b)));
    };
    let inside = h2.tree().node(h2.tree().leaves()[2]).bbox.center();
    for batch in [PointSet::new(3, inside), gen::uniform_cube(2, 3, 32)] {
        let r = h2.insert_points(&batch).unwrap();
        step(&h2, format!("{r:?}"));
    }
    let r = h2
        .insert_points(&PointSet::new(3, vec![1.2, 0.4, -0.1]))
        .unwrap();
    step(&h2, format!("{r:?}"));
    let r = h2.remove_points(&[0, 333, 700]).unwrap();
    step(&h2, format!("{r:?}"));
    let mut splits = 0;
    for k in 0..40 {
        let e = 2e-4 * k as f64;
        let r = h2
            .insert_points(&PointSet::new(3, vec![0.7 - e, 0.2 + e, 0.55]))
            .unwrap();
        splits += r.splits;
        step(&h2, format!("{r:?}"));
        if splits > 0 {
            break;
        }
    }
    assert!(splits > 0, "no leaf split");
    let r = h2.insert_points(&gen::uniform_cube(60, 3, 33)).unwrap();
    assert_eq!(r.rebuilds, 1, "the churn budget escalates");
    step(&h2, format!("{r:?}"));
    let r = h2.remove_points(&[1, 2]).unwrap();
    step(&h2, format!("{r:?}"));
    steps
}

#[test]
fn a_churn_sequence_keeps_its_bits_at_every_width() {
    let one = Width::new(1).install(churn);
    for width in [2, 3] {
        let other = Width::new(width).install(churn);
        assert_eq!(one.len(), other.len(), "width {width}");
        for (k, (a, b)) in one.iter().zip(&other).enumerate() {
            assert_eq!(a.0, b.0, "width {width}, step {k}: report");
            assert!(a.1 == b.1, "width {width}, step {k}: operator file");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.2), bits(&b.2), "width {width}, step {k}: product");
        }
    }
}
