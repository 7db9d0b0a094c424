//! Property-based integration tests: core invariants under randomized
//! geometry, dimension, kernel and configuration.

use h2mv::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_points(max_n: usize) -> impl Strategy<Value = (usize, usize, u64)> {
    // (n, dim, seed)
    (64..max_n, 1usize..4, 0u64..1000)
}

fn build(
    n: usize,
    dim: usize,
    seed: u64,
    mode: MemoryMode,
    tol: f64,
) -> (h2mv::points::PointSet, H2Matrix) {
    let pts = h2mv::points::gen::uniform_cube(n, dim, seed);
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(tol, dim),
        mode,
        leaf_size: 32,
        eta: 0.7,
        ..H2Config::default()
    };
    let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
    (pts, h2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// H² matvec approximates the dense product for random geometry.
    #[test]
    fn h2_close_to_dense((n, dim, seed) in arb_points(400)) {
        let (pts, h2) = build(n, dim, seed, MemoryMode::Normal, 1e-6);
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
        let y = h2.matvec(&b);
        let z = h2mv::kernels::dense_matvec(&Coulomb, &pts, &b);
        let err = h2mv::linalg::vec_ops::rel_err(&y, &z);
        prop_assert!(err < 1e-4, "err {}", err);
    }

    /// Normal and on-the-fly modes produce (near-)identical results.
    #[test]
    fn modes_agree((n, dim, seed) in arb_points(400)) {
        let (_, h2a) = build(n, dim, seed, MemoryMode::Normal, 1e-5);
        let (_, h2b) = build(n, dim, seed, MemoryMode::OnTheFly, 1e-5);
        let b: Vec<f64> = (0..n).map(|i| 1.0 - (i % 3) as f64).collect();
        let ya = h2a.matvec(&b);
        let yb = h2b.matvec(&b);
        prop_assert!(h2mv::linalg::vec_ops::rel_err(&ya, &yb) < 1e-12);
    }

    /// The H² operator is linear.
    #[test]
    fn matvec_linearity((n, dim, seed) in arb_points(300), alpha in -3.0f64..3.0) {
        let (_, h2) = build(n, dim, seed, MemoryMode::OnTheFly, 1e-5);
        let a: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let bv: Vec<f64> = (0..n).map(|i| ((i * 3 % 5) as f64) * 0.5).collect();
        let combo: Vec<f64> = a.iter().zip(&bv).map(|(x, y)| alpha * x + y).collect();
        let ya = h2.matvec(&a);
        let yb = h2.matvec(&bv);
        let yc = h2.matvec(&combo);
        for i in 0..n {
            let lin = alpha * ya[i] + yb[i];
            prop_assert!((yc[i] - lin).abs() <= 1e-8 * (1.0 + lin.abs()));
        }
    }

    /// Symmetric kernels give a symmetric H² operator: x·(A y) == y·(A x).
    #[test]
    fn operator_is_symmetric((n, dim, seed) in arb_points(300)) {
        let (_, h2) = build(n, dim, seed, MemoryMode::Normal, 1e-7);
        let x: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i % 4) as f64) * 0.7 - 1.0).collect();
        let ay = h2.matvec(&y);
        let ax = h2.matvec(&x);
        let xay: f64 = x.iter().zip(&ay).map(|(a, b)| a * b).sum();
        let yax: f64 = y.iter().zip(&ax).map(|(a, b)| a * b).sum();
        // The two bilinear forms agree up to the approximation error scale.
        let scale = xay.abs().max(yax.abs()).max(1.0);
        prop_assert!((xay - yax).abs() < 1e-4 * scale, "{} vs {}", xay, yax);
    }

    /// Memory accounting: on-the-fly never exceeds normal mode.
    #[test]
    fn otf_memory_never_larger((n, dim, seed) in arb_points(350)) {
        let (_, h2n) = build(n, dim, seed, MemoryMode::Normal, 1e-5);
        let (_, h2o) = build(n, dim, seed, MemoryMode::OnTheFly, 1e-5);
        prop_assert!(h2o.memory_report().generators() <= h2n.memory_report().generators());
    }

    /// The cluster tree is a permutation and leaves tile the point set —
    /// checked through the public facade on random inputs.
    #[test]
    fn tree_is_permutation((n, dim, seed) in arb_points(500)) {
        let pts = h2mv::points::gen::uniform_cube(n, dim, seed);
        let tree = h2mv::points::ClusterTree::build(
            &pts,
            h2mv::points::TreeParams::with_leaf_size(25),
        );
        let mut seen = vec![false; n];
        for &p in tree.perm() {
            prop_assert!(!seen[p]);
            seen[p] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
        let leaf_total: usize = tree.leaves().iter().map(|&l| tree.node(l).len()).sum();
        prop_assert_eq!(leaf_total, n);
    }

    /// Anchor-net sampling returns distinct in-range indices within budget.
    #[test]
    fn anchor_net_contract(n in 50usize..300, m in 1usize..40, seed in 0u64..500) {
        let pts = h2mv::points::gen::uniform_cube(n, 3, seed);
        let cand: Vec<usize> = (0..n).collect();
        let out = h2mv::sampling::anchor_net(&pts, &cand, m);
        prop_assert!(out.len() <= m.max(cand.len().min(m)));
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), out.len(), "duplicates returned");
        prop_assert!(out.iter().all(|&i| i < n));
    }

    /// Pivoted-QR-based row ID reconstructs low-rank kernel blocks.
    #[test]
    fn row_id_on_kernel_blocks(seed in 0u64..200) {
        use h2mv::linalg::id::{row_id, row_id_rel_err};
        use h2mv::linalg::qr::Truncation;
        // A genuine farfield kernel block: two separated clusters.
        let a = h2mv::points::gen::uniform_cube(40, 3, seed);
        let mut coords = a.coords().to_vec();
        for c in coords.iter_mut().skip(2).step_by(3) {
            *c += 5.0; // shift cluster B along z
        }
        let b = h2mv::points::PointSet::new(3, coords);
        let block = h2mv::kernels::kernel_cross_matrix(&Coulomb, &a, &b);
        let id = row_id(&block, Truncation::tol(1e-8));
        prop_assert!(id.skel.len() < 40, "farfield block must be low-rank");
        prop_assert!(row_id_rel_err(&block, &id) < 1e-6);
    }
}
