//! Structural integration tests for `h2-core`: rank behaviour across
//! methods, diagnostics consistency, and golden properties of the nested
//! representation.

use h2_core::diagnostics::structure_report;
use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
use h2_kernels::{Coulomb, Gaussian};
use h2_points::gen;
use std::sync::Arc;

fn build(basis: BasisMethod, n: usize, seed: u64) -> H2Matrix {
    let pts = gen::uniform_cube(n, 3, seed);
    let cfg = H2Config {
        basis,
        mode: MemoryMode::OnTheFly,
        leaf_size: 64,
        eta: 0.7,
        ..H2Config::default()
    };
    H2Matrix::build(&pts, Arc::new(Coulomb), &cfg)
}

#[test]
fn data_driven_ranks_below_interpolation() {
    // The paper's Fig. 2 claim as an assertion: at matched accuracy the
    // data-driven leaf ranks sit well below the uniform interpolation rank.
    let tol = 1e-7;
    let dd = build(BasisMethod::data_driven_for_tol(tol, 3), 3000, 1);
    let interp = build(BasisMethod::interpolation_for_tol(tol, 3), 3000, 1);
    let dd_max = dd.ranks().iter().copied().max().unwrap();
    let in_rank = interp.ranks()[0];
    assert!(
        2 * dd_max < in_rank,
        "data-driven max rank {dd_max} not well below interpolation rank {in_rank}"
    );
}

#[test]
fn structure_report_consistent_across_methods() {
    for basis in [
        BasisMethod::data_driven_for_tol(1e-5, 3),
        BasisMethod::interpolation_for_tol(1e-5, 3),
    ] {
        let h2 = build(basis, 1500, 3);
        let r = structure_report(&h2);
        assert_eq!(r.farfield_entries + r.nearfield_entries, r.total_entries);
        assert_eq!(r.farfield_pairs, h2.lists().interaction_pairs.len());
    }
}

#[test]
fn memory_report_components_sum() {
    let h2 = build(BasisMethod::data_driven_for_tol(1e-6, 3), 1200, 4);
    let m = h2.memory_report();
    assert_eq!(
        m.total(),
        m.bases
            + m.transfers
            + m.proxies
            + m.coupling_blocks
            + m.nearfield_blocks
            + m.tree
            + m.lists
    );
    assert_eq!(
        m.generators(),
        m.total() - m.tree - m.lists,
        "generators = total minus shared structure"
    );
}

#[test]
fn expanded_basis_columns_match_rank() {
    let h2 = build(BasisMethod::data_driven_for_tol(1e-6, 3), 900, 5);
    for (i, nd) in h2.tree().nodes().iter().enumerate() {
        if nd.parent.is_some() {
            let u = h2.expanded_basis(i);
            assert_eq!(u.shape(), (nd.len(), h2.rank(i)), "node {i}");
        }
    }
}

#[test]
fn gaussian_ranks_exceed_coulomb_ranks() {
    // Fig. 9's mild outlier: the Gaussian at h = 0.1 carries more
    // information per block than 1/r at the same tolerance.
    let pts = gen::uniform_cube(2500, 3, 6);
    let mk = |kernel: Arc<dyn h2_kernels::Kernel>| {
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-7, 3),
            mode: MemoryMode::OnTheFly,
            leaf_size: 64,
            eta: 0.7,
            ..H2Config::default()
        };
        H2Matrix::build(&pts, kernel, &cfg)
    };
    let coulomb = mk(Arc::new(Coulomb));
    let gauss = mk(Arc::new(Gaussian::paper()));
    let sum = |h2: &H2Matrix| h2.ranks().iter().sum::<usize>();
    assert!(
        sum(&gauss) > sum(&coulomb),
        "gaussian {} vs coulomb {}",
        sum(&gauss),
        sum(&coulomb)
    );
}

#[test]
fn deeper_levels_have_smaller_or_equal_mean_rank_tail() {
    // Rank profiles flatten toward the leaves (smaller clusters, smaller
    // interactions) — the qualitative profile in the paper's Fig. 2 table.
    let h2 = build(BasisMethod::data_driven_for_tol(1e-7, 3), 6000, 7);
    let r = structure_report(&h2);
    let with_rank: Vec<_> = r.levels.iter().filter(|l| l.max_rank > 0).collect();
    assert!(with_rank.len() >= 2, "need at least two populated levels");
    let first = with_rank[1]; // first level below the (rank-0) root chain
    let last = with_rank.last().unwrap();
    assert!(
        last.mean_rank <= first.mean_rank * 1.5 + 16.0,
        "leaf-level mean rank {} vs upper {}",
        last.mean_rank,
        first.mean_rank
    );
}
