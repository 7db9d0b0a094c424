//! Property-based tests for the geometry substrate.

use h2_points::admissibility::build_block_lists;
use h2_points::gen::{self, cases};
use h2_points::tree::{ClusterTree, TreeParams};
use h2_points::BoundingBox;

const CASES: u64 = 24;

#[test]
fn tree_nodes_nest() {
    cases(CASES, |r| {
        let n = 50 + r.below(550);
        let dim = 1 + r.below(4);
        let seed = r.below(1000) as u64;
        let leaf = 8 + r.below(56);
        let pts = gen::uniform_cube(n, dim, seed);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(leaf));
        for nd in tree.nodes() {
            for &c in &nd.children {
                let ch = tree.node(c);
                // Child ranges nest inside the parent's.
                assert!(ch.start >= nd.start && ch.end <= nd.end);
                // Child boxes nest inside the parent's box.
                for k in 0..dim {
                    assert!(ch.bbox.lo()[k] >= nd.bbox.lo()[k] - 1e-12);
                    assert!(ch.bbox.hi()[k] <= nd.bbox.hi()[k] + 1e-12);
                }
            }
        }
    });
}

#[test]
fn median_split_is_balanced() {
    cases(CASES, |r| {
        let n = 100 + r.below(700);
        let seed = r.below(1000) as u64;
        let pts = gen::uniform_cube(n, 3, seed);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(16));
        for nd in tree.nodes() {
            if nd.children.len() == 2 {
                let l = tree.node(nd.children[0]).len() as i64;
                let r = tree.node(nd.children[1]).len() as i64;
                assert!((l - r).abs() <= 1, "unbalanced split {l} vs {r}");
            }
        }
    });
}

#[test]
fn admissibility_partition_counts() {
    cases(CASES, |r| {
        let n = 60 + r.below(340);
        let dim = 1 + r.below(3);
        let seed = r.below(500) as u64;
        // Sum over farfield expansions + nearfield equals n^2 exactly
        // (checked on counts — the partition property of the block lists).
        let pts = gen::uniform_cube(n, dim, seed);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(20));
        let lists = build_block_lists(&tree, 0.7);
        let mut covered: u64 = 0;
        for &(i, j) in &lists.interaction_pairs {
            let a = tree.node(i).len() as u64;
            let b = tree.node(j).len() as u64;
            covered += 2 * a * b; // both (i,j) and (j,i)
        }
        for &(i, j) in &lists.nearfield_pairs {
            let a = tree.node(i).len() as u64;
            let b = tree.node(j).len() as u64;
            covered += if i == j { a * b } else { 2 * a * b };
        }
        assert_eq!(covered, (n as u64) * (n as u64));
    });
}

#[test]
fn eta_monotonicity() {
    cases(CASES, |r| {
        let n = 100 + r.below(300);
        let seed = r.below(300) as u64;
        // Stricter separation (smaller eta) can only push pairs down the
        // tree: total points covered by farfield shrinks or stays equal.
        let pts = gen::uniform_cube(n, 3, seed);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(20));
        let far_points = |eta: f64| -> u64 {
            build_block_lists(&tree, eta)
                .interaction_pairs
                .iter()
                .map(|&(i, j)| 2 * (tree.node(i).len() as u64) * (tree.node(j).len() as u64))
                .sum()
        };
        assert!(far_points(0.5) <= far_points(0.9));
    });
}

#[test]
fn bbox_union_contains_both() {
    cases(CASES, |r| {
        let dim = 1 + r.below(4);
        let seed = r.below(500) as u64;
        let a = gen::uniform_cube(20, dim, seed);
        let b = gen::uniform_cube(20, dim, seed ^ 7);
        let ba = BoundingBox::of_all(&a);
        let bb = BoundingBox::of_all(&b);
        let u = ba.union(&bb);
        for p in a.iter().chain(b.iter()) {
            assert!(u.contains(p));
        }
        assert!(u.diameter() + 1e-12 >= ba.diameter().max(bb.diameter()));
    });
}

#[test]
fn generators_have_exact_counts() {
    cases(CASES, |r| {
        let n = 1 + r.below(299);
        let dim = 1 + r.below(4);
        let seed = r.below(100) as u64;
        assert_eq!(gen::uniform_cube(n, dim, seed).len(), n);
        if dim >= 2 {
            assert_eq!(gen::sphere_surface(n, dim, seed).len(), n);
        }
        assert_eq!(gen::dino(n, seed).len(), n);
    });
}

#[test]
fn well_separated_is_symmetric_and_scale_free() {
    cases(CASES, |r| {
        let seed = r.below(500) as u64;
        let a = gen::uniform_cube(15, 3, seed);
        let b = gen::uniform_cube(15, 3, seed ^ 3);
        let ba = BoundingBox::of_all(&a);
        let bb = BoundingBox::of_all(&b);
        assert_eq!(ba.well_separated(&bb, 0.7), bb.well_separated(&ba, 0.7));
    });
}
