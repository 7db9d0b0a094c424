//! Property-based tests for the sampling substrate.

use h2_points::admissibility::build_block_lists;
use h2_points::gen::{self, cases};
use h2_points::tree::{ClusterTree, TreeParams};
use h2_points::PointSet;
use h2_sampling::*;

const CASES: u64 = 20;

/// Farthest-point (greedy 2-approximation of k-center) sampling: the
/// reference `anchor_net_k_center_quality` compares anchor nets against.
fn farthest_point(pts: &PointSet, cand: &[usize], m: usize) -> Vec<usize> {
    use h2_points::pointset::dist2;
    if cand.len() <= m {
        return cand.to_vec();
    }
    // Start from the candidate nearest the centroid for determinism.
    let dim = pts.dim();
    let mut centroid = vec![0.0; dim];
    for &c in cand {
        for (k, x) in pts.point(c).iter().enumerate() {
            centroid[k] += x;
        }
    }
    for x in &mut centroid {
        *x /= cand.len() as f64;
    }
    let first = cand
        .iter()
        .enumerate()
        .min_by(|a, b| {
            dist2(pts.point(*a.1), &centroid).total_cmp(&dist2(pts.point(*b.1), &centroid))
        })
        .map(|(k, _)| k)
        .unwrap();
    let mut out = vec![cand[first]];
    let mut mind: Vec<f64> = cand
        .iter()
        .map(|&c| dist2(pts.point(c), pts.point(cand[first])))
        .collect();
    while out.len() < m {
        let (far, &d) = mind
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        if d == 0.0 {
            break; // all remaining candidates coincide with selected ones
        }
        let chosen = cand[far];
        out.push(chosen);
        for (k, &c) in cand.iter().enumerate() {
            let d = dist2(pts.point(c), pts.point(chosen));
            if d < mind[k] {
                mind[k] = d;
            }
        }
    }
    out
}

#[test]
fn farthest_point_maximizes_spread() {
    let pts = gen::uniform_cube(100, 1, 5);
    let cand: Vec<usize> = (0..100).collect();
    // First pick is centroid-nearest; the next two greedy picks must
    // reach out to both ends of the interval.
    let out = farthest_point(&pts, &cand, 3);
    let xs: Vec<f64> = out.iter().map(|&i| pts.point(i)[0]).collect();
    let spread =
        xs.iter().cloned().fold(f64::MIN, f64::max) - xs.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread > 0.8, "spread only {spread}");
}

#[test]
fn anchor_net_respects_contract() {
    cases(CASES, |r| {
        let n = 20 + r.below(180);
        let dim = 1 + r.below(4);
        let m = 1 + r.below(29);
        let seed = r.below(500) as u64;
        let pts = gen::uniform_cube(n, dim, seed);
        let cand: Vec<usize> = (0..n).collect();
        let out = anchor_net(&pts, &cand, m);
        assert!(out.len() <= m.min(n));
        assert!(!out.is_empty());
        let mut d = out.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), out.len(), "duplicated");
        assert!(out.iter().all(|&i| i < n), "out of range");
    });
}

#[test]
fn anchor_net_k_center_quality() {
    cases(CASES, |r| {
        let n = 80 + r.below(220);
        let seed = r.below(300) as u64;
        // Anchor nets should cover the square comparably to farthest-point
        // (the greedy 2-approximation): every point within a modest factor
        // of the FPS covering radius.
        let pts = gen::uniform_cube(n, 2, seed);
        let cand: Vec<usize> = (0..n).collect();
        let m = 16;
        let covering = |sel: &[usize]| -> f64 {
            (0..n)
                .map(|i| {
                    sel.iter()
                        .map(|&s| h2_points::pointset::dist2(pts.point(i), pts.point(s)))
                        .fold(f64::INFINITY, f64::min)
                })
                .fold(0.0_f64, f64::max)
                .sqrt()
        };
        let anchor = covering(&anchor_net(&pts, &cand, m));
        let fps = covering(&farthest_point(&pts, &cand, m));
        assert!(anchor <= 4.0 * fps + 1e-9, "anchor {anchor} vs fps {fps}");
    });
}

#[test]
fn hierarchical_budgets_scale_with_levels() {
    cases(CASES, |r| {
        let n = 200 + r.below(600);
        let seed = r.below(300) as u64;
        let pts = gen::uniform_cube(n, 3, seed);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(25));
        let lists = build_block_lists(&tree, 0.7);
        let params = SampleParams {
            node_samples: 8,
            far_samples: 16,
        };
        let s = hierarchical_sample(&tree, &lists, &params);
        // No node at any level may exceed the capped budget,
        // round(base · 2.5).
        for i in 0..tree.node_count() {
            assert!(s.x_star[i].len() <= 20);
            assert!(s.y_star[i].len() <= 40);
        }
    });
}

#[test]
fn y_star_excludes_own_subtree() {
    cases(CASES, |r| {
        let n = 150 + r.below(350);
        let seed = r.below(300) as u64;
        let pts = gen::uniform_cube(n, 2, seed);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(20));
        let lists = build_block_lists(&tree, 0.7);
        let s = hierarchical_sample(&tree, &lists, &SampleParams::default());
        for i in 0..tree.node_count() {
            let own: std::collections::HashSet<usize> =
                tree.node_indices(i).iter().copied().collect();
            for &p in &s.y_star[i] {
                assert!(!own.contains(&p), "farfield sample inside node {i}");
            }
        }
    });
}

#[test]
fn halton_low_discrepancy_in_boxes() {
    cases(CASES, |r| {
        let k = 1 + r.below(5);
        // The first 2^k - 1 base-2 points cover all 2^(k-1) dyadic bins.
        let m = (1usize << k) - 1;
        let bins = 1usize << (k - 1);
        let mut hit = vec![false; bins];
        for i in 0..m {
            let x = halton::radical_inverse(i as u64 + 1, 2);
            hit[(x * bins as f64) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h));
    });
}

#[test]
fn clustered_data_sampled_from_every_cluster() {
    // Two distant blobs of equal size: anchor-net with m >= 4 must pick
    // from both (random sampling occasionally would not).
    let mut coords = Vec::new();
    for i in 0..60 {
        coords.extend_from_slice(&[(i % 10) as f64 * 0.01, (i / 10) as f64 * 0.01]);
    }
    for i in 0..60 {
        coords.extend_from_slice(&[100.0 + (i % 10) as f64 * 0.01, (i / 10) as f64 * 0.01]);
    }
    let pts = PointSet::new(2, coords);
    let cand: Vec<usize> = (0..120).collect();
    let out = anchor_net(&pts, &cand, 8);
    let left = out.iter().filter(|&&i| i < 60).count();
    assert!(left > 0 && left < out.len());
}

#[test]
fn sample_tables_keep_their_bits() {
    // FNV-1a over every `X_i*` and `Y_i*` list (its length, then its
    // indices) of Algorithm 1 on the paper's point sets at two tolerances:
    // an anchor-net pick that moves changes the hash.
    let fnv = |h: u64, word: usize| (h ^ word as u64).wrapping_mul(0x0100_0000_01b3);
    let make = |name: &str, n: usize| match name {
        "cube2" => gen::uniform_cube(n, 2, 7),
        "cube3" => gen::uniform_cube(n, 3, 7),
        "sphere3" => gen::sphere_surface(n, 3, 7),
        _ => gen::dino(n, 7),
    };
    let mut got = Vec::new();
    for name in ["cube2", "cube3", "sphere3", "dino"] {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for n in [3_000, 10_000] {
            let pts = make(name, n);
            let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(128));
            let lists = build_block_lists(&tree, 0.7);
            for tol in [1e-6, 1e-9] {
                let params = SampleParams::for_tolerance(tol, pts.dim());
                let s = hierarchical_sample(&tree, &lists, &params);
                for list in s.x_star.iter().chain(&s.y_star) {
                    h = list.iter().fold(fnv(h, list.len()), |h, &i| fnv(h, i));
                }
            }
        }
        got.push((name, h));
    }
    let want = [
        ("cube2", 0x03aa_6c1b_00ec_61f7),
        ("cube3", 0x856a_2420_bd10_cc37),
        ("sphere3", 0x2daa_a8e9_c79e_d362),
        ("dino", 0xd771_e13e_9297_5621),
    ];
    assert_eq!(got, want);
}
