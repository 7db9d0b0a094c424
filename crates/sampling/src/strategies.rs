//! Anchor-net sampling (paper ref \[25\]), the one sampling rule of the
//! construction. Deterministic: no seed, no RNG.

use crate::halton::halton_in_box;
use h2_points::pointset::dist2;
use h2_points::{BoundingBox, PointSet};

/// Anchor-net sampling (the paper's choice): place `m` low-discrepancy
/// anchors in the candidates' bounding box and select, for each anchor, the
/// nearest candidate point ("finding the points nearest to a set of lattice
/// points", §III-D), de-duplicated. Dimension-independent cost, no kernel
/// evaluations.
///
/// Returns at most `m` distinct indices from `cand` (indices into `pts`),
/// and all of `cand` when `cand.len() <= m`.
pub fn anchor_net(pts: &PointSet, cand: &[usize], m: usize) -> Vec<usize> {
    if cand.len() <= m {
        return cand.to_vec();
    }
    let bb = BoundingBox::of_points(pts, cand);
    // Oversample anchors modestly: duplicates collapse, so extra anchors
    // recover budget lost to collisions without changing the asymptotics.
    let n_anchor = m + m / 2 + 1;
    let anchors = halton_in_box(n_anchor, bb.lo(), bb.hi());
    let dim = pts.dim();
    let mut taken = vec![false; cand.len()];
    let mut out = Vec::with_capacity(m);
    for a in anchors.chunks_exact(dim) {
        // Nearest *untaken* candidate to this anchor: scanning untaken
        // only keeps the result a set without a separate dedup pass.
        let mut best = usize::MAX;
        let mut best_d = f64::INFINITY;
        for (k, &c) in cand.iter().enumerate() {
            if taken[k] {
                continue;
            }
            let d = dist2(a, pts.point(c));
            if d < best_d {
                best_d = d;
                best = k;
            }
        }
        if best != usize::MAX {
            taken[best] = true;
            out.push(cand[best]);
            if out.len() == m {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_points::gen;

    fn all_distinct(v: &[usize]) -> bool {
        let mut s = v.to_vec();
        s.sort_unstable();
        s.windows(2).all(|w| w[0] != w[1])
    }

    #[test]
    fn respects_budget_and_distinctness() {
        let pts = gen::uniform_cube(200, 3, 1);
        let cand: Vec<usize> = (0..200).collect();
        let out = anchor_net(&pts, &cand, 20);
        assert!(out.len() <= 20, "overshot");
        assert!(!out.is_empty(), "returned nothing");
        assert!(all_distinct(&out), "duplicated");
        assert!(out.iter().all(|i| cand.contains(i)));
    }

    #[test]
    fn small_candidate_sets_pass_through() {
        let pts = gen::uniform_cube(10, 2, 2);
        let cand = vec![3, 5, 7];
        assert_eq!(anchor_net(&pts, &cand, 5), cand);
    }

    #[test]
    fn anchor_net_spreads_over_box() {
        // Two well-separated blobs: anchor net must pick from both, unlike
        // an unlucky random draw.
        let mut coords = Vec::new();
        for i in 0..50 {
            coords.extend_from_slice(&[i as f64 * 0.001, 0.0]);
        }
        for i in 0..50 {
            coords.extend_from_slice(&[10.0 + i as f64 * 0.001, 0.0]);
        }
        let pts = PointSet::new(2, coords);
        let cand: Vec<usize> = (0..100).collect();
        let out = anchor_net(&pts, &cand, 10);
        let left = out.iter().filter(|&&i| i < 50).count();
        let right = out.len() - left;
        assert!(left > 0 && right > 0, "anchor net ignored a blob");
    }

    #[test]
    fn duplicate_points_terminate() {
        let pts = PointSet::from_fn(40, 2, |_, _| 0.5);
        let cand: Vec<usize> = (0..40).collect();
        let out = anchor_net(&pts, &cand, 10);
        assert!(!out.is_empty());
        assert!(all_distinct(&out));
    }
}
