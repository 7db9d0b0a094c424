//! Anchor-net sampling (paper ref \[25\]), the one sampling rule of the
//! construction. Deterministic: no seed, no RNG.

use crate::halton::halton_in_box;
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
    // The pool dimension-major: coordinate `d` of candidate `k` at
    // `d * n + k`, so each anchor's distances are `dim` passes over
    // contiguous rows.
    let n = cand.len();
    let mut pool = vec![0.0; pts.dim() * n];
    for (k, &c) in cand.iter().enumerate() {
        for (d, &x) in pts.point(c).iter().enumerate() {
            pool[d * n + k] = x;
        }
    }
    let picks = nearest_untaken(&anchors, &pool, n, m);
    picks.into_iter().map(|k| cand[k]).collect()
}

/// The widest compile of [`nearest_untaken_baseline`] this host has.
fn nearest_untaken(anchors: &[f64], pool: &[f64], n: usize, m: usize) -> Vec<usize> {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if h2_linalg::simd::avx2() {
        // SAFETY: `nearest_untaken_avx2` is a safe function whose only
        // requirement of its caller is that the CPU supports AVX2, which
        // `simd::avx2` on the line above has just established.
        return unsafe { nearest_untaken_avx2(anchors, pool, n, m) };
    }
    nearest_untaken_baseline(anchors, pool, n, m)
}

/// [`nearest_untaken_baseline`] compiled with 256-bit vectors. rustc emits
/// no contractable multiply-add, so the bits are the baseline's.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn nearest_untaken_avx2(anchors: &[f64], pool: &[f64], n: usize, m: usize) -> Vec<usize> {
    nearest_untaken_baseline(anchors, pool, n, m)
}

/// For each anchor in turn, the pool position of the nearest candidate not
/// yet taken, until `m` are taken. Each distance is `dist2`'s: from `0.0`,
/// `t = a_d − x_d; s += t·t` in ascending `d`. A taken candidate's starts
/// at `+∞` instead and stays there (or NaN), so [`first_min`] never picks it.
#[inline(always)]
fn nearest_untaken_baseline(anchors: &[f64], pool: &[f64], n: usize, m: usize) -> Vec<usize> {
    let dim = pool.len() / n;
    let mut start = vec![0.0; n];
    let mut dist = vec![0.0; n];
    let mut out = Vec::with_capacity(m);
    for a in anchors.chunks_exact(dim) {
        // `start + t·t` is `0.0 + t·t`'s bits: `t·t` is never `-0.0`.
        for ((s, &s0), &x) in dist.iter_mut().zip(&start).zip(&pool[..n]) {
            let t = a[0] - x;
            *s = s0 + t * t;
        }
        for (&ad, xd) in a[1..].iter().zip(pool[n..].chunks_exact(n)) {
            for (s, &x) in dist.iter_mut().zip(xd) {
                let t = ad - x;
                *s += t * t;
            }
        }
        if let Some(k) = first_min(&dist) {
            start[k] = f64::INFINITY;
            out.push(k);
            if out.len() == m {
                break;
            }
        }
    }
    out
}

/// Lanes of [`first_min`]'s minimum: four independent 256-bit chains.
const LANES: usize = 16;

/// The position a scan over ascending positions with a strict `<` against a
/// running minimum that starts at `+∞` ends on: the first position of the
/// smallest distance, `None` when every distance is `+∞` or NaN.
///
/// Two vector passes: the smallest distance, each lane running that scan
/// over its own positions (NaN never passes `<`), then the first position
/// holding a distance `==` to it. A tie goes to the lowest position, as in
/// the one scan.
#[inline(always)]
fn first_min(dist: &[f64]) -> Option<usize> {
    let mut lane = [f64::INFINITY; LANES];
    let mut chunks = dist.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (l, &d) in lane.iter_mut().zip(chunk) {
            *l = if d < *l { d } else { *l };
        }
    }
    let tail = chunks.remainder().iter();
    let min = tail
        .chain(&lane)
        .fold(f64::INFINITY, |m, &d| if d < m { d } else { m });
    if min == f64::INFINITY {
        return None;
    }
    let hit = |c: &[f64]| c.iter().fold(false, |any, &d| any | (d == min));
    let c = dist.chunks(LANES).position(hit)?;
    let k = dist[c * LANES..].iter().position(|&d| d == min)?;
    Some(c * LANES + k)
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

    #[test]
    fn equidistant_candidates_go_to_the_lowest_pool_position() {
        // 1-D anchors at 0.5 then 0.25: the first is equidistant from all
        // four candidates, the second from the two at 0.0. Each tie goes to
        // the earliest position in `cand`, not to the lowest point index.
        let pts = PointSet::new(1, vec![0.0, 1.0, 0.0, 1.0]);
        assert_eq!(anchor_net(&pts, &[3, 2, 1, 0], 2), [3, 2]);
    }

    #[test]
    fn a_nan_candidate_is_never_picked() {
        let pts = PointSet::new(2, vec![0.0, 0.0, f64::NAN, 0.5, 1.0, 1.0, 0.0, 1.0]);
        let mut out = anchor_net(&pts, &[0, 1, 2, 3], 3);
        out.sort_unstable();
        assert_eq!(out, [0, 2, 3]);
    }

    #[test]
    fn an_all_duplicate_pool_is_taken_in_pool_order() {
        let pts = PointSet::from_fn(40, 3, |_, _| 0.25);
        let cand: Vec<usize> = (0..40).rev().collect();
        assert_eq!(anchor_net(&pts, &cand, 10), cand[..10]);
    }

    #[test]
    fn one_candidate_over_budget() {
        let pts = gen::uniform_cube(50, 3, 4);
        let cand: Vec<usize> = (20..31).collect();
        let out = anchor_net(&pts, &cand, 10);
        assert_eq!(out.len(), 10);
        assert!(all_distinct(&out));
        assert!(out.iter().all(|i| cand.contains(i)));
    }

    #[test]
    fn dispatched_compile_has_the_baseline_bits() {
        if !h2_linalg::simd::avx2() {
            eprintln!("no AVX2 on this host: comparing the baseline compile with itself");
        }
        // Pools across the vector width in 1 to 5 dimensions, with
        // duplicates, a NaN and infinities among the coordinates.
        for dim in 1..=5 {
            for n in [2, 3, 5, 8, 17, 130] {
                let mut pool: Vec<f64> = (0..dim * n)
                    .map(|e| ((e * 37 + 11) % 23) as f64 / 7.0)
                    .collect();
                if n > 4 {
                    let len = pool.len();
                    pool[len / 2] = f64::NAN;
                    pool[len / 3] = f64::NEG_INFINITY;
                    pool[len - 1] = f64::INFINITY;
                }
                let m = n / 2 + 1;
                let anchors = halton_in_box(m + m / 2 + 1, &vec![0.0; dim], &vec![3.0; dim]);
                let base = nearest_untaken_baseline(&anchors, &pool, n, m);
                assert_eq!(
                    nearest_untaken(&anchors, &pool, n, m),
                    base,
                    "dim {dim} n {n}"
                );
            }
        }
    }
}
