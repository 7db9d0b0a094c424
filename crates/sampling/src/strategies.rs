//! Anchor-net sampling (paper ref \[25\]), the one sampling rule of the
//! construction. Deterministic: no seed, no RNG.
//!
//! Its cost is the nearest-untaken search: for every anchor, one pass over
//! the candidate pool that sums each candidate's squared distance and keeps
//! the first position of the smallest, eight candidates at a time (one
//! 512-bit vector of `f64`). The pass has a baseline, an AVX2 and an
//! AVX-512 compile of one body, and the host runs the widest it has
//! (`h2_linalg::simd`); all three pick the same candidates, because each
//! distance is the same additions in the same order and rustc fuses no
//! multiply-add.

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
    let pool = chunked(pts.dim(), cand.len(), |k| pts.point(cand[k]));
    let picks = nearest_untaken(&anchors, &pool, cand.len(), m);
    picks.into_iter().map(|k| cand[k]).collect()
}

/// The `n` candidates `point(k)` of `dim` coordinates each, in chunks of
/// [`CHUNK`]: coordinate `d` of candidate `c·CHUNK + l` at
/// `(c·dim + d)·CHUNK + l`, so a chunk's coordinates are `dim` contiguous
/// vectors. Zeros pad the last chunk.
fn chunked<'p>(dim: usize, n: usize, point: impl Fn(usize) -> &'p [f64]) -> Vec<f64> {
    let mut pool = vec![0.0; n.div_ceil(CHUNK) * CHUNK * dim];
    for k in 0..n {
        let (c, l) = (k / CHUNK, k % CHUNK);
        for (d, &x) in point(k).iter().enumerate() {
            pool[(c * dim + d) * CHUNK + l] = x;
        }
    }
    pool
}

/// The widest compile of [`nearest_untaken_baseline`] this host has.
fn nearest_untaken(anchors: &[f64], pool: &[f64], n: usize, m: usize) -> Vec<usize> {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if h2_linalg::simd::avx512() {
        // SAFETY: `nearest_untaken_avx512` is a safe function whose only
        // requirement of its caller is that the CPU supports AVX-512F,
        // which `simd::avx512` on the line above has just established.
        return unsafe { nearest_untaken_avx512(anchors, pool, n, m) };
    } else if h2_linalg::simd::avx2() {
        // SAFETY: as above, for AVX2 and `simd::avx2`.
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

/// [`nearest_untaken_baseline`] compiled with 512-bit vectors (one chunk
/// per vector), with the bits of the other two for the same reason.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn nearest_untaken_avx512(anchors: &[f64], pool: &[f64], n: usize, m: usize) -> Vec<usize> {
    nearest_untaken_baseline(anchors, pool, n, m)
}

/// For each anchor in turn, the position of the nearest of the `n`
/// candidates of the [`chunked`] `pool` not yet taken, until `m` are taken.
/// A taken candidate's distance starts at `+∞` instead of `0.0` and stays
/// there (or NaN), so it is never picked; so does the padding's.
#[inline(always)]
fn nearest_untaken_baseline(anchors: &[f64], pool: &[f64], n: usize, m: usize) -> Vec<usize> {
    let padded = n.div_ceil(CHUNK) * CHUNK;
    let dim = pool.len() / padded;
    let mut start: Vec<f64> = (0..padded)
        .map(|k| if k < n { 0.0 } else { f64::INFINITY })
        .collect();
    let mut out = Vec::with_capacity(m);
    for a in anchors.chunks_exact(dim) {
        if let Some(k) = nearest(a, pool, &start) {
            start[k] = f64::INFINITY;
            out.push(k);
            if out.len() == m {
                break;
            }
        }
    }
    out
}

/// Candidates per chunk of [`nearest`]: one 512-bit vector of `f64`.
const CHUNK: usize = 8;

/// The position a scan over ascending positions with a strict `<` against a
/// running minimum that starts at `+∞` ends on: the first position of the
/// smallest distance from `a`, `None` when every distance is `+∞` or NaN.
/// Candidate `k`'s distance is `start[k] + Σ_d (a_d − x_d)²` summed in
/// ascending `d`, each term `t·t` for `t = a_d − x_d`.
///
/// One pass over the [`chunked`] pool: every lane of a chunk keeps its own
/// running minimum (strict `<`, so NaN never enters) and the first chunk
/// that holds it. The lanes then reduce to the lowest position holding the
/// smallest of their minima, so a tie goes to the lowest position, as in
/// the one scan.
#[inline(always)]
fn nearest(a: &[f64], pool: &[f64], start: &[f64]) -> Option<usize> {
    // Each lane's first chunk holding its minimum is kept as an `f64`
    // (exact below 2⁵³), so every lane operation is one `f64` vector op.
    let mut min = [f64::INFINITY; CHUNK];
    let mut at = [0.0; CHUNK];
    let chunks = pool
        .chunks_exact(a.len() * CHUNK)
        .zip(start.chunks_exact(CHUNK));
    for (c, (xs, s)) in chunks.enumerate() {
        let mut s: [f64; CHUNK] = s.try_into().expect("one chunk");
        for (&ad, xd) in a.iter().zip(xs.chunks_exact(CHUNK)) {
            let xd: &[f64; CHUNK] = xd.try_into().expect("one chunk");
            for l in 0..CHUNK {
                let t = ad - xd[l];
                s[l] += t * t;
            }
        }
        let c = c as f64;
        for l in 0..CHUNK {
            let less = s[l] < min[l];
            min[l] = if less { s[l] } else { min[l] };
            at[l] = if less { c } else { at[l] };
        }
    }
    first_of_lanes(&min, &at)
}

/// The lowest position `at[l]·CHUNK + l` holding the smallest finite
/// `min[l]`. A function of its own, not inlined: reading the lanes one by
/// one inside [`nearest`] leads LLVM to split its vectors lane by lane
/// (the AVX-512 scan ran 2.8× slower that way).
#[inline(never)]
fn first_of_lanes(min: &[f64; CHUNK], at: &[f64; CHUNK]) -> Option<usize> {
    let lanes = (0..CHUNK).map(|l| (min[l], at[l] as usize * CHUNK + l));
    let first = |b: (f64, usize), (d, k): (f64, usize)| {
        if d < b.0 || (d == b.0 && k < b.1) {
            (d, k)
        } else {
            b
        }
    };
    let (d, k) = lanes.fold((f64::INFINITY, usize::MAX), first);
    (d < f64::INFINITY).then_some(k)
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

    /// The nearest-untaken picks among `n` points (coordinates point after
    /// point) by brute force: for each anchor, every
    /// untaken candidate's `0.0 + Σ_d (a_d − x_d)²` in ascending `d`, the
    /// first strictly smallest finite one taken.
    fn brute_force(anchors: &[f64], points: &[f64], n: usize, m: usize) -> Vec<usize> {
        let dim = points.len() / n;
        let (mut taken, mut out) = (vec![false; n], Vec::new());
        for a in anchors.chunks_exact(dim) {
            let mut best = (f64::INFINITY, None);
            for k in (0..n).filter(|&k| !taken[k]) {
                let mut s = 0.0;
                for (d, &ad) in a.iter().enumerate() {
                    let t = ad - points[k * dim + d];
                    s += t * t;
                }
                if s < best.0 {
                    best = (s, Some(k));
                }
            }
            if let Some(k) = best.1 {
                taken[k] = true;
                out.push(k);
                if out.len() == m {
                    break;
                }
            }
        }
        out
    }

    /// Every compile of the scan this host runs, by name.
    #[allow(clippy::type_complexity)]
    fn each_compile() -> Vec<(&'static str, fn(&[f64], &[f64], usize, usize) -> Vec<usize>)> {
        let mut compiles: Vec<(_, fn(&[f64], &[f64], usize, usize) -> Vec<usize>)> =
            vec![("baseline", nearest_untaken_baseline)];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if h2_linalg::simd::avx2() {
                // SAFETY: `simd::avx2` has just established that the CPU has AVX2.
                compiles.push(("avx2", |a, p, n, m| unsafe {
                    nearest_untaken_avx2(a, p, n, m)
                }));
            }
            if h2_linalg::simd::avx512() {
                // SAFETY: `simd::avx512` has just established that the CPU has AVX-512F.
                compiles.push(("avx512", |a, p, n, m| unsafe {
                    nearest_untaken_avx512(a, p, n, m)
                }));
            }
        }
        compiles.push(("dispatched", nearest_untaken));
        compiles
    }

    #[test]
    fn dispatched_compile_has_the_baseline_bits() {
        let compiles = each_compile();
        if compiles.len() == 2 {
            eprintln!("no AVX2 on this host: comparing the baseline compile with itself");
        }
        // Pools below, at and across the chunk width in 1 to 5 dimensions:
        // spread coordinates with duplicates, the same with a NaN and
        // infinities among them, and every candidate at one point (each
        // anchor equidistant from all, so the lowest position wins). The
        // budgets stop early, take the pool to exhaustion, and ask for one
        // more than it holds.
        for dim in 1..=5 {
            for n in [1, 7, 8, 9, 17, 130, 1000] {
                let spread: Vec<f64> = (0..dim * n)
                    .map(|e| ((e * 37 + 11) % 23) as f64 / 7.0)
                    .collect();
                let mut hostile = spread.clone();
                let len = hostile.len();
                hostile[len / 2] = f64::NAN;
                hostile[len / 3] = f64::NEG_INFINITY;
                hostile[len - 1] = f64::INFINITY;
                let one_point = vec![1.5; dim * n];
                for (what, points) in [
                    ("spread", spread),
                    ("hostile", hostile),
                    ("one point", one_point),
                ] {
                    for m in [n / 2 + 1, n, n + 1] {
                        let anchors = halton_in_box(2 * m + 1, &vec![0.0; dim], &vec![3.0; dim]);
                        let want = brute_force(&anchors, &points, n, m);
                        if what != "hostile" && m >= n {
                            assert_eq!(want.len(), n, "dim {dim} n {n}: the pool is exhausted");
                        }
                        let pool = chunked(dim, n, |k| &points[k * dim..(k + 1) * dim]);
                        for (name, compile) in &compiles {
                            let got = compile(&anchors, &pool, n, m);
                            assert_eq!(got, want, "{name}: {what}, dim {dim} n {n} m {m}");
                        }
                    }
                }
            }
        }
    }
}
