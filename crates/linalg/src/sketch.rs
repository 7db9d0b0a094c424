//! Randomized sketching primitives: a counter-based RNG and Gaussian and
//! SRHT test-matrix generators.
//!
//! These are the substrate of the **sketched H² construction**
//! (`h2_core::builders::sketched`): instead of compressing a node's farfield block `A` directly, the builder
//! forms the much thinner sketch `Y = A Ω` against a random *test matrix*
//! `Ω` and factorizes `Y` — the classic randomized-range argument
//! (Halko–Martinsson–Tropp) says the row space of `Y` captures the dominant
//! row space of `A` with overwhelming probability once `Ω` has a few more
//! columns than the target rank.
//!
//! ## Determinism
//!
//! Everything here is driven by [`CounterRng`], a **counter-based** splitmix64
//! generator: the `i`-th output is a pure function `mix(key, i)` of the
//! stream key and the counter, with no hidden global state. Streams derived
//! via [`CounterRng::stream`] are statistically independent, so parallel
//! workers (one stream per tree node × adaptive round) draw reproducible
//! randomness in any execution order — the property that makes sketched
//! builds bit-reproducible run-to-run and at any executor width
//! ([`crate::exec`]).
//!
//! All routines are `f64`: like the rest of the construction pipeline, the
//! factorization runs in double precision and results are rounded to the
//! storage scalar once, at assembly.

use crate::matrix::Matrix;

/// Golden-ratio increment of splitmix64.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: a bijective avalanche mix of one 64-bit word.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counter-based splitmix64 RNG.
///
/// Output `i` of the stream with key `k` is `mix64(k + (i+1)·GAMMA)` — the
/// splitmix64 sequence, evaluated positionally rather than by mutating
/// hidden state. Two generators with the same `(seed, stream)` always
/// produce the same sequence; distinct streams are decorrelated by passing
/// the stream id through the same finalizer.
#[derive(Clone, Debug)]
pub struct CounterRng {
    key: u64,
    ctr: u64,
}

impl CounterRng {
    /// Root generator for `seed` (stream 0).
    pub fn new(seed: u64) -> Self {
        Self::stream(seed, 0)
    }

    /// An independent stream derived from `(seed, stream)`. Use one stream
    /// per parallel work item (e.g. per tree node per adaptive round) so
    /// scheduling order cannot change what anyone draws.
    pub fn stream(seed: u64, stream: u64) -> Self {
        CounterRng {
            key: mix64(seed ^ mix64(stream.wrapping_mul(GAMMA) ^ 0xA5A5_A5A5_5A5A_5A5A)),
            ctr: 0,
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.ctr = self.ctr.wrapping_add(1);
        mix64(self.key.wrapping_add(self.ctr.wrapping_mul(GAMMA)))
    }

    /// Uniform in `[0, 1)` with 53 bits of mantissa.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `0..n` (`n > 0`). Uses the high-bits multiply trick;
    /// the modulo bias is below 2^-53 for any practical `n`.
    #[inline]
    pub fn pick(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Standard normal via Box–Muller (two uniforms per call, no cached
    /// second value — keeps draws positional and therefore reproducible
    /// regardless of how callers interleave them).
    #[inline]
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0): shift the first uniform away from zero.
        let u1 = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let u1 = (u1 + 0.5 / (1u64 << 53) as f64).min(1.0);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A random sign in `{-1.0, +1.0}`.
    #[inline]
    pub fn sign(&mut self) -> f64 {
        if self.next_u64() & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// Which test-matrix ensemble a sketch draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SketchKind {
    /// I.i.d. `N(0, 1/k)` entries — the reference ensemble with the
    /// sharpest theory and fully dense mixing.
    #[default]
    Gaussian,
    /// Subsampled randomized Hadamard transform: `Ω = √(p/k) · D H_p S / √p`
    /// rows truncated to `m` — structured mixing with ±1 arithmetic,
    /// the ensemble batched/accelerator backends prefer.
    Srht,
}

impl SketchKind {
    /// Harness CLI name.
    pub fn name(self) -> &'static str {
        match self {
            SketchKind::Gaussian => "gaussian",
            SketchKind::Srht => "srht",
        }
    }

    /// Parses the harness CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "gaussian" | "gauss" => Some(SketchKind::Gaussian),
            "srht" | "hadamard" => Some(SketchKind::Srht),
            _ => None,
        }
    }
}

/// An `m x k` Gaussian test matrix with `N(0, 1/k)` entries (so `‖Ωx‖ ≈ ‖x‖`
/// in expectation), drawn from `rng` in column-major order.
pub fn gaussian_test_matrix(m: usize, k: usize, rng: &mut CounterRng) -> Matrix {
    let scale = if k > 0 { 1.0 / (k as f64).sqrt() } else { 1.0 };
    let mut out = Matrix::zeros(m, k);
    for j in 0..k {
        for v in out.col_mut(j) {
            *v = rng.normal() * scale;
        }
    }
    out
}

/// An `m x k` SRHT test matrix: random signs, a Walsh–Hadamard mix over the
/// next power of two `p ≥ m`, and `k` uniformly chosen Hadamard columns,
/// scaled so `E[ΩᵀΩ] = I`. Entries are evaluated directly as
/// `±(-1)^popcount(i & c_j)` — with sketch widths this small, the closed
/// form beats a fast transform and keeps the draw purely positional.
pub fn srht_test_matrix(m: usize, k: usize, rng: &mut CounterRng) -> Matrix {
    let p = m.max(1).next_power_of_two();
    let scale = if k > 0 {
        (p as f64 / k as f64).sqrt() / (p as f64).sqrt()
    } else {
        1.0
    };
    let signs: Vec<f64> = (0..m).map(|_| rng.sign()).collect();
    let cols: Vec<usize> = (0..k).map(|_| rng.pick(p)).collect();
    Matrix::from_fn(m, k, |i, j| {
        let h = if (i & cols[j]).count_ones().is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        signs[i] * h * scale
    })
}

/// Draws a test matrix of the requested ensemble.
pub fn test_matrix(kind: SketchKind, m: usize, k: usize, rng: &mut CounterRng) -> Matrix {
    match kind {
        SketchKind::Gaussian => gaussian_test_matrix(m, k, rng),
        SketchKind::Srht => srht_test_matrix(m, k, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_rng_is_positional_and_streamed() {
        let mut a = CounterRng::stream(42, 7);
        let mut b = CounterRng::stream(42, 7);
        let seq: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        assert_eq!(seq, (0..16).map(|_| b.next_u64()).collect::<Vec<_>>());
        let mut c = CounterRng::stream(42, 8);
        assert_ne!(seq[0], c.next_u64());
        let mut d = CounterRng::stream(43, 7);
        assert_ne!(seq[0], d.next_u64());
    }

    #[test]
    fn uniform_and_pick_in_range() {
        let mut rng = CounterRng::new(1);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
            let p = rng.pick(13);
            assert!(p < 13);
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = CounterRng::new(5);
        let n = 20_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.normal();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn pick_covers_all_buckets() {
        let mut rng = CounterRng::new(9);
        let mut hits = [0usize; 8];
        for _ in 0..8000 {
            hits[rng.pick(8)] += 1;
        }
        for (i, &h) in hits.iter().enumerate() {
            assert!(h > 700, "bucket {i} starved: {h}");
        }
    }

    #[test]
    fn gaussian_test_matrix_deterministic_and_scaled() {
        let mut a = CounterRng::stream(3, 1);
        let mut b = CounterRng::stream(3, 1);
        let ma = gaussian_test_matrix(40, 10, &mut a);
        let mb = gaussian_test_matrix(40, 10, &mut b);
        assert_eq!(ma.as_slice(), mb.as_slice());
        // Column norms concentrate near sqrt(m/k)·(1/sqrt(k))·sqrt(k) …
        // simpler: E‖col‖² = m/k.
        let expect = (40.0f64 / 10.0).sqrt();
        for j in 0..10 {
            let nrm = crate::blas::nrm2(ma.col(j));
            assert!((nrm - expect).abs() < expect, "col {j} norm {nrm}");
        }
    }

    #[test]
    fn srht_entries_are_signed_and_scaled() {
        let mut rng = CounterRng::new(11);
        let m = 24;
        let k = 6;
        let omega = srht_test_matrix(m, k, &mut rng);
        let p = m.next_power_of_two() as f64;
        let mag = (p / k as f64).sqrt() / p.sqrt();
        for j in 0..k {
            for i in 0..m {
                assert!((omega[(i, j)].abs() - mag).abs() < 1e-14);
            }
        }
        // The ensemble approximately preserves squared norms on average.
        let x: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut rng = CounterRng::new(1);
        let trials = 200;
        let mut acc = 0.0;
        for t in 0..trials {
            let mut r = CounterRng::stream(rng.next_u64(), t as u64);
            let o = srht_test_matrix(m, k, &mut r);
            let y = o.matvec_t(&x);
            acc += y.iter().map(|v| v * v).sum::<f64>();
        }
        let x2: f64 = x.iter().map(|v| v * v).sum();
        let ratio = acc / trials as f64 / x2;
        assert!((ratio - 1.0).abs() < 0.25, "norm ratio {ratio}");
    }

    #[test]
    fn empty_shapes_are_handled() {
        let mut rng = CounterRng::new(1);
        assert_eq!(
            test_matrix(SketchKind::Srht, 0, 0, &mut rng).shape(),
            (0, 0)
        );
    }

    #[test]
    fn sketch_kind_parse_round_trip() {
        for k in [SketchKind::Gaussian, SketchKind::Srht] {
            assert_eq!(SketchKind::parse(k.name()), Some(k));
        }
        assert_eq!(SketchKind::parse("hadamard"), Some(SketchKind::Srht));
        assert_eq!(SketchKind::parse("x"), None);
    }
}
