//! Randomized sketching primitives: a counter-based RNG and the Gaussian
//! test-matrix generator.
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
    fn empty_shapes_are_handled() {
        let mut rng = CounterRng::new(1);
        assert_eq!(gaussian_test_matrix(0, 0, &mut rng).shape(), (0, 0));
    }
}
