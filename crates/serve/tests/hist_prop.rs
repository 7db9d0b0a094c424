//! Property: bounded log-linear histogram quantiles stay within one bucket
//! width of the exact sorted-sample quantiles, for arbitrary sample sets
//! spanning the exact region, several octaves, and repeated values.

use h2_serve::metrics::percentile;
use h2_telemetry::hist::{bucket_width, LogLinearHistogram};
use proptest::prelude::*;

/// Deterministic sample stream: an LCG whose modulus octave varies with the
/// state, so one run covers sub-bucket-exact values and wide octaves alike.
fn samples(seed: u64, len: usize) -> Vec<u64> {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 24) % (1u64 << (1 + (x % 44)))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn histogram_quantiles_within_one_bucket_of_exact(
        (seed, len, q_raw) in (0u64..100_000, 1usize..500, 0u32..=100)
    ) {
        let q = f64::from(q_raw) / 100.0;
        let mut exact = samples(seed, len);
        let mut h = LogLinearHistogram::new();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        let e = percentile(&exact, q);
        let got = h.quantile(q);
        prop_assert!(
            got.abs_diff(e) < bucket_width(e.max(got)),
            "seed={} len={} q={}: histogram {} vs exact {} (bucket width {})",
            seed, len, q, got, e, bucket_width(e.max(got))
        );
        // The histogram quantile never under-reports: it returns the upper
        // bound of the bucket holding the nearest-rank sample.
        prop_assert!(got >= e, "quantile must round up within its bucket");
        prop_assert_eq!(h.count(), exact.len() as u64);
    }
}
