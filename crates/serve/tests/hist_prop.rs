//! Property: bounded log-linear histogram quantiles stay within one bucket
//! width of the exact sorted-sample quantiles, for arbitrary sample sets
//! spanning the exact region, several octaves, and repeated values.

use h2_points::gen::{cases, Rng};
use h2_serve::metrics::percentile;
use h2_telemetry::hist::{bucket_width, LogLinearHistogram};

/// Samples whose modulus octave varies with each draw, so one case covers
/// sub-bucket-exact values and wide octaves alike.
fn samples(r: &mut Rng, len: usize) -> Vec<u64> {
    (0..len)
        .map(|_| {
            let x = r.next_u64();
            (x >> 24) % (1u64 << (1 + (x % 44)))
        })
        .collect()
}

#[test]
fn histogram_quantiles_within_one_bucket_of_exact() {
    cases(24, |r| {
        let len = 1 + r.below(499);
        let q = r.below(101) as f64 / 100.0;
        let mut exact = samples(r, len);
        let mut h = LogLinearHistogram::new();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        let e = percentile(&exact, q);
        let got = h.quantile(q);
        assert!(
            got.abs_diff(e) < bucket_width(e.max(got)),
            "len={} q={}: histogram {} vs exact {} (bucket width {})",
            len,
            q,
            got,
            e,
            bucket_width(e.max(got))
        );
        // The histogram quantile never under-reports: it returns the upper
        // bound of the bucket holding the nearest-rank sample.
        assert!(got >= e, "quantile must round up within its bucket");
        assert_eq!(h.count(), exact.len() as u64);
    });
}
