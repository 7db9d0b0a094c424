//! Bounded log-linear (HDR-style) histograms for latency recording.
//!
//! The service metrics must survive unbounded request streams, so per-sample
//! `Vec` retention is out: a [`LogLinearHistogram`] spends a fixed ~8 KiB
//! regardless of how many values it absorbs. Buckets are *log-linear*: each
//! power-of-two octave is split into [`SUB_BUCKETS`] equal sub-buckets, so
//! the relative quantile error is bounded by `1/SUB_BUCKETS` (6.25%) while
//! values below [`SUB_BUCKETS`] are recorded exactly. The scheme covers the
//! full `u64` range with [`BUCKETS`] buckets and no configuration — there is
//! no "max trackable value" knob to get wrong.
//!
//! Quantiles are *nearest-rank over buckets*: the reported value is the
//! inclusive upper bound of the bucket holding the nearest-rank sample, so
//! it differs from the exact sorted-sample quantile by at most one bucket
//! width ([`bucket_width`]). Histograms add ([`LogLinearHistogram::merge`])
//! for cross-shard aggregation, exactly on counts.

/// log2 of the sub-buckets per octave.
pub const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total buckets needed to cover `u64` at this resolution.
pub const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB_BUCKETS + SUB_BUCKETS;

/// Index of the bucket containing `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    // The leading 1 picks the octave; the next SUB_BITS bits pick the
    // sub-bucket. This is continuous with the exact region: values in
    // [SUB_BUCKETS, 2*SUB_BUCKETS) still map to their own bucket.
    let top = 63 - v.leading_zeros();
    let sub = ((v >> (top - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    (top - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
}

/// Inclusive upper bound of bucket `i` — the value quantiles report.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let shift = (i / SUB_BUCKETS - 1) as u32;
    let lower = ((SUB_BUCKETS + i % SUB_BUCKETS) as u64) << shift;
    // Add the already-decremented width: the top bucket ends exactly at
    // u64::MAX, so `lower + width` itself would overflow.
    lower + ((1u64 << shift) - 1)
}

/// Inclusive lower bound of bucket `i`.
#[inline]
fn bucket_lower(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    ((SUB_BUCKETS + i % SUB_BUCKETS) as u64) << (i / SUB_BUCKETS - 1)
}

/// Width of the bucket containing `v`: the histogram's worst-case quantile
/// error at that magnitude (1 in the exact region below [`SUB_BUCKETS`]).
pub fn bucket_width(v: u64) -> u64 {
    let i = bucket_index(v);
    bucket_upper(i) - bucket_lower(i) + 1
}

/// A fixed-memory value distribution: bucket counts plus running count/sum.
#[derive(Clone, Debug)]
pub struct LogLinearHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        LogLinearHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
        }
    }
}

impl LogLinearHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `v`.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of `v` in one step.
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded values; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the smallest occupied bucket (≤ the true minimum by
    /// at most one bucket width); 0 when empty.
    pub fn min(&self) -> u64 {
        self.first_occupied().map_or(0, bucket_lower)
    }

    /// Upper bound of the largest occupied bucket (≥ the true maximum by
    /// at most one bucket width); 0 when empty.
    pub fn max(&self) -> u64 {
        self.last_occupied().map_or(0, bucket_upper)
    }

    fn first_occupied(&self) -> Option<usize> {
        self.counts.iter().position(|&c| c > 0)
    }

    fn last_occupied(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Nearest-rank quantile, reported as the holding bucket's inclusive
    /// upper bound; 0 when empty. Matches the nearest-rank convention of an
    /// exact sorted-sample percentile — for any sample set the two differ
    /// by less than one [`bucket_width`].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(self.last_occupied().unwrap_or(0))
    }

    /// Adds `other`'s observations into `self` (cross-shard aggregation).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Occupied buckets as `(inclusive upper bound, cumulative count)`,
    /// ascending — exactly the samples a Prometheus `_bucket` series needs
    /// (the final `+Inf` bucket is the caller's, with [`Self::count`]).
    /// Only occupied buckets appear, so the series length tracks the
    /// spread of the data, not the [`BUCKETS`] capacity.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((bucket_upper(i), cum));
            }
        }
        out
    }

    /// Fixed memory footprint of the bucket array in bytes.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<[u64; BUCKETS]>() + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogLinearHistogram::new();
        for v in 0..SUB_BUCKETS as u64 * 2 {
            h.record(v);
        }
        // Every value below 2*SUB_BUCKETS sits in its own bucket, so every
        // quantile is exact.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 2 * SUB_BUCKETS as u64 - 1);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 2 * SUB_BUCKETS as u64 - 1);
        assert_eq!(h.count(), 2 * SUB_BUCKETS as u64);
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_cover_u64() {
        let mut expected_lower = 0u64;
        for i in 0..BUCKETS {
            assert_eq!(
                bucket_lower(i),
                expected_lower,
                "bucket {i} does not start where bucket {} ended",
                i.max(1) - 1
            );
            assert!(bucket_upper(i) >= bucket_lower(i));
            expected_lower = bucket_upper(i).wrapping_add(1);
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        for v in [0, 15, 16, 17, 1000, 123_456_789, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "v={v} i={i}");
        }
    }

    #[test]
    fn relative_error_is_bounded_by_the_sub_bucket_split() {
        for v in [100u64, 999, 12_345, 1 << 40] {
            let w = bucket_width(v);
            assert!(
                (w as f64) <= v as f64 / SUB_BUCKETS as f64 + 1.0,
                "width {w} too coarse at {v}"
            );
        }
    }

    #[test]
    fn quantiles_track_exact_within_one_bucket() {
        let mut h = LogLinearHistogram::new();
        let mut exact: Vec<u64> = Vec::new();
        let mut x = 7u64;
        for _ in 0..10_000 {
            // Deterministic LCG spread across several octaves.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x % 1_000_000;
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let e = exact[(((exact.len() - 1) as f64) * q).round() as usize];
            let got = h.quantile(q);
            assert!(
                got.abs_diff(e) < bucket_width(e.max(got)),
                "q={q}: hist {got} vs exact {e}"
            );
        }
    }

    #[test]
    fn merge_is_count_exact() {
        let mut a = LogLinearHistogram::new();
        let mut b = LogLinearHistogram::new();
        for v in [5u64, 500, 50_000] {
            a.record(v);
            b.record_n(v * 2, 3);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), a.count() + b.count());
        assert_eq!(m.sum(), a.sum() + b.sum());
        assert_eq!(m.quantile(1.0), b.quantile(1.0));
    }

    #[test]
    fn cumulative_buckets_reconstruct_the_cdf() {
        let mut h = LogLinearHistogram::new();
        h.record_n(10, 4);
        h.record_n(1000, 6);
        let cum = h.cumulative_buckets();
        assert_eq!(cum.len(), 2, "only occupied buckets are exported");
        assert_eq!(cum[0], (10, 4));
        assert_eq!(cum[1].1, 10);
        assert!(cum[1].0 >= 1000 && cum[1].0 - 1000 < bucket_width(1000));
        assert_eq!(
            h.footprint_bytes(),
            LogLinearHistogram::new().footprint_bytes()
        );
    }
}
