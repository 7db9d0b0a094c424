//! Order statistics over timing samples.
//!
//! One quartile definition serves both the per-run summaries and `compare`:
//! Python's `statistics.quantiles(values, n=4)` (the exclusive method), which
//! is what the driver computes spreads with. Its middle value equals
//! `statistics.median`.

/// Quartiles `[q1, median, q3]`; `None` for fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    if samples.len() < 2 {
        return None;
    }
    let mut x = samples.to_vec();
    x.sort_by(f64::total_cmp);
    let (ld, m) = (x.len(), x.len() + 1);
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some([q(1), q(2), q(3)])
}

/// Median, quartiles and p90 of one sample set.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    /// Nearest rank, so it is always a latency that was observed.
    pub p90: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let [p25, p50, p75] = quartiles(&s).unwrap_or([s[0]; 3]);
    Summary {
        n: s.len(),
        p25,
        p50,
        p75,
        p90: s[((s.len() - 1) as f64 * 0.9).round() as usize],
    }
}

/// Contiguous parts of the timed window `tail_p90` takes a percentile of.
const TAIL_PARTS: usize = 5;

/// The 90th percentile of a window of latencies in time order, taken so that
/// a burst of the host cannot set it: the window is cut into `TAIL_PARTS`
/// contiguous parts, each gives its own nearest-rank p90, and the median of
/// those is reported. A burst that spoils fewer than half of the parts leaves
/// it where it was; the plain p90 moves as soon as a tenth of the operations
/// are hit.
pub fn tail_p90(in_time_order: &[f64]) -> f64 {
    assert!(!in_time_order.is_empty(), "tail of no samples");
    let n = in_time_order.len();
    let parts = TAIL_PARTS.min(n);
    let p90s: Vec<f64> = (0..parts)
        .map(|k| summarize(&in_time_order[k * n / parts..(k + 1) * n / parts]).p90)
        .collect();
    median(&p90s)
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// Runs `f` `reps` times and returns the median wall time in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_of_a_ramp() {
        let v: Vec<f64> = (0..101).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.p25, s.p50, s.p75, s.p90), (24.5, 50.0, 75.5, 90.0));
        assert_eq!(s.n, 101);
    }

    #[test]
    fn tail_ignores_a_burst_the_plain_p90_follows() {
        // 100 latencies 10.0..10.99 in a repeating ramp, so every part has
        // the same p90; then one fifth of the window is hit by a burst.
        let quiet: Vec<f64> = (0..100).map(|i| 10.0 + (i % 20) as f64 * 0.05).collect();
        let mut hit = quiet.clone();
        for v in &mut hit[20..40] {
            *v *= 1.6;
        }
        assert_eq!(tail_p90(&quiet), summarize(&quiet).p90);
        assert_eq!(tail_p90(&hit), tail_p90(&quiet));
        assert!(summarize(&hit).p90 > 1.4 * summarize(&quiet).p90);
        assert_eq!(tail_p90(&[3.0, 1.0]), 2.0);
    }

    #[test]
    fn single_sample() {
        let s = summarize(&[3.5]);
        assert_eq!((s.p25, s.p50, s.p75, s.p90), (3.5, 3.5, 3.5, 3.5));
    }
}
