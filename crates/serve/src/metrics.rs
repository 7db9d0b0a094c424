//! Lightweight serving metrics: per-request latency percentiles split into
//! queue-wait and compute, fused-sweep throughput, and batch-size
//! histograms.
//!
//! Each request's end-to-end latency decomposes as **queue wait** (enqueue →
//! its sweep starts) plus **compute** (the fused sweep it was served by).
//! Reporting the two separately shows whether a slow p99 comes from batching
//! delay (requests waiting for a drain) or from the sweep itself — the
//! knob to turn differs. Recording is mutex-protected (the service already
//! serializes on its queue lock, so contention is negligible) and
//! snapshotting is cheap enough to call on every scrape.
//!
//! Memory is **O(1) in the request count**: latencies land in bounded
//! log-linear [`LogLinearHistogram`]s (~8 KiB each, quantile error under one
//! [`bucket_width`](h2_telemetry::hist::bucket_width) ≈ 6.25%) instead of
//! per-sample vectors, so a service can absorb an unbounded request stream.
//! Everything is cumulative: a scraper gets windows from the exported
//! `_bucket` series, as Prometheus computes them.

use h2_core::CacheStats;
use h2_telemetry::hist::LogLinearHistogram;
use h2_telemetry::Exposition;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Everything recorded since construction.
#[derive(Default)]
struct Cumulative {
    queue: LogLinearHistogram,
    compute: LogLinearHistogram,
    latency: LogLinearHistogram,
    batch_hist: BTreeMap<usize, u64>,
    requests: u64,
    sweeps: u64,
    busy: Duration,
}

/// Accumulates service-side measurements.
#[derive(Default)]
pub struct ServiceMetrics {
    inner: Mutex<Cumulative>,
}

impl ServiceMetrics {
    /// Fresh, empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one fused sweep that served `batch` requests in `busy` time;
    /// `queue_waits` holds each request's enqueue → sweep-start wait. Every
    /// request in the sweep shares the sweep's `busy` as its compute time,
    /// so its end-to-end latency is `wait + busy`.
    ///
    /// A caller passing a wait list of the wrong length gets defensive
    /// reconciliation, not corruption: exactly `batch` requests are
    /// recorded, missing waits count as zero and extras are ignored, so the
    /// per-request samples always stay consistent with the request total.
    pub fn record_sweep(&self, batch: usize, busy: Duration, queue_waits: &[Duration]) {
        let mut g = self.inner.lock().unwrap();
        g.sweeps += 1;
        g.requests += batch as u64;
        g.busy += busy;
        *g.batch_hist.entry(batch).or_insert(0) += 1;
        let busy_us = busy.as_micros() as u64;
        g.compute.record_n(busy_us, batch as u64);
        for k in 0..batch {
            let w_us = queue_waits.get(k).map_or(0, |w| w.as_micros() as u64);
            g.queue.record(w_us);
            g.latency.record(w_us + busy_us);
        }
    }

    /// Snapshot of everything recorded since construction.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::from_cumulative(&self.inner.lock().unwrap())
    }
}

/// Nearest-rank percentile over a sorted sample; 0 for an empty sample.
/// This is the exact reference the bounded histograms approximate — their
/// [`quantile`](LogLinearHistogram::quantile) uses the same rank
/// convention, so the two differ by less than one bucket width.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Point-in-time view of the service metrics.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Requests completed.
    pub requests: u64,
    /// Fused sweeps executed.
    pub sweeps: u64,
    /// Median request latency (enqueue → result), microseconds.
    pub p50_latency_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_latency_us: u64,
    /// Median queue wait (enqueue → sweep start), microseconds.
    pub p50_queue_us: u64,
    /// 99th-percentile queue wait, microseconds.
    pub p99_queue_us: u64,
    /// Median compute time (the serving sweep), microseconds.
    pub p50_compute_us: u64,
    /// 99th-percentile compute time, microseconds.
    pub p99_compute_us: u64,
    /// Mean requests per fused sweep.
    pub mean_batch: f64,
    /// `(batch size, sweep count)` histogram, ascending batch size.
    pub batch_hist: Vec<(usize, u64)>,
    /// Total time spent inside fused sweeps, milliseconds.
    pub busy_ms: f64,
    /// Requests per second of sweep time.
    pub throughput_rps: f64,
    /// Full end-to-end latency distribution (µs).
    pub latency_hist: LogLinearHistogram,
    /// Full queue-wait distribution (µs).
    pub queue_hist: LogLinearHistogram,
    /// Full compute-time distribution (µs).
    pub compute_hist: LogLinearHistogram,
    /// Counter snapshot of the served operator's budgeted block cache
    /// (`None` when the operator runs without one). Populated by
    /// [`crate::MatvecService::metrics`]; raw [`ServiceMetrics::snapshot`]
    /// always leaves it `None`.
    pub cache: Option<CacheStats>,
}

impl MetricsSnapshot {
    fn from_cumulative(c: &Cumulative) -> Self {
        let (requests, sweeps) = (c.requests, c.sweeps);
        let busy_s = c.busy.as_secs_f64();
        MetricsSnapshot {
            requests,
            sweeps,
            p50_latency_us: c.latency.quantile(0.50),
            p99_latency_us: c.latency.quantile(0.99),
            p50_queue_us: c.queue.quantile(0.50),
            p99_queue_us: c.queue.quantile(0.99),
            p50_compute_us: c.compute.quantile(0.50),
            p99_compute_us: c.compute.quantile(0.99),
            mean_batch: if sweeps == 0 {
                0.0
            } else {
                requests as f64 / sweeps as f64
            },
            batch_hist: c.batch_hist.iter().map(|(&k, &v)| (k, v)).collect(),
            busy_ms: busy_s * 1e3,
            throughput_rps: if busy_s > 0.0 {
                requests as f64 / busy_s
            } else {
                0.0
            },
            latency_hist: c.latency.clone(),
            queue_hist: c.queue.clone(),
            compute_hist: c.compute.clone(),
            cache: None,
        }
    }

    /// Describes the snapshot to `out`: request/sweep/busy totals as
    /// counters, latency percentiles as `quantile`-labeled gauges (kept for
    /// dashboards pinned to them), the same distributions as native
    /// histograms, one `batch`-labeled counter sample per observed batch
    /// size, and the cache series when [`Self::cache`] is attached.
    pub fn expose(&self, out: &mut Exposition) {
        let (busy_s, rps) = (self.busy_ms / 1e3, self.throughput_rps);
        out.counter("h2_serve_requests_total")
            .sample(&[], self.requests);
        out.counter("h2_serve_sweeps_total")
            .sample(&[], self.sweeps);
        out.counter("h2_serve_busy_seconds_total")
            .sample(&[], format_args!("{busy_s:.6}"));
        out.gauge("h2_serve_latency_microseconds")
            .quantiles(&[], [self.p50_latency_us, self.p99_latency_us]);
        out.gauge("h2_serve_queue_microseconds")
            .quantiles(&[], [self.p50_queue_us, self.p99_queue_us]);
        out.gauge("h2_serve_compute_microseconds")
            .quantiles(&[], [self.p50_compute_us, self.p99_compute_us]);
        out.histogram("h2_serve_latency_us", &self.latency_hist);
        out.histogram("h2_serve_queue_us", &self.queue_hist);
        out.histogram("h2_serve_compute_us", &self.compute_hist);
        let mut batches = out.counter("h2_serve_batch_sweeps_total");
        for &(batch, count) in &self.batch_hist {
            batches.sample(&[("batch", &batch.to_string())], count);
        }
        out.gauge("h2_serve_throughput_rps")
            .sample(&[], format_args!("{rps:.3}"));
        let Some(c) = &self.cache else { return };
        for (name, total) in [
            ("h2_serve_cache_hits_total", c.hits),
            ("h2_serve_cache_misses_total", c.misses),
            ("h2_serve_cache_stale_purged_total", c.stale_purged),
        ] {
            out.counter(name).sample(&[], total);
        }
        for (name, level) in [
            ("h2_serve_cache_resident_bytes", c.resident_bytes),
            ("h2_serve_cache_budget_bytes", c.budget_bytes),
            ("h2_serve_cache_entries", c.entries),
        ] {
            out.gauge(name).sample(&[], level);
        }
        out.gauge("h2_serve_cache_hit_rate")
            .sample(&[], format_args!("{:.4}", c.hit_rate()));
    }

    /// [`Self::expose`] as a standalone Prometheus text body.
    pub fn prometheus_text(&self) -> String {
        let mut out = Exposition::new();
        self.expose(&mut out);
        out.finish()
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests in {} sweeps (mean batch {:.2}), p50 {} us (queue {} + compute {}), \
             p99 {} us (queue {} + compute {}), busy {:.1} ms, {:.0} req/s, batches [",
            self.requests,
            self.sweeps,
            self.mean_batch,
            self.p50_latency_us,
            self.p50_queue_us,
            self.p50_compute_us,
            self.p99_latency_us,
            self.p99_queue_us,
            self.p99_compute_us,
            self.busy_ms,
            self.throughput_rps
        )?;
        for (k, &(batch, count)) in self.batch_hist.iter().enumerate() {
            if k > 0 {
                write!(f, " ")?;
            }
            write!(f, "{batch}x{count}")?;
        }
        write!(f, "]")?;
        if let Some(c) = &self.cache {
            write!(
                f,
                ", cache {:.0}% hit ({}/{} KiB resident)",
                c.hit_rate() * 100.0,
                c.resident_bytes / 1024,
                c.budget_bytes / 1024
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_telemetry::hist::bucket_width;

    /// Inclusive upper bound of the histogram bucket holding `v` — the
    /// value a histogram quantile reports for a sample of `v`.
    fn ub(v: u64) -> u64 {
        let mut h = LogLinearHistogram::new();
        h.record(v);
        h.quantile(1.0)
    }

    #[test]
    fn percentiles_and_histogram() {
        let m = ServiceMetrics::new();
        // Two sweeps: batch 3 (2 ms busy) then batch 1 (1 ms busy).
        m.record_sweep(
            3,
            Duration::from_millis(2),
            &[
                Duration::from_micros(100),
                Duration::from_micros(200),
                Duration::from_micros(300),
            ],
        );
        m.record_sweep(1, Duration::from_millis(1), &[Duration::from_micros(400)]);
        let s = m.snapshot();
        assert_eq!(s.requests, 4);
        assert_eq!(s.sweeps, 2);
        assert_eq!(s.mean_batch, 2.0);
        assert_eq!(s.batch_hist, vec![(1, 1), (3, 1)]);
        // Queue waits: [100, 200, 300, 400]; compute: [2000, 2000, 2000,
        // 1000]; end-to-end: [2100, 2200, 2300, 1400]. Quantiles report
        // the bucket upper bound of the exact nearest-rank sample.
        assert_eq!(s.p50_queue_us, ub(300));
        assert_eq!(s.p99_queue_us, ub(400));
        assert_eq!(s.p50_compute_us, ub(2000));
        assert_eq!(s.p99_compute_us, ub(2000));
        assert_eq!(s.p50_latency_us, ub(2200));
        assert_eq!(s.p99_latency_us, ub(2300));
        assert!((s.busy_ms - 3.0).abs() < 1e-9);
        assert!(s.throughput_rps > 0.0);
        assert_eq!(s.latency_hist.count(), 4);
        assert_eq!(s.queue_hist.count(), 4);
        assert_eq!(s.compute_hist.count(), 4);
    }

    #[test]
    fn latency_is_queue_plus_compute_within_a_bucket() {
        let m = ServiceMetrics::new();
        m.record_sweep(
            2,
            Duration::from_micros(500),
            &[Duration::from_micros(10), Duration::from_micros(20)],
        );
        let s = m.snapshot();
        assert_eq!(s.p99_latency_us, ub(520));
        assert_eq!(s.p99_queue_us, 20, "values below 2*SUB_BUCKETS are exact");
        assert_eq!(s.p99_compute_us, ub(500));
        assert!(s.p99_latency_us.abs_diff(520) < bucket_width(520));
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = ServiceMetrics::new().snapshot();
        assert_eq!(s.requests, 0);
        assert_eq!(s.p50_latency_us, 0);
        assert_eq!(s.p50_queue_us, 0);
        assert_eq!(s.p50_compute_us, 0);
        assert_eq!(s.throughput_rps, 0.0);
        assert!(s.latency_hist.is_empty());
    }

    /// Bytes held by the metric state: three fixed-size histograms plus one
    /// entry per *distinct* batch size.
    fn footprint_bytes(m: &ServiceMetrics) -> usize {
        let g = m.inner.lock().unwrap();
        g.queue.footprint_bytes()
            + g.compute.footprint_bytes()
            + g.latency.footprint_bytes()
            + g.batch_hist.len() * std::mem::size_of::<(usize, u64)>()
    }

    #[test]
    fn memory_is_constant_in_the_request_count() {
        let m = ServiceMetrics::new();
        m.record_sweep(
            4,
            Duration::from_micros(100),
            &[Duration::from_micros(7); 4],
        );
        let small = footprint_bytes(&m);
        // 100_000+ requests over wildly varying latencies: same footprint.
        for k in 0..25_000u64 {
            let waits = [Duration::from_micros(k % 10_000); 4];
            m.record_sweep(4, Duration::from_micros(10 + k % 1_000), &waits);
        }
        assert_eq!(m.snapshot().requests, 100_004);
        assert_eq!(
            footprint_bytes(&m),
            small,
            "per-request state must not grow with traffic"
        );
    }

    #[test]
    fn exact_samples_validate_histogram_quantiles() {
        let m = ServiceMetrics::new();
        let mut exact = Vec::new();
        let mut x = 42u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (busy_us, wait_us) = (x % 50_000, (x >> 32) % 5_000);
            m.record_sweep(
                1,
                Duration::from_micros(busy_us),
                &[Duration::from_micros(wait_us)],
            );
            exact.push(busy_us + wait_us);
        }
        exact.sort_unstable();
        let s = m.snapshot();
        for (q, got) in [(0.5, s.p50_latency_us), (0.99, s.p99_latency_us)] {
            let e = percentile(&exact, q);
            assert!(
                got.abs_diff(e) < bucket_width(e.max(got)),
                "q={q}: hist {got} vs exact {e}"
            );
        }
    }

    #[test]
    fn mismatched_wait_list_is_reconciled() {
        let m = ServiceMetrics::new();
        // Short list: the missing wait counts as zero.
        m.record_sweep(3, Duration::from_micros(100), &[Duration::from_micros(50)]);
        // Long list: the extra wait is ignored.
        m.record_sweep(
            1,
            Duration::from_micros(100),
            &[Duration::from_micros(10), Duration::from_micros(999)],
        );
        let s = m.snapshot();
        assert_eq!(s.requests, 4);
        assert_eq!(s.sweeps, 2);
        // Exactly one latency sample per request, never more or fewer.
        assert_eq!(s.p99_queue_us, ub(50), "extras ignored, missing are zero");
        assert_eq!(s.p99_latency_us, ub(150));
        assert_eq!(s.queue_hist.count(), 4);
    }

    #[test]
    fn display_includes_busy_and_batch_histogram() {
        let m = ServiceMetrics::new();
        m.record_sweep(2, Duration::from_millis(3), &[Duration::from_micros(5); 2]);
        m.record_sweep(1, Duration::from_millis(1), &[Duration::from_micros(5)]);
        let text = m.snapshot().to_string();
        assert!(text.contains("busy 4.0 ms"), "missing busy_ms in: {text}");
        assert!(
            text.contains("batches [1x1 2x1]"),
            "missing batch histogram in: {text}"
        );
    }

    #[test]
    fn cache_series_appear_only_when_stats_attached() {
        let m = ServiceMetrics::new();
        m.record_sweep(1, Duration::from_millis(1), &[Duration::from_micros(5)]);
        let mut s = m.snapshot();
        assert!(s.cache.is_none(), "raw snapshot never carries cache stats");
        assert!(!s.prometheus_text().contains("h2_serve_cache"));
        s.cache = Some(CacheStats {
            hits: 90,
            misses: 10,
            resident_bytes: 2048,
            budget_bytes: 8192,
            ..CacheStats::default()
        });
        assert!(s.prometheus_text().contains("h2_serve_cache_hit_rate"));
        assert!(
            s.to_string().contains("cache 90% hit (2/8 KiB resident)"),
            "display line: {s}"
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0, "empty sample is zero");
        assert_eq!(percentile(&[7], 0.0), 7, "single sample at q=0");
        assert_eq!(percentile(&[7], 0.5), 7, "single sample at q=0.5");
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[7], 1.0), 7, "single sample at q=1");
        let v: Vec<u64> = (1..=101).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 1.0), 101);
        assert_eq!(percentile(&v, 0.5), 51);
    }

    #[test]
    fn histogram_quantile_edge_cases_match_percentile() {
        let h = LogLinearHistogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram is zero");
        let mut h = LogLinearHistogram::new();
        h.record(7);
        // 7 < SUB_BUCKETS, so the lone sample is exact at every q.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), percentile(&[7], q));
        }
        let mut h = LogLinearHistogram::new();
        let v: Vec<u64> = (1..=101).collect();
        for &x in &v {
            h.record(x);
        }
        for q in [0.0, 0.5, 1.0] {
            let e = percentile(&v, q);
            assert!(h.quantile(q).abs_diff(e) < bucket_width(e));
        }
    }
}
