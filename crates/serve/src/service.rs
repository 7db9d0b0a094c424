//! Batched matvec service: queues single-vector requests and drains them in
//! fused multi-RHS sweeps.
//!
//! The point is amortization (the paper's §VI-B trade-off made operational):
//! in on-the-fly mode every coupling/nearfield block is regenerated per
//! apply, so `k` queued requests served by one fused `matmat` cost one block
//! generation instead of `k`. The fused panel sweep in `h2-core` is
//! bit-identical to per-request `matvec`s, so batching never changes
//! results — only cost.
//!
//! The service is generic over the request scalar `S` (default `f64`):
//! `MatvecService<H2MatrixS<f32>, f32>` serves single-precision vectors
//! natively, and `MatvecService<H2MatrixS<f32>, f64>` serves `f64` requests
//! over `f32` storage with `f64` accumulation (the mixed-precision mode).
//!
//! ## Multi-tenant QoS
//!
//! Requests are queued per tenant through a [`crate::tenant`]
//! [`BatchScheduler`]: [`MatvecService::for_tenants`] takes a
//! [`TenantTable`], [`MatvecService::submit_for`]
//! routes a request to a named tenant (enforcing its admission state and
//! queue cap with typed [`SubmitError::AdmissionRejected`] rejections), and
//! drains pick requests by weighted deficit round robin so one flooding
//! tenant cannot set everyone else's tail latency. [`MatvecService::new`]
//! is the same scheduler over one implicit `default` tenant, which drains
//! in arrival order, so non-tenant-aware callers see a plain FIFO. Per-tenant
//! latency/queue-wait histograms are exported as `h2_tenant_*` Prometheus
//! series by [`MatvecService::expose_tenants`].

use crate::error::SubmitError;
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::tenant::{AdmitError, BatchScheduler, TenantTable};
use h2_core::{H2Matrix, H2Operator};
use h2_linalg::{MatrixS, Scalar};
use h2_telemetry::hist::LogLinearHistogram;
use h2_telemetry::Exposition;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Pending<S: Scalar> {
    rhs: Vec<S>,
    tx: mpsc::Sender<Result<Vec<S>, SubmitError>>,
    enqueued: Instant,
}

/// Handle to one submitted request; resolves when a drain serves it.
///
/// Resolution is a `Result`: a sweep that fails in the backend (e.g. a
/// distributed shard lost mid-matvec) resolves every ticket it covered
/// with [`SubmitError::Backend`] instead of hanging or panicking.
#[derive(Debug)]
pub struct Ticket<S: Scalar = f64> {
    rx: mpsc::Receiver<Result<Vec<S>, SubmitError>>,
}

impl<S: Scalar> Ticket<S> {
    /// Blocks until the request is served (or fails). Dropping the service
    /// with the request still queued resolves as [`SubmitError::Backend`],
    /// never a hang.
    pub fn wait(self) -> Result<Vec<S>, SubmitError> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(SubmitError::Backend {
                detail: "service dropped before serving the request".into(),
            })
        })
    }
}

/// Summary of one [`MatvecService::drain`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// Fused sweeps executed.
    pub sweeps: usize,
    /// Requests served.
    pub requests: usize,
}

/// Per-tenant service statistics: fixed-memory latency and queue-wait
/// histograms plus admission counters, recorded at drain/submit time.
#[derive(Default)]
struct TenantStats {
    latency_us: LogLinearHistogram,
    queue_us: LogLinearHistogram,
    served: u64,
    rejected_closed: u64,
    rejected_full: u64,
}

/// Coalesces queued single-vector requests into fused multi-RHS sweeps of at
/// most `max_batch` columns.
///
/// Generic over any [`H2Operator`] backend (shared-memory `H2Matrix`, the
/// sharded distributed operator, …) and over the request scalar `S`; the
/// default parameters keep existing `MatvecService` call sites compiling
/// unchanged as the double-precision service.
pub struct MatvecService<O: H2Operator<S> = H2Matrix, S: Scalar = f64> {
    op: Arc<O>,
    max_batch: usize,
    /// Lock-free-read copy of the scheduler's policy table (immutable).
    table: TenantTable,
    sched: Mutex<BatchScheduler<Pending<S>>>,
    metrics: ServiceMetrics,
    tenant_stats: Mutex<Vec<TenantStats>>,
    /// Per-tenant byte slices of a partitioned cache budget, if the host
    /// split one (`h2_core::cache::split_budget`); exported as a gauge only.
    cache_budgets: Mutex<Option<Vec<usize>>>,
}

impl<S: Scalar, O: H2Operator<S>> MatvecService<O, S> {
    /// A single-tenant service over `op` that fuses up to `max_batch`
    /// requests per sweep in arrival order: one implicit `default` tenant
    /// with open admission and an unbounded queue.
    pub fn new(op: Arc<O>, max_batch: usize) -> Self {
        Self::for_tenants(op, max_batch, TenantTable::single_default())
    }

    /// A multi-tenant service: requests are queued per tenant under
    /// `table`'s policies and drained by weighted deficit round robin.
    pub fn for_tenants(op: Arc<O>, max_batch: usize, table: TenantTable) -> Self {
        assert!(max_batch >= 1, "batch size must be at least 1");
        assert!(!table.is_empty(), "tenant table must not be empty");
        assert_eq!(
            op.nrows(),
            op.ncols(),
            "MatvecService serves square operators"
        );
        let stats = (0..table.len()).map(|_| TenantStats::default()).collect();
        MatvecService {
            op,
            max_batch,
            table: table.clone(),
            sched: Mutex::new(BatchScheduler::with_table(table)),
            metrics: ServiceMetrics::new(),
            tenant_stats: Mutex::new(stats),
            cache_budgets: Mutex::new(None),
        }
    }

    /// The served operator.
    pub fn operator(&self) -> &Arc<O> {
        &self.op
    }

    /// The batch-size cap.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Records the per-tenant slices of a partitioned cache budget (from
    /// [`h2_core::cache::split_budget`] over [`TenantTable::cache_shares`]) so
    /// they appear in [`Self::expose_tenants`]. Index order must
    /// match the tenant table; extra entries are ignored.
    pub fn set_tenant_cache_budgets(&self, budgets: Vec<usize>) {
        *self.cache_budgets.lock().unwrap() = Some(budgets);
    }

    /// Enqueues a request for the default tenant (index 0);
    /// [`SubmitError::LengthMismatch`] if the vector length does not match
    /// the operator, [`SubmitError::AdmissionRejected`] if tenant 0's
    /// policy refuses it (never, under [`Self::new`]'s default policy).
    pub fn submit(&self, rhs: Vec<S>) -> Result<Ticket<S>, SubmitError> {
        self.submit_idx(0, rhs)
    }

    /// Enqueues a request for the named tenant, enforcing its admission
    /// state and queue-depth cap.
    pub fn submit_for(&self, tenant: &str, rhs: Vec<S>) -> Result<Ticket<S>, SubmitError> {
        match self.table.index_of(tenant) {
            Some(idx) => self.submit_idx(idx, rhs),
            None => {
                h2_telemetry::counter_add!("tenant.rejected", 1);
                Err(SubmitError::AdmissionRejected {
                    tenant: tenant.to_string(),
                    reason: AdmitError::UnknownTenant,
                })
            }
        }
    }

    fn submit_idx(&self, idx: usize, rhs: Vec<S>) -> Result<Ticket<S>, SubmitError> {
        if rhs.len() != self.op.ncols() {
            return Err(SubmitError::LengthMismatch {
                got: rhs.len(),
                expected: self.op.ncols(),
                index: None,
            });
        }
        let (tx, rx) = mpsc::channel();
        let pending = Pending {
            rhs,
            tx,
            enqueued: Instant::now(),
        };
        let outcome = self.sched.lock().unwrap().push(idx, pending);
        match outcome {
            Ok(()) => {
                h2_telemetry::counter_add!("tenant.admitted", 1);
                Ok(Ticket { rx })
            }
            Err(reason) => {
                h2_telemetry::counter_add!("tenant.rejected", 1);
                let mut stats = self.tenant_stats.lock().unwrap();
                match reason {
                    AdmitError::Closed => stats[idx].rejected_closed += 1,
                    AdmitError::QueueFull { .. } => stats[idx].rejected_full += 1,
                    AdmitError::UnknownTenant => {}
                }
                Err(SubmitError::AdmissionRejected {
                    tenant: self.table.id(idx).to_string(),
                    reason,
                })
            }
        }
    }

    /// Enqueues a whole batch atomically, one ticket per right-hand side.
    ///
    /// All vectors are validated *before* anything is enqueued, so a
    /// rejection leaves the queue untouched — no partial batches. An empty
    /// batch is a typed [`SubmitError::EmptyBatch`], never a panic and
    /// never a silent no-op that would strand a caller waiting for tickets.
    pub fn submit_batch(&self, batch: Vec<Vec<S>>) -> Result<Vec<Ticket<S>>, SubmitError> {
        if batch.is_empty() {
            return Err(SubmitError::EmptyBatch);
        }
        for (i, rhs) in batch.iter().enumerate() {
            if rhs.len() != self.op.ncols() {
                return Err(SubmitError::LengthMismatch {
                    got: rhs.len(),
                    expected: self.op.ncols(),
                    index: Some(i),
                });
            }
        }
        let mut tickets = Vec::with_capacity(batch.len());
        let mut sched = self.sched.lock().unwrap();
        // Pre-check capacity so the all-or-nothing contract extends to the
        // tenant queue cap: either every vector fits or none is enqueued.
        let policy = self.table.policy(0);
        let depth = sched.queue_depth(0);
        if policy.max_queue.saturating_sub(depth) < batch.len() {
            h2_telemetry::counter_add!("tenant.rejected", 1);
            self.tenant_stats.lock().unwrap()[0].rejected_full += 1;
            return Err(SubmitError::AdmissionRejected {
                tenant: self.table.id(0).to_string(),
                reason: AdmitError::QueueFull {
                    depth,
                    max: policy.max_queue,
                },
            });
        }
        let now = Instant::now();
        for rhs in batch {
            let (tx, rx) = mpsc::channel();
            let pending = Pending {
                rhs,
                tx,
                enqueued: now,
            };
            sched.push(0, pending).map_err(|reason| {
                h2_telemetry::counter_add!("tenant.rejected", 1);
                SubmitError::AdmissionRejected {
                    tenant: self.table.id(0).to_string(),
                    reason,
                }
            })?;
            h2_telemetry::counter_add!("tenant.admitted", 1);
            tickets.push(Ticket { rx });
        }
        Ok(tickets)
    }

    /// Requests currently queued across all tenants.
    pub fn pending(&self) -> usize {
        self.sched.lock().unwrap().len()
    }

    /// Serves every queued request in fused sweeps of at most
    /// [`Self::max_batch`] columns and resolves their tickets.
    pub fn drain(&self) -> DrainReport {
        let mut report = DrainReport {
            sweeps: 0,
            requests: 0,
        };
        loop {
            let batch: Vec<(usize, Pending<S>)> =
                self.sched.lock().unwrap().next_batch(self.max_batch);
            if batch.is_empty() {
                return report;
            }
            self.sweep(&batch);
            report.sweeps += 1;
            report.requests += batch.len();
        }
    }

    /// One fused sweep over `batch` requests (tagged with their tenant
    /// index). A backend failure resolves every ticket in the batch with
    /// [`SubmitError::Backend`] — callers blocked in [`Ticket::wait`] get
    /// the typed error, not a hang.
    fn sweep(&self, batch: &[(usize, Pending<S>)]) {
        let n = self.op.nrows();
        // Every fused batch is one trace: the scope tags this sweep's spans
        // (and, through the distributed coordinator, the workers' spans)
        // with a fresh id unless the caller already opened one.
        let _trace = (h2_telemetry::current_trace() == 0)
            .then(|| h2_telemetry::trace_scope(h2_telemetry::next_trace_id()));
        let sp = h2_telemetry::span_labeled("serve.sweep", format!("k={}", batch.len()));
        h2_telemetry::counter_add!("serve.sweeps", 1);
        h2_telemetry::counter_add!("serve.requests", batch.len() as u64);
        let t0 = Instant::now();
        // Queue wait ends the moment the sweep starts; compute time is the
        // sweep itself (shared by every request it serves).
        let waits: Vec<_> = batch
            .iter()
            .map(|(_, p)| t0.saturating_duration_since(p.enqueued))
            .collect();
        // A batch of one is a one-column panel: every backend gives it the
        // vector product's bits.
        let mut panel = MatrixS::<S>::zeros(n, batch.len());
        for (c, (_, p)) in batch.iter().enumerate() {
            panel.col_mut(c).copy_from_slice(&p.rhs);
        }
        let results: Result<Vec<Vec<S>>, _> = self
            .op
            .try_matmat(&panel)
            .map(|out| (0..batch.len()).map(|c| out.col(c).to_vec()).collect());
        let busy = t0.elapsed();
        drop(sp);
        self.metrics.record_sweep(batch.len(), busy, &waits);
        {
            // Per-tenant accounting: queue wait plus the shared sweep time
            // is each request's end-to-end latency.
            let mut stats = self.tenant_stats.lock().unwrap();
            for ((tenant, _), wait) in batch.iter().zip(waits.iter()) {
                let s = &mut stats[*tenant];
                s.queue_us.record(wait.as_micros() as u64);
                s.latency_us.record((*wait + busy).as_micros() as u64);
                s.served += 1;
            }
        }
        match results {
            Ok(results) => {
                for ((_, p), y) in batch.iter().zip(results) {
                    // A dropped ticket just means nobody is waiting; not an
                    // error.
                    let _ = p.tx.send(Ok(y));
                }
            }
            Err(e) => {
                h2_telemetry::counter_add!("serve.failed_sweeps", 1);
                for (_, p) in batch {
                    let _ = p.tx.send(Err(SubmitError::Backend {
                        detail: e.detail.clone(),
                    }));
                }
            }
        }
    }

    /// Snapshot of the accumulated metrics. When the served operator runs a
    /// budgeted block cache (see `h2_core::cache`), its counter snapshot rides
    /// along so the cache series appear in the Prometheus exposition.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.cache = self.op.cache_stats();
        snap
    }

    /// A tenant's end-to-end latency quantile in microseconds (0 when the
    /// tenant is unknown or has served nothing). Backed by the per-tenant
    /// log-linear histogram, so the value is exact to within one bucket
    /// width.
    pub fn tenant_latency_quantile_us(&self, tenant: &str, q: f64) -> u64 {
        match self.table.index_of(tenant) {
            Some(idx) => self.tenant_stats.lock().unwrap()[idx]
                .latency_us
                .quantile(q),
            None => 0,
        }
    }

    /// Requests served for a tenant so far (0 for unknown names).
    pub fn tenant_served(&self, tenant: &str) -> u64 {
        match self.table.index_of(tenant) {
            Some(idx) => self.tenant_stats.lock().unwrap()[idx].served,
            None => 0,
        }
    }

    /// Describes the per-tenant series (`h2_tenant_*`) to `out`: requests
    /// served, admission rejections by reason, live queue depth, scheduling
    /// weight, latency and queue-wait quantiles, and — when the host
    /// registered a partitioned cache budget
    /// ([`Self::set_tenant_cache_budgets`]) — each tenant's byte slice.
    pub fn expose_tenants(&self, out: &mut Exposition) {
        let depths: Vec<usize> = {
            let sched = self.sched.lock().unwrap();
            (0..self.table.len())
                .map(|i| sched.queue_depth(i))
                .collect()
        };
        let stats = self.tenant_stats.lock().unwrap();
        let names: Vec<&str> = self.table.iter().map(|(_, id, _)| id.as_str()).collect();
        let tenants = || names.iter().zip(stats.iter());
        out.counter("h2_tenant_requests_total")
            .per("tenant", &names, |i| stats[i].served);
        let mut rejected = out.counter("h2_tenant_rejected_total");
        for (name, s) in tenants() {
            rejected.sample(
                &[("tenant", name), ("reason", "queue_full")],
                s.rejected_full,
            );
            rejected.sample(&[("tenant", name), ("reason", "closed")], s.rejected_closed);
        }
        out.gauge("h2_tenant_queue_depth")
            .per("tenant", &names, |i| depths[i]);
        out.gauge("h2_tenant_weight")
            .per("tenant", &names, |i| self.table.policy(i).weight);
        let p50_p99 = |h: &LogLinearHistogram| [h.quantile(0.5), h.quantile(0.99)];
        let mut latency = out.gauge("h2_tenant_latency_microseconds");
        for (name, s) in tenants() {
            latency.quantiles(&[("tenant", name)], p50_p99(&s.latency_us));
        }
        let mut queue_wait = out.gauge("h2_tenant_queue_wait_microseconds");
        for (name, s) in tenants() {
            queue_wait.quantiles(&[("tenant", name)], p50_p99(&s.queue_us));
        }
        if let Some(budgets) = self.cache_budgets.lock().unwrap().as_ref() {
            let slice = |i| budgets.get(i).copied().unwrap_or(0);
            out.gauge("h2_tenant_cache_budget_bytes")
                .per("tenant", &names, slice);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantPolicy;
    use h2_core::{BasisMethod, H2Config, H2MatrixS, MemoryMode};
    use h2_kernels::Coulomb;
    use h2_points::gen;

    fn op(mode: MemoryMode) -> Arc<H2Matrix> {
        let pts = gen::uniform_cube(500, 3, 23);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-5, 3),
            mode,
            leaf_size: 48,
            eta: 0.7,
            ..H2Config::default()
        };
        Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg))
    }

    fn rhs(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i + 7 * seed) as f64 * 0.61).sin())
            .collect()
    }

    #[test]
    fn drains_64_requests_in_ceil_64_over_k_sweeps() {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let op = op(mode);
            for k in [1usize, 4, 16, 48] {
                let svc = MatvecService::new(op.clone(), k);
                let tickets: Vec<Ticket> = (0..64)
                    .map(|s| svc.submit(rhs(op.n(), s)).unwrap())
                    .collect();
                assert_eq!(svc.pending(), 64);
                let report = svc.drain();
                assert_eq!(report.requests, 64);
                assert_eq!(report.sweeps, 64_usize.div_ceil(k), "k={k}");
                assert_eq!(svc.pending(), 0);
                // Every request gets exactly the result a standalone matvec
                // would produce, bit for bit, regardless of batching.
                for (s, t) in tickets.into_iter().enumerate() {
                    assert_eq!(t.wait().unwrap(), op.matvec(&rhs(op.n(), s)), "request {s}");
                }
                let m = svc.metrics();
                assert_eq!(m.requests, 64);
                assert_eq!(m.sweeps, 64_u64.div_ceil(k as u64));
            }
        }
    }

    #[test]
    fn f32_service_serves_native_f32_requests_bitwise() {
        let pts = gen::uniform_cube(400, 3, 29);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-5, 3),
            mode: MemoryMode::OnTheFly,
            leaf_size: 48,
            eta: 0.7,
            ..H2Config::default()
        };
        let op = Arc::new(H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &cfg));
        let svc: MatvecService<H2MatrixS<f32>, f32> = MatvecService::new(op.clone(), 4);
        let mk = |s: usize| -> Vec<f32> {
            (0..op.n())
                .map(|i| ((i + 5 * s) as f32 * 0.37).sin())
                .collect()
        };
        let tickets: Vec<Ticket<f32>> = (0..6).map(|s| svc.submit(mk(s)).unwrap()).collect();
        let report = svc.drain();
        assert_eq!((report.sweeps, report.requests), (2, 6));
        for (s, t) in tickets.into_iter().enumerate() {
            // Batched service == standalone f32 matvec, bit for bit.
            assert_eq!(
                t.wait().unwrap(),
                op.as_ref().matvec::<f32>(&mk(s)),
                "request {s}"
            );
        }
    }

    #[test]
    fn mixed_precision_service_serves_f64_requests_over_f32_storage() {
        let pts = gen::uniform_cube(400, 3, 31);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-6, 3),
            mode: MemoryMode::Normal,
            leaf_size: 48,
            eta: 0.7,
            ..H2Config::default()
        };
        let h2_64 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
        let h2_32 = Arc::new(H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &cfg));
        let svc: MatvecService<_, f64> = MatvecService::new(h2_32.clone(), 3);
        let b = rhs(h2_64.n(), 1);
        let got = svc.submit(b.clone()).unwrap();
        svc.drain();
        let y = got.wait().unwrap();
        // Bitwise equal to the serial mixed-precision apply, and within
        // single-precision distance of the f64 operator.
        assert_eq!(y, h2_32.matvec_f64(&b));
        let err = h2_linalg::vec_ops::rel_err(&y, &h2_64.matvec(&b));
        assert!(err <= 1e-5, "mixed service rel err {err}");
    }

    #[test]
    fn submit_rejects_wrong_length() {
        let svc = MatvecService::new(op(MemoryMode::OnTheFly), 4);
        assert_eq!(
            svc.submit(vec![1.0; 3]).map(|_| ()).unwrap_err(),
            SubmitError::LengthMismatch {
                got: 3,
                expected: 500,
                index: None,
            }
        );
    }

    #[test]
    fn submit_batch_rejects_empty_batch_with_typed_error() {
        // Regression: an empty batch must be a typed error, not a panic and
        // not a silent zero-ticket success.
        let svc = MatvecService::new(op(MemoryMode::OnTheFly), 4);
        assert_eq!(
            svc.submit_batch(vec![]).map(|_| ()).unwrap_err(),
            SubmitError::EmptyBatch
        );
        assert_eq!(svc.pending(), 0);
        // And the error is a std::error::Error with a readable message.
        let e: Box<dyn std::error::Error> = Box::new(SubmitError::EmptyBatch);
        assert!(e.to_string().contains("empty batch"));
    }

    #[test]
    fn submit_batch_is_all_or_nothing() {
        let svc = MatvecService::new(op(MemoryMode::OnTheFly), 4);
        let n = svc.operator().n();
        // One bad vector anywhere rejects the whole batch, queue untouched.
        let err = svc
            .submit_batch(vec![rhs(n, 0), vec![1.0; 3], rhs(n, 2)])
            .unwrap_err();
        assert_eq!(
            err,
            SubmitError::LengthMismatch {
                got: 3,
                expected: n,
                index: Some(1),
            }
        );
        assert_eq!(svc.pending(), 0);
        // A valid batch mints one ticket per vector and drains bitwise
        // identically to individual submissions.
        let batch: Vec<Vec<f64>> = (0..5).map(|s| rhs(n, s)).collect();
        let tickets = svc.submit_batch(batch).unwrap();
        assert_eq!(tickets.len(), 5);
        assert_eq!(svc.pending(), 5);
        svc.drain();
        for (s, t) in tickets.into_iter().enumerate() {
            assert_eq!(
                t.wait().unwrap(),
                svc.operator().matvec(&rhs(n, s)),
                "entry {s}"
            );
        }
    }

    #[test]
    fn metrics_carry_cache_stats_when_operator_is_budgeted() {
        use h2_core::CacheBudget;
        let pts = gen::uniform_cube(500, 3, 23);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-5, 3),
            mode: MemoryMode::OnTheFly,
            leaf_size: 48,
            eta: 0.7,
            cache_budget: CacheBudget::Ratio(0.5),
            ..H2Config::default()
        };
        let op = Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg));
        let svc = MatvecService::new(op.clone(), 4);
        let t = svc.submit(rhs(op.n(), 1)).unwrap();
        svc.drain();
        let _ = t.wait().unwrap();
        let m = svc.metrics();
        let cache = m.cache.expect("budgeted operator exports cache stats");
        assert!(cache.budget_bytes > 0);
        assert!(cache.hits + cache.misses > 0);
        // The Prometheus exposition picks the cache series up.
        let text = m.prometheus_text();
        assert!(text.contains("h2_serve_cache_hits_total"));
        assert!(text.contains("h2_serve_cache_resident_bytes"));
        // An uncached operator exports no cache series.
        let plain = MatvecService::new(self::op(MemoryMode::OnTheFly), 4);
        assert!(plain.metrics().cache.is_none());
        assert!(!plain.metrics().prometheus_text().contains("h2_serve_cache"));
    }

    #[test]
    fn sweeps_are_trace_tagged() {
        let svc = MatvecService::new(op(MemoryMode::OnTheFly), 4);
        let t = svc.submit(rhs(500, 3)).unwrap();
        svc.drain();
        t.wait().unwrap();
        let m = svc.metrics();
        assert_eq!((m.requests, m.sweeps), (1, 1));
        assert!(m.p50_latency_us > 0);
        // Every fused batch ran under its own trace scope: the sweep span
        // carries a nonzero trace id.
        assert!(
            h2_telemetry::snapshot()
                .spans_named("serve.sweep")
                .any(|s| s.trace != 0),
            "no trace-tagged serve.sweep span found"
        );
    }

    #[test]
    fn drain_on_empty_queue_is_a_noop() {
        let svc = MatvecService::new(op(MemoryMode::OnTheFly), 4);
        assert_eq!(
            svc.drain(),
            DrainReport {
                sweeps: 0,
                requests: 0
            }
        );
    }

    #[test]
    fn cross_thread_submission() {
        let svc = Arc::new(MatvecService::new(op(MemoryMode::OnTheFly), 8));
        let n = svc.operator().n();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let svc = svc.clone();
                std::thread::spawn(move || {
                    let ticket = svc.submit(rhs(n, t)).unwrap();
                    (t, ticket)
                })
            })
            .collect();
        let tickets: Vec<(usize, Ticket)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        svc.drain();
        for (t, ticket) in tickets {
            assert_eq!(ticket.wait().unwrap(), svc.operator().matvec(&rhs(n, t)));
        }
    }

    #[test]
    fn backend_failure_resolves_every_ticket_with_a_typed_error() {
        use h2_core::ApplyError;
        // A backend whose try paths always fail (a stand-in for a
        // distributed operator with a dead shard).
        struct Broken;
        impl H2Operator for Broken {
            fn dims(&self) -> (usize, usize) {
                (4, 4)
            }
            fn matvec(&self, _b: &[f64]) -> Vec<f64> {
                unreachable!("service must use the fallible path")
            }
            fn try_matvec(&self, _b: &[f64]) -> Result<Vec<f64>, ApplyError> {
                Err(ApplyError::new("shard 1 lost: connection closed by peer"))
            }
            fn try_matmat(&self, _b: &MatrixS<f64>) -> Result<MatrixS<f64>, ApplyError> {
                Err(ApplyError::new("shard 1 lost: connection closed by peer"))
            }
        }
        // A batch of one (a one-column `try_matmat`) and a batch of several
        // both deliver the error through every ticket of the failed sweep —
        // no hang, no panic.
        for k in [1usize, 4] {
            let svc = MatvecService::new(Arc::new(Broken), k);
            let tickets: Vec<Ticket> = (0..3).map(|_| svc.submit(vec![0.0; 4]).unwrap()).collect();
            let report = svc.drain();
            assert_eq!(report.requests, 3);
            for t in tickets {
                let err = t.wait().unwrap_err();
                assert_eq!(
                    err,
                    SubmitError::Backend {
                        detail: "shard 1 lost: connection closed by peer".into(),
                    }
                );
                assert!(err.to_string().contains("backend failure"));
            }
        }
    }

    #[test]
    fn dropping_the_service_resolves_queued_tickets_with_an_error() {
        let svc = MatvecService::new(op(MemoryMode::OnTheFly), 4);
        let t = svc.submit(rhs(500, 0)).unwrap();
        drop(svc);
        // The queued request can never be served; waiting reports that as a
        // typed error instead of panicking.
        let err = t.wait().unwrap_err();
        assert!(matches!(err, SubmitError::Backend { .. }), "{err}");
    }

    fn two_tenant_table(hog_cap: usize) -> TenantTable {
        TenantTable::parse(&format!(
            "[hog]\nweight = 1.0\nmax_queue = {hog_cap}\n\n[light]\nweight = 4.0\n"
        ))
        .unwrap()
    }

    #[test]
    fn tenant_routing_admission_and_results_are_correct() {
        let op = op(MemoryMode::OnTheFly);
        let svc = MatvecService::for_tenants(op.clone(), 4, two_tenant_table(3));
        let n = op.n();
        // Unknown tenants are rejected with a typed error.
        let err = svc.submit_for("nobody", rhs(n, 0)).unwrap_err();
        assert_eq!(
            err,
            SubmitError::AdmissionRejected {
                tenant: "nobody".into(),
                reason: crate::tenant::AdmitError::UnknownTenant,
            }
        );
        assert!(err.to_string().contains("unknown tenant"), "{err}");
        // Length checks fire before admission bookkeeping.
        assert!(matches!(
            svc.submit_for("hog", vec![1.0; 3]).unwrap_err(),
            SubmitError::LengthMismatch { got: 3, .. }
        ));
        // The hog's queue cap rejects the 4th request, leaving 3 queued.
        for s in 0..3 {
            svc.submit_for("hog", rhs(n, s)).unwrap();
        }
        let err = svc.submit_for("hog", rhs(n, 9)).unwrap_err();
        assert_eq!(
            err,
            SubmitError::AdmissionRejected {
                tenant: "hog".into(),
                reason: crate::tenant::AdmitError::QueueFull { depth: 3, max: 3 },
            }
        );
        let t_light = svc.submit_for("light", rhs(n, 5)).unwrap();
        assert_eq!(svc.pending(), 4);
        svc.drain();
        // Results are bitwise identical to standalone matvecs regardless of
        // which tenant carried them.
        assert_eq!(t_light.wait().unwrap(), op.matvec(&rhs(n, 5)));
        assert_eq!(svc.tenant_served("hog"), 3);
        assert_eq!(svc.tenant_served("light"), 1);
    }

    #[test]
    fn wdrr_drains_light_tenant_ahead_of_a_hog_backlog() {
        // The hog submits 24 requests before the light tenant's one, yet the
        // light request is served within `sweeps` sweeps: with batch size 1
        // and weights 1:4, the hog (cursor start) then light by weight; with
        // batch 4 and equal weights, light rides in the first sweep.
        let op = op(MemoryMode::OnTheFly);
        let n = op.n();
        for (light_weight, batch, sweeps) in [(4.0, 1, 2), (1.0, 4, 1)] {
            let table = TenantTable::parse(&format!(
                "[hog]\nweight = 1.0\n\n[light]\nweight = {light_weight:.1}\n"
            ))
            .unwrap();
            let svc = MatvecService::for_tenants(op.clone(), batch, table);
            for s in 0..24 {
                svc.submit_for("hog", rhs(n, s)).unwrap();
            }
            let t = svc.submit_for("light", rhs(n, 100)).unwrap();
            for _ in 0..sweeps {
                let batch = svc.sched.lock().unwrap().next_batch(batch);
                svc.sweep(&batch);
            }
            assert_eq!(
                t.rx.try_recv()
                    .ok()
                    .unwrap_or_else(|| panic!("light request not served within {sweeps} sweeps"))
                    .unwrap(),
                op.matvec(&rhs(n, 100))
            );
        }
    }

    #[test]
    fn tenant_series_follow_served_traffic() {
        // Label escaping, rejections, weights and budgets are pinned by the
        // whole-body golden (tests/observability.rs); this covers what needs a
        // real drain: served counts and latency quantiles reach the series.
        let op = op(MemoryMode::OnTheFly);
        let n = op.n();
        let svc = MatvecService::for_tenants(op, 4, two_tenant_table(8));
        svc.submit_for("light", rhs(n, 0)).unwrap();
        svc.drain();
        let p99 = svc.tenant_latency_quantile_us("light", 0.99);
        assert!(p99 > 0);
        let mut out = Exposition::new();
        svc.expose_tenants(&mut out);
        let text = out.finish();
        assert!(
            text.contains("h2_tenant_requests_total{tenant=\"light\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "h2_tenant_latency_microseconds{{tenant=\"light\",quantile=\"0.99\"}} {p99}\n"
            )),
            "{text}"
        );
    }

    #[test]
    fn submit_batch_respects_the_default_tenant_queue_cap_atomically() {
        let op = op(MemoryMode::OnTheFly);
        let n = op.n();
        let table = TenantTable::new([(
            "default",
            TenantPolicy {
                max_queue: 3,
                ..TenantPolicy::default()
            },
        )])
        .unwrap();
        let svc = MatvecService::for_tenants(op, 4, table);
        svc.submit(rhs(n, 0)).unwrap();
        // 1 queued + 3 more would exceed the cap of 3: all-or-nothing reject.
        let err = svc
            .submit_batch(vec![rhs(n, 1), rhs(n, 2), rhs(n, 3)])
            .unwrap_err();
        assert!(
            matches!(err, SubmitError::AdmissionRejected { .. }),
            "{err}"
        );
        assert_eq!(
            svc.pending(),
            1,
            "rejected batch must not partially enqueue"
        );
        // A fitting batch is accepted whole.
        assert_eq!(
            svc.submit_batch(vec![rhs(n, 1), rhs(n, 2)]).unwrap().len(),
            2
        );
        assert_eq!(svc.pending(), 3);
    }
}
