//! The batch scheduler: per-tenant queues drained by weighted deficit round
//! robin. A table with a single tenant drains in arrival order, which is
//! the plain FIFO a caller without tenants sees.
//!
//! ## WDRR invariants
//!
//! - Each tenant owns a FIFO queue and a *deficit* (credit measured in
//!   requests; serving one request costs 1).
//! - The scheduler visits queues round-robin from a **persistent cursor** —
//!   the cursor survives across [`BatchScheduler::next_batch`] calls, so
//!   short batches cannot systematically favor low indices.
//! - On visiting a backlogged tenant whose deficit is below the cost of one
//!   request, the tenant earns `quantum × weight` credit. The quantum is
//!   normalized to `1 / min_weight` at construction, so a single top-up
//!   always covers at least one request — every visit of a backlogged queue
//!   makes progress, whatever the weight spread.
//! - The tenant is then served while its deficit covers the cost and the
//!   batch has room. Credit left over when the batch fills is kept (the
//!   next visit tops up only if below cost, so partial batches never
//!   double-credit).
//! - A tenant observed with an **empty queue forfeits its deficit**: idle
//!   tenants cannot hoard credit and burst past the weights later.
//!
//! Under sustained backlog, tenant `i`'s service share converges to
//! `weight_i / Σ weights` (`wdrr_shares_track_weights_under_backlog`). An
//! idle tenant's capacity is redistributed to the backlogged ones in
//! proportion to *their* weights (work-conserving).

use crate::policy::{Admission, TenantTable};
use std::collections::VecDeque;

/// Cost of serving one request, in deficit units.
const COST: f64 = 1.0;

/// How the scheduler orders requests across tenants. There is one policy;
/// the enum (and the `mode` parameter of [`BatchScheduler::new`]) survives
/// only because `benchmark/`, which a PR may not edit alongside program
/// code, names `QueueMode::Wdrr`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueMode {
    /// Weighted deficit round robin: backlogged tenants are served in
    /// proportion to their policy weights.
    #[default]
    Wdrr,
}

/// Why a submission was refused at the scheduler door. The queue state is
/// untouched by a rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The tenant index is outside the table (or the name did not resolve —
    /// callers translating names map a failed lookup here).
    UnknownTenant,
    /// The tenant's admission state is [`Admission::Closed`].
    Closed,
    /// The tenant's queue already holds `max_queue` requests.
    QueueFull {
        /// Requests currently queued for the tenant.
        depth: usize,
        /// The policy cap that was hit.
        max: usize,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::UnknownTenant => write!(f, "unknown tenant"),
            AdmitError::Closed => write!(f, "tenant admission is closed"),
            AdmitError::QueueFull { depth, max } => {
                write!(f, "tenant queue full ({depth} of {max})")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// Per-tenant queues plus the drain policy. Generic over the queued item so
/// the serving layer can store its pending-request struct directly.
#[derive(Debug)]
pub struct BatchScheduler<T> {
    table: TenantTable,
    quantum: f64,
    queues: Vec<VecDeque<T>>,
    deficits: Vec<f64>,
    cursor: usize,
    total: usize,
}

impl<T> BatchScheduler<T> {
    /// A scheduler over `table`. The WDRR quantum is fixed at
    /// `1 / min_weight` (see module docs).
    pub fn new(table: TenantTable, _mode: QueueMode) -> BatchScheduler<T> {
        assert!(!table.is_empty(), "scheduler needs at least one tenant");
        let min_w = table
            .iter()
            .map(|(_, _, p)| p.weight)
            .fold(f64::INFINITY, f64::min);
        let n = table.len();
        BatchScheduler {
            table,
            quantum: COST / min_w,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            deficits: vec![0.0; n],
            cursor: 0,
            total: 0,
        }
    }

    /// The policy table the scheduler was built over.
    pub fn table(&self) -> &TenantTable {
        &self.table
    }

    /// Total queued requests across all tenants.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Requests currently queued for tenant `tenant`.
    pub fn queue_depth(&self, tenant: usize) -> usize {
        self.queues.get(tenant).map_or(0, VecDeque::len)
    }

    /// Enqueues `item` for tenant index `tenant`, enforcing admission state
    /// and the queue-depth cap. Rejections leave every queue untouched.
    pub fn push(&mut self, tenant: usize, item: T) -> Result<(), AdmitError> {
        if tenant >= self.table.len() {
            return Err(AdmitError::UnknownTenant);
        }
        let policy = self.table.policy(tenant);
        if policy.admission == Admission::Closed {
            return Err(AdmitError::Closed);
        }
        let depth = self.queues[tenant].len();
        if depth >= policy.max_queue {
            return Err(AdmitError::QueueFull {
                depth,
                max: policy.max_queue,
            });
        }
        self.queues[tenant].push_back(item);
        self.total += 1;
        Ok(())
    }

    /// Dequeues up to `max` requests as `(tenant index, item)` pairs in
    /// service order. Returns an empty vector when nothing is queued.
    pub fn next_batch(&mut self, max: usize) -> Vec<(usize, T)> {
        let mut out = Vec::with_capacity(max.min(self.total));
        let n = self.table.len();
        while out.len() < max && self.total > 0 {
            let i = self.cursor;
            if self.queues[i].is_empty() {
                // Idle tenants forfeit credit — no hoarded bursts.
                self.deficits[i] = 0.0;
                self.cursor = (i + 1) % n;
                continue;
            }
            // Top up only when below cost: a partial batch that stopped
            // here mid-queue resumes on stored credit instead of earning a
            // second quantum.
            if self.deficits[i] < COST {
                self.deficits[i] += self.quantum * self.table.policy(i).weight;
            }
            while self.deficits[i] >= COST && out.len() < max {
                let Some(item) = self.queues[i].pop_front() else {
                    break;
                };
                self.deficits[i] -= COST;
                self.total -= 1;
                out.push((i, item));
            }
            if self.queues[i].is_empty() {
                self.deficits[i] = 0.0;
                self.cursor = (i + 1) % n;
            } else if self.deficits[i] < COST {
                // Credit spent: the visit is over even if the batch filled
                // on the last pop — advancing here is what keeps singleton
                // batches from starving everyone behind the cursor.
                self.cursor = (i + 1) % n;
            }
            // else: credit left and queue backlogged, which only happens
            // when the batch filled — keep the cursor so the next drain
            // resumes here on the stored credit.
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{TenantPolicy, TenantTable};

    fn table(weights: &[f64]) -> TenantTable {
        TenantTable::new(weights.iter().enumerate().map(|(i, &w)| {
            (
                format!("t{i}"),
                TenantPolicy {
                    weight: w,
                    ..TenantPolicy::default()
                },
            )
        }))
        .unwrap()
    }

    #[test]
    fn one_tenant_drains_in_arrival_order_across_batch_boundaries() {
        // What every caller without tenants (`MatvecService::new`) relies
        // on: a single queue under WDRR is a plain FIFO, whatever the batch
        // size does to the credit bookkeeping.
        let mut s = BatchScheduler::new(table(&[1.0]), QueueMode::Wdrr);
        for k in 0..10 {
            s.push(0, k).unwrap();
        }
        let mut served = Vec::new();
        while !s.is_empty() {
            let batch = s.next_batch(3);
            assert!(batch.len() <= 3 && batch.iter().all(|&(t, _)| t == 0));
            served.extend(batch.into_iter().map(|(_, k)| k));
        }
        assert_eq!(served, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn wdrr_shares_track_weights_under_backlog() {
        // 3:1 weights, both saturated: served counts must track 3:1.
        let mut s = BatchScheduler::new(table(&[3.0, 1.0]), QueueMode::Wdrr);
        for k in 0..600 {
            s.push(0, k).unwrap();
            s.push(1, k).unwrap();
        }
        let mut counts = [0usize; 2];
        // Drain in small batches to exercise the persistent cursor.
        for _ in 0..100 {
            for (t, _) in s.next_batch(8) {
                counts[t] += 1;
            }
        }
        let total = counts[0] + counts[1];
        assert_eq!(total, 800);
        let share0 = counts[0] as f64 / total as f64;
        assert!(
            (share0 - 0.75).abs() < 0.02,
            "heavy tenant got {share0} of service, wanted ~0.75"
        );
    }

    #[test]
    fn wdrr_is_work_conserving_when_a_tenant_idles() {
        // Only the light tenant is backlogged: it gets everything.
        let mut s = BatchScheduler::new(table(&[100.0, 1.0]), QueueMode::Wdrr);
        for k in 0..32 {
            s.push(1, k).unwrap();
        }
        let batch = s.next_batch(32);
        assert_eq!(batch.len(), 32);
        assert!(batch.iter().all(|&(t, _)| t == 1));
    }

    #[test]
    fn idle_tenants_forfeit_deficit() {
        // Tenant 0 goes idle, then returns: it must not burst past its
        // weight share on hoarded credit.
        let mut s = BatchScheduler::new(table(&[1.0, 1.0]), QueueMode::Wdrr);
        for k in 0..100 {
            s.push(1, k).unwrap();
        }
        // Many sweeps while tenant 0 is idle (each visit resets its credit).
        while !s.is_empty() {
            s.next_batch(4);
        }
        for k in 0..50 {
            s.push(0, k).unwrap();
            s.push(1, k).unwrap();
        }
        let mut counts = [0usize; 2];
        for (t, _) in s.next_batch(40) {
            counts[t] += 1;
        }
        assert!(
            counts[0].abs_diff(counts[1]) <= 2,
            "equal weights must split a contended batch evenly, got {counts:?}"
        );
    }

    #[test]
    fn partial_batches_resume_without_double_credit() {
        // Weight 4:1 with batch size 1: over 20 singleton batches the split
        // must still be 16:4, proving leftover credit is kept but a resumed
        // visit is not topped up twice.
        let mut s = BatchScheduler::new(table(&[4.0, 1.0]), QueueMode::Wdrr);
        for k in 0..40 {
            s.push(0, k).unwrap();
            s.push(1, k).unwrap();
        }
        let mut counts = [0usize; 2];
        for _ in 0..20 {
            for (t, _) in s.next_batch(1) {
                counts[t] += 1;
            }
        }
        assert_eq!(counts[0] + counts[1], 20);
        assert_eq!(counts[0], 16, "heavy tenant share drifted: {counts:?}");
    }

    #[test]
    fn extreme_weight_ratios_still_progress() {
        // The quantum normalization guarantees the tiny-weight tenant is
        // served on every visit, not starved for ~1e6 rounds.
        let mut s = BatchScheduler::new(table(&[1e6, 1e-3]), QueueMode::Wdrr);
        s.push(1, "tiny").unwrap();
        let batch = s.next_batch(4);
        assert_eq!(batch, vec![(1, "tiny")]);
    }

    #[test]
    fn admission_control_rejects_without_side_effects() {
        let t = TenantTable::new([
            (
                "open",
                TenantPolicy {
                    max_queue: 2,
                    ..TenantPolicy::default()
                },
            ),
            (
                "closed",
                TenantPolicy {
                    admission: Admission::Closed,
                    ..TenantPolicy::default()
                },
            ),
        ])
        .unwrap();
        let mut s = BatchScheduler::new(t, QueueMode::Wdrr);
        assert_eq!(s.push(5, 0), Err(AdmitError::UnknownTenant));
        assert_eq!(s.push(1, 0), Err(AdmitError::Closed));
        s.push(0, 1).unwrap();
        s.push(0, 2).unwrap();
        assert_eq!(
            s.push(0, 3),
            Err(AdmitError::QueueFull { depth: 2, max: 2 })
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.queue_depth(0), 2);
        assert_eq!(s.queue_depth(1), 0);
        // Rejected items never surface in a drain.
        let drained: Vec<i32> = s.next_batch(8).into_iter().map(|(_, v)| v).collect();
        assert_eq!(drained, vec![1, 2]);
        assert!(s.is_empty());
    }
}
