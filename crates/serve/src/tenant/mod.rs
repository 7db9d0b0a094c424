//! The QoS plane for multi-tenant operator serving: who may submit work,
//! how much of it may wait, and in what order a shared batched service
//! drains it.
//!
//! The service ([`crate::service`]) batches single-vector requests into
//! fused multi-RHS sweeps. With one FIFO queue, a tenant that floods the
//! queue sets everyone else's tail latency. This module makes fairness an
//! explicit policy instead of an accident of arrival order:
//!
//! - [`TenantId`] / [`TenantPolicy`] / [`TenantTable`] — named tenants with
//!   a scheduling weight, a queue-depth cap, a relative cache-budget share,
//!   and an admission state, parsed from a small `tenants.toml` dialect
//!   ([`TenantTable::parse`]) or built programmatically;
//! - [`BatchScheduler`] — per-tenant queues drained by **weighted deficit
//!   round robin**: backlogged tenants are served in proportion to their
//!   weights, idle capacity is redistributed, and a persistent cursor plus
//!   deficit accounting keep partial batches fair (see the invariants in
//!   [`sched`]); a single-tenant table drains in arrival order;
//! - admission control — a full or closed tenant's submission is refused
//!   with a typed [`AdmitError`] before it can displace anyone else's work;
//! - cache partitioning — [`TenantTable::cache_shares`] feeds
//!   [`h2_core::cache::split_budget`] so one byte budget divides exactly
//!   across tenants in policy proportion.
//!
//! The module is deliberately free of serving types: it schedules any
//! queued item `T`, and the service instantiates it with its
//! pending-request struct.
//!
//! ```
//! use h2_serve::tenant::{BatchScheduler, TenantTable};
//!
//! let table = TenantTable::parse(
//!     "[hog]\nweight = 1.0\nmax_queue = 4\n\n[light]\nweight = 4.0\n",
//! )
//! .unwrap();
//! let mut sched: BatchScheduler<&str> = BatchScheduler::with_table(table);
//! let hog = sched.table().index_of("hog").unwrap();
//! let light = sched.table().index_of("light").unwrap();
//! for _ in 0..4 {
//!     sched.push(hog, "hog rhs").unwrap();
//!     sched.push(light, "light rhs").unwrap();
//! }
//! assert!(sched.push(hog, "rejected").is_err()); // queue cap
//! // Under contention a batch splits 4:1 in the light tenant's favor,
//! // even though the hog submitted first.
//! let batch = sched.next_batch(5);
//! assert_eq!(batch.iter().filter(|&&(t, _)| t == light).count(), 4);
//! assert_eq!(batch.iter().filter(|&&(t, _)| t == hog).count(), 1);
//! ```

pub mod policy;
pub mod sched;

pub use policy::{Admission, PolicyError, TenantId, TenantPolicy, TenantTable};
pub use sched::{AdmitError, BatchScheduler};
