//! # h2-serve
//!
//! Operator serving for H² matrices: **persistence**, a shared **registry**,
//! and a **batched matvec service** — the pieces that let an expensive-to-
//! build, cheap-to-apply operator outlive its process, be shared across
//! requests, and amortize on-the-fly block regeneration across concurrent
//! requests (the paper's §VI-B trade-off, operationalized).
//!
//! - [`codec`]: a versioned binary format (magic, format version, kernel
//!   fingerprint, per-section FNV-1a checksums). On-the-fly operators store
//!   only the tree and skeleton/grid generators — no dense blocks — so their
//!   files are roughly an order of magnitude smaller, mirroring the
//!   in-memory mode split. Loading revalidates everything and returns a
//!   typed [`LoadError`]; it never panics on corrupt input.
//! - [`registry`]: named `Arc<H2Matrix>` operators shared across threads.
//! - [`service`]: queues single-vector requests and drains up to `k` of
//!   them through one fused multi-RHS sweep (`H2Matrix::matmat`), which
//!   generates each on-the-fly block once per batch instead of once per
//!   request. The service is generic over the `H2Operator` trait, so a
//!   sharded distributed operator serves through the same front end —
//!   with [`metrics`] recording end-to-end latency percentiles split into
//!   queue-wait and compute, throughput, and batch-size histograms.
//!
//! ## Quickstart
//!
//! ```
//! use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
//! use h2_kernels::Coulomb;
//! use h2_points::gen;
//! use h2_serve::{codec, MatvecService, OperatorRegistry};
//! use std::sync::Arc;
//!
//! // Build once, save to disk.
//! let pts = gen::uniform_cube(500, 3, 1);
//! let cfg = H2Config {
//!     basis: BasisMethod::data_driven_for_tol(1e-5, 3),
//!     mode: MemoryMode::OnTheFly,
//!     ..H2Config::default()
//! };
//! let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
//! let path = std::env::temp_dir().join("doc.h2op");
//! codec::save(&h2, &path).unwrap();
//!
//! // Later (any process): load, register, serve.
//! let reg: OperatorRegistry = OperatorRegistry::new();
//! let op = reg.load_file("coulomb-cube", &path, Arc::new(Coulomb)).unwrap();
//! std::fs::remove_file(&path).ok();
//! let svc = MatvecService::new(op, 16);
//! let tickets: Vec<_> = (0..4)
//!     .map(|_| svc.submit(vec![1.0; 500]).unwrap())
//!     .collect();
//! svc.drain(); // one fused sweep serves all four requests
//! for t in tickets {
//!     assert_eq!(
//!         t.wait().unwrap(),
//!         reg.get("coulomb-cube").unwrap().matvec(&vec![1.0; 500])
//!     );
//! }
//! ```

pub mod codec;
#[doc(hidden)]
pub mod compat;
pub mod error;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod service;
pub mod tenant;

pub use codec::{decode, decode_mapped, encode, load, load_mmap, save};
pub use error::{LoadError, SubmitError};
pub use http::MetricsServer;
pub use metrics::{MetricsSnapshot, ServiceMetrics};
pub use registry::{OperatorRegistry, RegistryEntryBytes};
pub use service::{DrainReport, MatvecService, Ticket};

pub use tenant::{Admission, AdmitError, TenantId, TenantPolicy, TenantTable};
// h2bench names `h2_serve::QueueMode`.
#[doc(hidden)]
pub use compat::*;
