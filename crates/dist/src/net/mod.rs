//! Socket-backed transport and multi-process shard serving for
//! distributed H² matvecs.
//!
//! The crate runs the five-sweep distributed matvec over any
//! [`Transport`](crate::Transport); its in-process channel mesh models its
//! traffic in wire bytes. This module provides the physical counterpart — the same protocol over real
//! TCP connections between real processes — in three layers:
//!
//! - [`NetEndpoint`] — a [`Transport`](crate::Transport) over
//!   length-prefixed binary frames (the shared [`crate::wire`] format)
//!   on blocking sockets, without an async runtime: one reader thread per
//!   peer feeds one inbox, the owning thread writes each frame whole, and
//!   one wait routes arrivals, answering liveness pings even while a rank
//!   idles.
//!   Because [`Message::bytes`](crate::Message::bytes) *is* the frame
//!   size, the channel mesh's modeled accounting and this backend's
//!   physical accounting agree byte for byte.
//! - [`run_worker`] — one shard rank's full lifecycle: handshake with the
//!   coordinator (verifying rank identity, protocol version, and scalar
//!   code before any sweep traffic), plan receipt and deterministic
//!   partition reconstruction, worker-mesh interconnect, sweep service,
//!   graceful drain.
//! - [`BoundCoordinator`] / [`ShardCoordinator`] — bind, spawn or admit
//!   workers, distribute the plan, and serve distributed matvecs as an
//!   [`H2Operator`](h2_core::H2Operator) in the accumulator the admission
//!   chooses (mixed precision is `accept::<f64>()` over an `f32`
//!   operator) — bit-identical to the serial and channel-mesh products in
//!   the same precision, and pluggable into `h2-serve`'s `MatvecService`.
//!
//! Failures are typed ([`NetError`] wrapping
//! [`TransportError`](crate::TransportError)) and bounded: connects
//! retry with exponential backoff inside a budget, handshakes and sweep
//! waits carry deadlines, and a worker killed mid-sweep surfaces as a
//! `Disconnected`/`Timeout` error within the configured `io_timeout` —
//! never a hang. Telemetry: `net.bytes_sent` / `net.bytes_recv` /
//! `net.frames` / `net.reconnects` counters and a `net.roundtrip` span
//! per distributed matvec.
//!
//! Observability rides the same wire. With [`NetConfig::trace`] set, the
//! coordinator tags every sweep with a trace id, ships it in a
//! `Telemetry` frame ahead of the scatter, and collects each worker's
//! span buffer (plus its handshake-estimated clock offset) after the
//! sweep as a `TelemetryMsg::SpanReport` of
//! [`SpanRecord`](h2_telemetry::SpanRecord)s —
//! [`ShardCoordinator::cluster_trace_json`] merges everything into one
//! chrome://tracing document with one pid per rank. Telemetry frames are
//! deliberately excluded from the sweep
//! [`TrafficStats`](crate::TrafficStats) (counted on
//! `net.trace_frames` / `net.trace_bytes` instead) so the
//! modeled-vs-physical byte reconciliation stays exact. With
//! [`NetConfig::flight_dir`] set, every rank keeps a bounded flight
//! recorder and failure reports name the dump files.

mod config;
mod coordinator;
mod endpoint;
mod error;
mod worker;

pub use config::NetConfig;
pub use coordinator::{BoundCoordinator, ShardCoordinator};
pub use endpoint::{accept_handshake, connect_handshake, Dialed, Event, Expect, NetEndpoint};
pub use error::NetError;
pub use worker::{run_worker, WorkerReport};
