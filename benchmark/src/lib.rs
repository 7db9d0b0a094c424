//! # h2bench
//!
//! One benchmark for the whole h2mv stack: five workloads, seven end-to-end
//! metrics with regression bounds, and an outside-in per-layer trace. It
//! drives the system only through public functions of the workspace crates
//! and claims no gain; it is the ruler later changes are measured with. See
//! `benchmark/README.md` for the metric -> layer -> workload table.

pub mod alloc;
pub mod cli;
pub mod dist_probe;
pub mod host;
pub mod metrics;
pub mod pace;
pub mod phases;
pub mod probes;
pub mod replay;
pub mod results;
pub mod stats;
pub mod trace;
pub mod workloads;
