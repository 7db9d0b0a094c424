//! # h2-dist
//!
//! Sharded H² execution: partitioned cluster trees, a message-passing
//! transport abstraction, and a distributed matvec that is bit-identical to
//! the shared-memory [`h2_core::H2Matrix::matvec`].
//!
//! The paper's parallel matvec (§V) is shared-memory: every thread sees
//! every basis, block, and coefficient. This crate restates it as an
//! explicitly distributed computation — the shape it takes when the
//! operator outgrows one node:
//!
//! - [`partition`]: cut the cluster tree at a distribution level into
//!   contiguous-subtree **shards**, compute each shard's **halo** (exactly
//!   the foreign upward coefficients and input slices its cross-shard
//!   coupling/nearfield blocks reference), and keep the levels above the
//!   cut as a coordinator-owned **top tree**.
//! - [`transport`]: a typed point-to-point [`Transport`] trait (tagged
//!   coefficient-panel messages between ranks, fallible with
//!   [`TransportError`]) with an in-process channel-mesh backend and
//!   per-endpoint traffic accounting. [`net`] provides the TCP socket
//!   backend behind the same trait; MPI could slot in too.
//! - [`wire`]: the shared binary wire format — frame headers, handshake
//!   and plan payloads, panel codecs, and the little-endian primitive
//!   readers/writers the serving codec also builds on. Channel-mesh
//!   accounting charges exactly the socket framing, so `TrafficStats`
//!   from both backends are directly comparable.
//! - [`sharded`]: [`ShardedH2`], the distributed five-sweep matvec —
//!   scatter, shard upward, halo exchange, coordinator top tree,
//!   shard horizontal/downward/leaf, gather — in both stored and
//!   on-the-fly memory modes, with per-phase wall times, per-matvec wire
//!   bytes, and a setup-traffic model ([`ShardedH2::setup_bytes`]) that
//!   quantifies how much less data the on-the-fly mode must ship.
//!
//! The whole stack is generic over precision: `ShardedH2<S>` wraps an
//! `H2MatrixS<S>` and its matvec is additionally generic over the panel
//! scalar `A` (`ShardedH2::<f32>::matvec::<f64>` is the distributed
//! mixed-precision mode), with wire bytes charged at `A::BYTES` per
//! coefficient so `f32` sweeps measurably halve payload traffic. Every
//! instantiation stays bit-identical to its serial counterpart.
//!
//! [`ShardedH2`] implements [`h2_core::H2Operator`], so solvers and the
//! serving layer consume it exactly like a local `H2Matrix`.
//!
//! ```
//! use h2_core::{BasisMethod, H2Config, H2Matrix, H2Operator, MemoryMode};
//! use h2_dist::ShardedH2;
//! use h2_kernels::Coulomb;
//! use h2_points::gen;
//! use std::sync::Arc;
//!
//! let pts = gen::uniform_cube(600, 3, 5);
//! let cfg = H2Config {
//!     basis: BasisMethod::data_driven_for_tol(1e-6, 3),
//!     mode: MemoryMode::OnTheFly,
//!     ..H2Config::default()
//! };
//! let h2 = Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg));
//! let sharded = ShardedH2::new(h2.clone(), 3).unwrap();
//! let b = vec![1.0; 600];
//! assert_eq!(sharded.matvec(&b), h2.matvec(&b)); // bit-identical
//! let stats = sharded.last_stats().unwrap();
//! assert!(stats.total_bytes() > 0);
//! ```

pub mod net;
pub mod partition;
pub mod sharded;
pub mod transport;
pub mod wire;

pub use partition::{DistError, Owner, TreePartition};
pub use sharded::{
    run_coordinator, run_shard, CoordTimes, DistStats, PhaseTimes, ShardStats, ShardedH2,
};
pub use transport::{
    ChannelEndpoint, Message, Panel, Rank, Tag, TrafficStats, Transport, TransportError,
};
pub use wire::{WireError, WireReader, WireWriter};
