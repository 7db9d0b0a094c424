//! The sharded H² operator: a distributed five-sweep matvec over an
//! explicit message-passing transport.
//!
//! [`ShardedH2`] wraps a built [`H2MatrixS`] with a [`TreePartition`] and
//! executes `y = Â b` as `S` shard ranks plus one coordinator rank,
//! exchanging *coefficient panels* — never blocks — through a
//! [`Transport`]:
//!
//! 1. **Scatter** — the coordinator permutes `b` into tree order and sends
//!    each shard its contiguous slice.
//! 2. **Shard upward** — each shard runs the upward sweep over its own
//!    subtrees (`q_i = U_iᵀ b_i` at leaves, `q_p = Σ R_cᵀ q_c` above).
//! 3. **Halo exchange / gather** — shards swap the `q` panels and `b`
//!    slices their cross-shard coupling and nearfield blocks reference,
//!    and send the top tree's inputs (cut-root `q`s plus mixed-pair `q`s)
//!    to the coordinator.
//! 4. **Top tree** — the coordinator finishes the upward sweep above the
//!    cut, runs the horizontal sweep of top-level coupling blocks, sweeps
//!    back down to the cut, and broadcasts the `q`/`g` panels each shard
//!    needs.
//! 5. **Shard horizontal + downward + leaf** — each shard applies its
//!    coupling blocks (local, halo, and top sources), pushes coefficients
//!    down its subtrees, applies leaf bases and nearfield blocks, and
//!    returns its output slice; the coordinator un-permutes.
//!
//! The whole protocol is generic over the storage scalar `S` of the wrapped
//! operator and, independently, over the accumulator scalar `A` of one
//! matvec ([`ShardedH2::matvec`]): panels travel as `Vec<A>`, and every rank
//! runs the phases of the one sweep engine ([`h2_core::sweep`]) on the plan
//! of the nodes it owns, over the same flat workspace the serial product
//! uses — received panels are written straight into their slots. A rank's
//! pair schedule is the serial schedule filtered to its owned endpoints,
//! so every target sees its contributions in the serial order and the
//! result is **bit-identical** to [`H2MatrixS::matvec`] with the same `A`,
//! for every precision and both memory modes — the consistency suite
//! asserts exact equality, well inside the documented `≤ 1e-12` contract.
//! In particular
//! `ShardedH2::<f32>::matvec::<f64>` is the distributed mixed-precision
//! mode, bit-identical to [`H2MatrixS::matvec_f64`].
//!
//! Per-matvec traffic (messages, wire bytes, per-phase wall time) is
//! counted by the transport and reported via [`DistStats`]; panel bytes
//! are charged at `A::BYTES` per coefficient, so an `f32` sweep measurably
//! halves the payload volume. One-time **setup** traffic — what a
//! physically distributed deployment would ship before the first matvec —
//! is modeled by [`ShardedH2::setup_bytes`]: stored mode ships every
//! cross-rank dense block (at `S::BYTES` per entry), on-the-fly mode ships
//! only the foreign skeletons/points the blocks regenerate from, which is
//! why its number is far smaller.

use crate::partition::{DistError, Owner, TreePartition};
use crate::transport::{
    ChannelEndpoint, Message, Panel, Rank, Tag, TrafficStats, Transport, TransportError,
};
use h2_core::proxy::ProxyPoints;
use h2_core::{CacheStats, H2MatrixS, H2Operator, MemoryMode, Sweep, SweepPlan};
use h2_linalg::Scalar;
use h2_points::NodeId;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Per-shard wall-clock breakdown of one distributed matvec, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Waiting for the scattered input slice.
    pub input: f64,
    /// Shard-local upward sweep.
    pub upward: f64,
    /// Halo/top panel exchange (sends plus blocking receives).
    pub exchange: f64,
    /// Shard-local horizontal sweep (coupling blocks).
    pub horizontal: f64,
    /// Shard-local downward sweep.
    pub downward: f64,
    /// Leaf basis plus nearfield sweep and result send.
    pub leaf: f64,
}

impl PhaseTimes {
    /// Sum of all phases.
    pub fn total(&self) -> f64 {
        self.input + self.upward + self.exchange + self.horizontal + self.downward + self.leaf
    }
}

/// One shard's measurements for one distributed matvec.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// The shard rank.
    pub rank: usize,
    /// Wall-clock phase breakdown.
    pub phases: PhaseTimes,
    /// Transport counters for this shard's endpoint.
    pub traffic: TrafficStats,
}

/// Coordinator-side wall-clock breakdown, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoordTimes {
    /// Permuting and scattering the input.
    pub scatter: f64,
    /// Waiting for the shards' upward panels.
    pub gather: f64,
    /// Top-tree upward + horizontal + downward sweeps.
    pub top: f64,
    /// Broadcasting top panels back to the shards.
    pub broadcast: f64,
    /// Collecting result slices and un-permuting.
    pub collect: f64,
}

/// Full measurement record of one distributed matvec.
///
/// Every time in here is the measurement of an `h2-telemetry` span guard
/// (`dist.input` … `dist.leaf` labeled `rank=N`, `dist.coord.*`,
/// `dist.matvec` for [`Self::wall`]) — the struct is a per-run view over
/// the same numbers the global trace records.
#[derive(Clone, Debug)]
pub struct DistStats {
    /// Per-shard phase times and traffic.
    pub shards: Vec<ShardStats>,
    /// Coordinator phase times.
    pub coordinator: CoordTimes,
    /// Coordinator endpoint traffic.
    pub coordinator_traffic: TrafficStats,
    /// End-to-end wall time of the matvec, seconds.
    pub wall: f64,
}

impl DistStats {
    /// Total messages sent across all endpoints.
    pub fn total_messages(&self) -> u64 {
        self.coordinator_traffic.sent_messages
            + self
                .shards
                .iter()
                .map(|s| s.traffic.sent_messages)
                .sum::<u64>()
    }

    /// Total wire bytes sent across all endpoints.
    pub fn total_bytes(&self) -> u64 {
        self.coordinator_traffic.sent_bytes
            + self
                .shards
                .iter()
                .map(|s| s.traffic.sent_bytes)
                .sum::<u64>()
    }

    /// Element-wise maximum of the shard phase times (the critical path's
    /// shape across shards).
    pub fn max_phases(&self) -> PhaseTimes {
        let mut m = PhaseTimes::default();
        for s in &self.shards {
            m.input = m.input.max(s.phases.input);
            m.upward = m.upward.max(s.phases.upward);
            m.exchange = m.exchange.max(s.phases.exchange);
            m.horizontal = m.horizontal.max(s.phases.horizontal);
            m.downward = m.downward.max(s.phases.downward);
            m.leaf = m.leaf.max(s.phases.leaf);
        }
        m
    }
}

/// A shard-partitioned H² operator executing over message passing. Every
/// rank reads blocks from the wrapped operator's table.
pub struct ShardedH2<S: Scalar = f64> {
    h2: Arc<H2MatrixS<S>>,
    plan: TreePartition,
    last: Mutex<Option<DistStats>>,
}

impl<S: Scalar> ShardedH2<S> {
    /// Shards `h2` across `shards` ranks, cutting at the shallowest level
    /// wide enough for the shard count.
    pub fn new(h2: Arc<H2MatrixS<S>>, shards: usize) -> Result<Self, DistError> {
        let plan = TreePartition::new(h2.tree(), h2.lists(), shards)?;
        Ok(ShardedH2 {
            h2,
            plan,
            last: Mutex::new(None),
        })
    }

    /// Shards `h2` cutting at an explicit distribution level.
    pub fn with_level(
        h2: Arc<H2MatrixS<S>>,
        shards: usize,
        level: usize,
    ) -> Result<Self, DistError> {
        let plan = TreePartition::with_level(h2.tree(), h2.lists(), shards, level)?;
        Ok(ShardedH2 {
            h2,
            plan,
            last: Mutex::new(None),
        })
    }

    /// The wrapped shared-memory operator.
    pub fn operator(&self) -> &Arc<H2MatrixS<S>> {
        &self.h2
    }

    /// The partition plan.
    pub fn plan(&self) -> &TreePartition {
        &self.plan
    }

    /// Number of shard ranks.
    pub fn shards(&self) -> usize {
        self.plan.shards
    }

    /// The distribution level of the cut.
    pub fn level(&self) -> usize {
        self.plan.level
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.h2.n()
    }

    /// Measurements of the most recent matvec (`None` before the first).
    pub fn last_stats(&self) -> Option<DistStats> {
        self.last.lock().unwrap().clone()
    }

    /// `y = Â b` over the in-process channel transport; stores the run's
    /// [`DistStats`] for [`Self::last_stats`].
    ///
    /// Generic over the accumulator scalar `A` exactly like
    /// [`H2MatrixS::matvec`]; `ShardedH2::<f32>::matvec::<f64>` is the
    /// distributed mixed-precision product.
    pub fn matvec<A: Scalar>(&self, b: &[A]) -> Vec<A> {
        let (y, stats) = self.matvec_with_stats(b);
        *self.last.lock().unwrap() = Some(stats);
        y
    }

    /// `y = Â b`, returning the run's measurements alongside the result.
    pub fn matvec_with_stats<A: Scalar>(&self, b: &[A]) -> (Vec<A>, DistStats) {
        assert_eq!(b.len(), self.h2.n(), "matvec: vector length");
        let h2 = &*self.h2;
        let plan = &self.plan;
        let mut endpoints = ChannelEndpoint::<A>::mesh(plan.shards + 1);
        let mut coord_ep = endpoints.pop().expect("mesh has the coordinator endpoint");
        let sp = h2_telemetry::span("dist.matvec");
        let (y, coordinator, shards) = std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .enumerate()
                .map(|(s, mut ep)| {
                    scope.spawn(move || {
                        let phases = run_shard(h2, plan, s, &mut ep)
                            .expect("in-process shard protocol failed");
                        ShardStats {
                            rank: s,
                            phases,
                            traffic: ep.stats(),
                        }
                    })
                })
                .collect();
            let (y, coordinator) = run_coordinator(h2, plan, &mut coord_ep, b)
                .expect("in-process coordinator protocol failed");
            let shards: Vec<ShardStats> = handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect();
            (y, coordinator, shards)
        });
        let stats = DistStats {
            shards,
            coordinator,
            coordinator_traffic: coord_ep.stats(),
            wall: sp.finish(),
        };
        (y, stats)
    }

    /// Modeled one-time setup traffic of a physically distributed
    /// deployment, in bytes.
    ///
    /// Runtime (per-matvec) traffic is identical in both memory modes —
    /// only coefficient panels move. What differs is what must be resident
    /// on each rank *before* the first matvec:
    ///
    /// - **Stored mode**: every cross-rank coupling/nearfield block is
    ///   assembled once at its home rank (the owner of the smaller node id)
    ///   and shipped to the other applying rank — `rᵢ·rⱼ·S::BYTES` bytes
    ///   per coupling pair, `|Xᵢ|·|Xⱼ|·S::BYTES` per nearfield pair, so an
    ///   `f32` operator ships half of what its `f64` sibling does.
    /// - **On-the-fly mode**: blocks are regenerated at the applying rank,
    ///   so only the *generators* travel, each once per (rank, foreign
    ///   node): skeleton proxies cost `len·(dim+1)·8` (coordinates plus
    ///   original index), grid proxies `len·dim·8`, and foreign nearfield
    ///   leaves `len·(dim+1)·8` — points and indices stay `f64`/`u64`
    ///   whatever the operator precision, since the builders factor in
    ///   `f64`.
    ///
    /// A node's proxy is shipped once however many blocks reference it,
    /// which is why the on-the-fly figure is much smaller — the distributed
    /// restatement of the paper's memory-mode trade-off.
    pub fn setup_bytes(&self) -> u64 {
        let h2 = &self.h2;
        let plan = &self.plan;
        let tree = h2.tree();
        let lists = h2.lists();
        let rank_of = |o: Owner| -> Rank {
            match o {
                Owner::Shard(s) => s,
                Owner::Top => plan.coordinator(),
            }
        };
        if h2.mode() == MemoryMode::Normal {
            let mut bytes = 0u64;
            for &(i, j) in &lists.interaction_pairs {
                if plan.owner(i) != plan.owner(j) {
                    bytes += (h2.rank(i) * h2.rank(j) * S::BYTES) as u64;
                }
            }
            for &(i, j) in &lists.nearfield_pairs {
                if plan.owner(i) != plan.owner(j) {
                    bytes += (tree.node(i).len() * tree.node(j).len() * S::BYTES) as u64;
                }
            }
            bytes
        } else {
            let dim = h2.dim();
            let mut proxies: BTreeSet<(Rank, NodeId)> = BTreeSet::new();
            for &(i, j) in &lists.interaction_pairs {
                let (oi, oj) = (plan.owner(i), plan.owner(j));
                if oi != oj {
                    proxies.insert((rank_of(oi), j));
                    proxies.insert((rank_of(oj), i));
                }
            }
            let mut leaves: BTreeSet<(Rank, NodeId)> = BTreeSet::new();
            for &(i, j) in &lists.nearfield_pairs {
                let (oi, oj) = (plan.owner(i), plan.owner(j));
                if oi != oj {
                    leaves.insert((rank_of(oi), j));
                    leaves.insert((rank_of(oj), i));
                }
            }
            let proxy_bytes: u64 = proxies
                .iter()
                .map(|&(_, node)| match h2.proxy(node) {
                    ProxyPoints::Indices(v) => (v.len() * (dim + 1) * 8) as u64,
                    ProxyPoints::Coords(p) => (p.len() * dim * 8) as u64,
                })
                .sum();
            let leaf_bytes: u64 = leaves
                .iter()
                .map(|&(_, node)| (tree.node(node).len() * (dim + 1) * 8) as u64)
                .sum();
            proxy_bytes + leaf_bytes
        }
    }
}

impl<S: Scalar> H2Operator<S> for ShardedH2<S> {
    fn dims(&self) -> (usize, usize) {
        (self.h2.n(), self.h2.n())
    }

    fn matvec(&self, b: &[S]) -> Vec<S> {
        ShardedH2::matvec(self, b)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.h2.cache_stats()
    }
}

/// Sends the workspace slots of `nodes` (sorted) as one message.
fn send_panels<A: Scalar, T: Transport<A>>(
    ep: &mut T,
    to: Rank,
    tag: Tag,
    nodes: &[NodeId],
    buf: &[A],
    slot: impl Fn(NodeId) -> Range<usize>,
) -> Result<(), TransportError> {
    let panels = nodes
        .iter()
        .map(|&node| Panel {
            node,
            data: buf[slot(node)].to_vec(),
        })
        .collect();
    ep.send(to, tag, Message::new(panels))
}

/// Receives one message and copies its panels into their workspace slots.
/// The plan fixes what must arrive — exactly `nodes`, in order, each as
/// long as its slot — and anything else is a protocol violation, never a
/// silently shortened product or an index panic.
fn recv_panels<A: Scalar, T: Transport<A>>(
    ep: &mut T,
    from: Rank,
    tag: Tag,
    nodes: &[NodeId],
    buf: &mut [A],
    slot: impl Fn(NodeId) -> Range<usize>,
) -> Result<(), TransportError> {
    let msg = ep.recv(from, tag)?;
    if msg.panels.len() != nodes.len() {
        return Err(TransportError::Protocol {
            detail: format!(
                "{tag:?} from rank {from}: {} panels, plan expects {}",
                msg.panels.len(),
                nodes.len()
            ),
        });
    }
    for (panel, &node) in msg.panels.iter().zip(nodes) {
        let slot = slot(node);
        if panel.node != node || panel.data.len() != slot.len() {
            return Err(TransportError::Protocol {
                detail: format!(
                    "{tag:?} from rank {from}: panel for node {} of length {}, \
                     plan expects node {node} of length {}",
                    panel.node,
                    panel.data.len(),
                    slot.len()
                ),
            });
        }
        buf[slot].copy_from_slice(&panel.data);
    }
    Ok(())
}

/// One shard rank's side of the five-sweep protocol, runnable over any
/// [`Transport`] — the channel mesh (threads) or a socket endpoint
/// ([`crate::net`] worker processes): the engine's phases on the shard's plan,
/// with the halo/top exchange between the upward and horizontal sweeps.
/// Returns the phase breakdown; the result travels to the coordinator as a
/// `Result` message. A transport failure (lost peer, timeout, a panel that
/// does not match the plan) aborts the sweep with a typed error instead of
/// hanging.
pub fn run_shard<S: Scalar, A: Scalar, T: Transport<A>>(
    h2: &H2MatrixS<S>,
    plan: &TreePartition,
    s: usize,
    ep: &mut T,
) -> Result<PhaseTimes, TransportError> {
    let tree = h2.tree();
    let coord = plan.coordinator();
    let (lo, hi) = plan.shard_ranges[s];
    let sweep_plan = SweepPlan::new(h2, &plan.shard_levels[s], &plan.shard_leaves[s]);
    // A rank is the unit of parallelism: its phases run at width 1.
    let mut sweep = Sweep::<S, A>::new(h2, &sweep_plan, 1, 1);
    let q_slot = |i: NodeId| sweep_plan.q_range(i, 1);
    let b_slot = |l: NodeId| tree.node(l).start..tree.node(l).end;
    let mut phases = PhaseTimes::default();
    // One span guard per phase: `finish()` returns the same measurement the
    // trace records, so PhaseTimes is a view over the telemetry spans.
    let rank_label = || format!("rank={s}");
    let _shard = h2_telemetry::span_labeled("dist.shard", rank_label());

    // Input slice (tree order, positions lo..hi).
    let sp = h2_telemetry::span_labeled("dist.input", rank_label());
    recv_panels(ep, coord, Tag::Scatter, &[s], &mut sweep.b, |_| lo..hi)?;
    phases.input = sp.finish();

    let sp = h2_telemetry::span_labeled("dist.upward", rank_label());
    sweep.upward();
    phases.upward = sp.finish();

    // Exchange: send halos and top inputs, then block on what we need.
    let sp = h2_telemetry::span_labeled("dist.exchange", rank_label());
    for to in (0..plan.shards).filter(|&to| to != s) {
        if !plan.halo_q[s][to].is_empty() {
            send_panels(ep, to, Tag::HaloQ, &plan.halo_q[s][to], &sweep.q, q_slot)?;
        }
        if !plan.halo_b[s][to].is_empty() {
            send_panels(ep, to, Tag::HaloB, &plan.halo_b[s][to], &sweep.b, b_slot)?;
        }
    }
    if !plan.up_nodes[s].is_empty() {
        send_panels(
            ep,
            coord,
            Tag::GatherUp,
            &plan.up_nodes[s],
            &sweep.q,
            q_slot,
        )?;
    }
    for from in (0..plan.shards).filter(|&from| from != s) {
        if !plan.halo_q[from][s].is_empty() {
            let nodes = &plan.halo_q[from][s];
            recv_panels(ep, from, Tag::HaloQ, nodes, &mut sweep.q, q_slot)?;
        }
        if !plan.halo_b[from][s].is_empty() {
            let leaves = &plan.halo_b[from][s];
            recv_panels(ep, from, Tag::HaloB, leaves, &mut sweep.b, b_slot)?;
        }
    }
    if !plan.need_top_q[s].is_empty() {
        let nodes = &plan.need_top_q[s];
        recv_panels(ep, coord, Tag::TopQ, nodes, &mut sweep.q, q_slot)?;
    }
    if !plan.top_g_parents[s].is_empty() {
        let nodes = &plan.top_g_parents[s];
        recv_panels(ep, coord, Tag::TopG, nodes, &mut sweep.g, q_slot)?;
    }
    phases.exchange = sp.finish();

    let sp = h2_telemetry::span_labeled("dist.horizontal", rank_label());
    sweep.horizontal();
    phases.horizontal = sp.finish();

    // Cut roots pull from the broadcast top coefficients.
    let sp = h2_telemetry::span_labeled("dist.downward", rank_label());
    sweep.downward();
    phases.downward = sp.finish();

    let sp = h2_telemetry::span_labeled("dist.leaf", rank_label());
    sweep.leaf();
    send_panels(ep, coord, Tag::Result, &[s], &sweep.y, |_| lo..hi)?;
    phases.leaf = sp.finish();
    Ok(phases)
}

/// The coordinator's side of the five-sweep protocol: scatter, the engine's
/// upward/horizontal/downward phases on the top tree, broadcast, collect.
/// Like [`run_shard`] it is transport-generic and fallible — over sockets a
/// lost worker surfaces here as a typed [`TransportError`] within the
/// endpoint's configured deadline.
pub fn run_coordinator<S: Scalar, A: Scalar, T: Transport<A>>(
    h2: &H2MatrixS<S>,
    plan: &TreePartition,
    ep: &mut T,
    b: &[A],
) -> Result<(Vec<A>, CoordTimes), TransportError> {
    // Every leaf is shard-owned: the top plan has no leaf sweep.
    let sweep_plan = SweepPlan::new(h2, &plan.top_levels, &[]);
    let mut sweep = Sweep::<S, A>::new(h2, &sweep_plan, 1, 1);
    let q_slot = |i: NodeId| sweep_plan.q_range(i, 1);
    let mut times = CoordTimes::default();
    let _coord = h2_telemetry::span("dist.coord");

    // Permute the input into tree order and scatter contiguous slices.
    let sp = h2_telemetry::span("dist.coord.scatter");
    sweep.gather(b);
    for (s, &(lo, hi)) in plan.shard_ranges.iter().enumerate() {
        send_panels(ep, s, Tag::Scatter, &[s], &sweep.b, |_| lo..hi)?;
    }
    times.scatter = sp.finish();

    // Gather the top tree's inputs.
    let sp = h2_telemetry::span("dist.coord.gather");
    for s in 0..plan.shards {
        if !plan.up_nodes[s].is_empty() {
            let nodes = &plan.up_nodes[s];
            recv_panels(ep, s, Tag::GatherUp, nodes, &mut sweep.q, q_slot)?;
        }
    }
    times.gather = sp.finish();

    let sp = h2_telemetry::span("dist.coord.top");
    sweep.upward();
    sweep.horizontal();
    sweep.downward();
    times.top = sp.finish();

    // Broadcast the panels each shard's remaining sweeps reference.
    let sp = h2_telemetry::span("dist.coord.broadcast");
    for s in 0..plan.shards {
        if !plan.need_top_q[s].is_empty() {
            send_panels(ep, s, Tag::TopQ, &plan.need_top_q[s], &sweep.q, q_slot)?;
        }
        if !plan.top_g_parents[s].is_empty() {
            send_panels(ep, s, Tag::TopG, &plan.top_g_parents[s], &sweep.g, q_slot)?;
        }
    }
    times.broadcast = sp.finish();

    // Collect output slices and un-permute.
    let sp = h2_telemetry::span("dist.coord.collect");
    for (s, &(lo, hi)) in plan.shard_ranges.iter().enumerate() {
        recv_panels(ep, s, Tag::Result, &[s], &mut sweep.y, |_| lo..hi)?;
    }
    let mut y = vec![A::ZERO; h2.n()];
    sweep.scatter(&mut y);
    times.collect = sp.finish();
    Ok((y, times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
    use h2_kernels::Coulomb;
    use h2_linalg::vec_ops;
    use h2_points::gen;

    fn cfg(mode: MemoryMode) -> H2Config {
        H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-6, 3),
            mode,
            leaf_size: 32,
            eta: 0.7,
            ..H2Config::default()
        }
    }

    fn build(n: usize, mode: MemoryMode) -> Arc<H2Matrix> {
        let pts = gen::uniform_cube(n, 3, 17);
        Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg(mode)))
    }

    fn build32(n: usize, mode: MemoryMode) -> Arc<H2MatrixS<f32>> {
        let pts = gen::uniform_cube(n, 3, 17);
        Arc::new(H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &cfg(mode)))
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.37).sin()).collect()
    }

    #[test]
    fn sharded_matches_serial_bitwise() {
        let h2 = build(500, MemoryMode::Normal);
        let serial = h2.matvec(&rhs(500));
        for shards in [1, 2, 3] {
            let sh = ShardedH2::new(h2.clone(), shards).unwrap();
            assert_eq!(sh.matvec(&rhs(500)), serial, "shards = {shards}");
        }
    }

    #[test]
    fn f32_sharded_matches_f32_serial_bitwise() {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let h2 = build32(500, mode);
            let b: Vec<f32> = rhs(500).iter().map(|&v| v as f32).collect();
            let serial = h2.matvec(&b);
            for shards in [2, 3] {
                let sh = ShardedH2::new(h2.clone(), shards).unwrap();
                assert_eq!(sh.matvec(&b), serial, "{} shards = {shards}", mode.name());
            }
        }
    }

    #[test]
    fn mixed_precision_sharded_matches_serial_mixed_bitwise() {
        // f32 storage, f64 panels and accumulation: the distributed
        // mixed-precision mode must reproduce H2MatrixS::matvec_f64 exactly
        // and still track the f64 reference to single-precision accuracy.
        let h2_32 = build32(600, MemoryMode::OnTheFly);
        let h2_64 = build(600, MemoryMode::OnTheFly);
        let b = rhs(600);
        let serial_mixed = h2_32.matvec_f64(&b);
        let sh = ShardedH2::new(h2_32.clone(), 3).unwrap();
        let y = sh.matvec::<f64>(&b);
        assert_eq!(y, serial_mixed);
        let err = vec_ops::rel_err(&y, &h2_64.matvec(&b));
        assert!(err <= 1e-5, "mixed sharded err {err}");
    }

    #[test]
    fn f32_panels_halve_runtime_traffic() {
        // Same partition, same panel counts; every payload coefficient
        // costs 4 bytes instead of 8, and framing is identical — so wire
        // bytes must drop while message counts stay equal.
        let h2_64 = build(700, MemoryMode::Normal);
        let h2_32 = build32(700, MemoryMode::Normal);
        let sh_64 = ShardedH2::new(h2_64, 3).unwrap();
        let sh_32 = ShardedH2::new(h2_32, 3).unwrap();
        let b = rhs(700);
        let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
        let (_, st_64) = sh_64.matvec_with_stats(&b);
        let (_, st_32) = sh_32.matvec_with_stats(&b32);
        assert_eq!(st_64.total_messages(), st_32.total_messages());
        // Subtracting the per-frame header leaves payload plus the
        // identical handshake remainder, so only coefficients differ.
        let header = crate::wire::FRAME_HEADER_BYTES as u64;
        let (payload_64, payload_32) = (
            st_64.total_bytes() - header * st_64.total_messages(),
            st_32.total_bytes() - header * st_32.total_messages(),
        );
        assert!(
            payload_32 < payload_64,
            "f32 payload {payload_32} !< f64 payload {payload_64}"
        );
        // Setup traffic for stored mode halves exactly.
        assert_eq!(2 * sh_32.setup_bytes(), sh_64.setup_bytes());
    }

    #[test]
    fn stats_report_traffic_and_phases() {
        let h2 = build(600, MemoryMode::OnTheFly);
        let sh = ShardedH2::new(h2, 2).unwrap();
        let (_, stats) = sh.matvec_with_stats(&rhs(600));
        assert_eq!(stats.shards.len(), 2);
        // At minimum: 2 scatters + 2 results; with 2 shards the halo is
        // almost surely non-empty too.
        assert!(stats.total_messages() >= 4);
        assert!(stats.total_bytes() > 0);
        assert!(stats.wall > 0.0);
        for s in &stats.shards {
            assert!(s.phases.total() > 0.0);
            assert!(s.traffic.sent_messages >= 1); // at least the result
        }
        assert!(sh.last_stats().is_none()); // with_stats does not store
        sh.matvec(&rhs(600));
        assert!(sh.last_stats().is_some());
    }

    #[test]
    fn otf_setup_traffic_is_smaller_than_stored() {
        let normal = ShardedH2::new(build(800, MemoryMode::Normal), 4).unwrap();
        let otf = ShardedH2::new(build(800, MemoryMode::OnTheFly), 4).unwrap();
        let (nb, ob) = (normal.setup_bytes(), otf.setup_bytes());
        assert!(ob > 0, "4 shards must have cross-rank blocks");
        assert!(
            ob < nb,
            "on-the-fly setup ({ob} B) must undercut stored blocks ({nb} B)"
        );
    }

    #[test]
    fn telemetry_phase_spans_cover_the_wall_time() {
        let h2 = build(600, MemoryMode::OnTheFly);
        let sh = ShardedH2::new(h2, 2).unwrap();
        let (_, stats) = sh.matvec_with_stats(&rhs(600));
        // PhaseTimes are the span guards' own measurements: disjoint
        // sub-intervals of the matvec, so each shard's phases sum to at
        // most the wall time (scheduler jitter allowed) while the slowest
        // shard — alive from scatter to result — covers the bulk of it.
        let mut max_sum: f64 = 0.0;
        for s in &stats.shards {
            let sum = s.phases.total();
            assert!(sum > 0.0, "rank {} recorded no phase time", s.rank);
            assert!(
                sum <= stats.wall * 1.05,
                "rank {} phases {sum} exceed wall {}",
                s.rank,
                stats.wall
            );
            max_sum = max_sum.max(sum);
        }
        assert!(
            max_sum >= stats.wall * 0.3,
            "slowest shard covers {max_sum} of wall {}",
            stats.wall
        );
        // The same measurements land in the global trace, labeled by rank.
        let snap = h2_telemetry::snapshot();
        for name in [
            "dist.input",
            "dist.upward",
            "dist.exchange",
            "dist.horizontal",
            "dist.downward",
            "dist.leaf",
        ] {
            for rank in 0..2 {
                let label = format!("rank={rank}");
                assert!(
                    snap.spans
                        .iter()
                        .any(|r| r.name == name && r.label.as_deref() == Some(label.as_str())),
                    "missing span {name} [{label}]"
                );
            }
        }
        assert!(snap.spans_named("dist.coord.scatter").next().is_some());
        assert!(
            snap.counter("dist.bytes_sent") >= stats.total_bytes(),
            "transport counters feed the registry"
        );
    }

    #[test]
    fn sharded_inherits_wrapped_operators_cache() {
        use h2_core::CacheBudget;
        // An operator built with a budget carries its cache into the
        // sharded path (all ranks share it), keeping sharded ≡ serial.
        let pts = gen::uniform_cube(500, 3, 17);
        let cfg = H2Config {
            cache_budget: CacheBudget::Ratio(0.5),
            ..cfg(MemoryMode::OnTheFly)
        };
        let h2 = Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg));
        assert!(h2.cache().is_some());
        let serial = h2.matvec(&rhs(500));
        let sh = ShardedH2::new(h2.clone(), 2).unwrap();
        assert_eq!(sh.matvec(&rhs(500)), serial);
        assert_eq!(
            H2Operator::cache_stats(&sh).map(|s| s.budget_bytes),
            h2.cache_stats().map(|s| s.budget_bytes)
        );
    }

    #[test]
    fn operator_trait_round_trip() {
        let h2 = build(400, MemoryMode::Normal);
        let sh = ShardedH2::new(h2.clone(), 2).unwrap();
        assert_eq!(H2Operator::dims(&sh), (400, 400));
        assert_eq!(H2Operator::matvec(&sh, &rhs(400)), h2.matvec(&rhs(400)));
    }

    /// Per target node, the ordered `(nearfield?, source, transposed)`
    /// contributions a plan's schedule applies.
    fn contributions(plan: &SweepPlan<'_>, n_nodes: usize) -> Vec<Vec<(bool, NodeId, bool)>> {
        let mut per_target = vec![Vec::new(); n_nodes];
        let coupling = plan.coupling().map(|st| (false, st));
        for (near, st) in coupling.chain(plan.nearfield().map(|st| (true, st))) {
            if st.fwd {
                per_target[st.i].push((near, st.j, false));
            }
            if st.rev {
                per_target[st.j].push((near, st.i, true));
            }
        }
        per_target
    }

    #[test]
    fn every_ranks_schedule_keeps_the_serial_contribution_order() {
        // What makes sharded ≡ serial bitwise: a rank's schedule is the
        // serial round order filtered to its owned endpoints, so it feeds
        // each node it owns exactly the serial sequence of sources, and
        // feeds nothing to nodes it does not own — whatever the shard
        // count, and whether the partition cuts above, at or below the
        // sweep's own grouping level.
        let h2 = build(900, MemoryMode::OnTheFly);
        let n_nodes = h2.tree().node_count();
        let serial = contributions(&SweepPlan::whole(&h2), n_nodes);
        assert!(serial.iter().any(|c| c.len() > 1), "nothing to order");
        for shards in [1, 2, 4, 7] {
            let sh = ShardedH2::new(h2.clone(), shards).unwrap();
            let part = sh.plan();
            let mut owners = vec![0usize; n_nodes];
            for rank in 0..=part.shards {
                let (levels, leaves) = match rank {
                    r if r < part.shards => (&part.shard_levels[r], &part.shard_leaves[r][..]),
                    _ => (&part.top_levels, &[][..]),
                };
                let mine = contributions(&SweepPlan::new(&h2, levels, leaves), n_nodes);
                let owned: BTreeSet<NodeId> = levels.iter().flatten().copied().collect();
                for i in 0..n_nodes {
                    if owned.contains(&i) {
                        owners[i] += 1;
                        assert_eq!(mine[i], serial[i], "{shards} shards, rank {rank}, node {i}");
                    } else {
                        assert!(mine[i].is_empty(), "rank {rank} writes foreign node {i}");
                    }
                }
            }
            assert!(owners.iter().all(|&c| c == 1), "every node has one owner");
        }
    }

    type Inbox = Vec<(Rank, Tag, Message<f64>)>;

    /// A channel endpoint that also logs every message it receives.
    struct Recording {
        ep: ChannelEndpoint<f64>,
        log: Inbox,
    }

    impl Transport<f64> for Recording {
        fn rank(&self) -> Rank {
            self.ep.rank()
        }
        fn ranks(&self) -> usize {
            self.ep.ranks()
        }
        fn send(&mut self, to: Rank, tag: Tag, msg: Message<f64>) -> Result<(), TransportError> {
            self.ep.send(to, tag, msg)
        }
        fn recv(&mut self, from: Rank, tag: Tag) -> Result<Message<f64>, TransportError> {
            let msg = self.ep.recv(from, tag)?;
            self.log.push((from, tag, msg.clone()));
            Ok(msg)
        }
        fn stats(&self) -> TrafficStats {
            self.ep.stats()
        }
    }

    /// Replays a recorded inbox to one rank and swallows what it sends, so
    /// that rank runs alone and its failure cannot strand a peer.
    struct Replay {
        rank: Rank,
        ranks: usize,
        inbox: Inbox,
    }

    impl Transport<f64> for Replay {
        fn rank(&self) -> Rank {
            self.rank
        }
        fn ranks(&self) -> usize {
            self.ranks
        }
        fn send(&mut self, _: Rank, _: Tag, _: Message<f64>) -> Result<(), TransportError> {
            Ok(())
        }
        fn recv(&mut self, from: Rank, tag: Tag) -> Result<Message<f64>, TransportError> {
            let at = self
                .inbox
                .iter()
                .position(|(f, t, _)| (*f, *t) == (from, tag))
                .ok_or(TransportError::Disconnected {
                    peer: from,
                    detail: format!("no recorded {tag:?}"),
                })?;
            Ok(self.inbox.remove(at).2)
        }
        fn stats(&self) -> TrafficStats {
            TrafficStats::default()
        }
    }

    #[test]
    fn panels_that_do_not_match_the_plan_are_protocol_errors() {
        // Regression: these were debug_asserts, so a release build applied
        // a short halo panel to fewer columns (or panicked on an index).
        // A cut deep enough that the top tree has coupling blocks of its
        // own, so all seven message kinds travel.
        let h2 = build(600, MemoryMode::Normal);
        let sh = ShardedH2::with_level(h2.clone(), 2, 5).unwrap();
        let (h2, part, b) = (&*h2, sh.plan(), rhs(600));
        let coord = part.coordinator();

        // One honest product over the channel mesh, recording every inbox.
        let mut eps: Vec<Recording> = ChannelEndpoint::mesh(coord + 1)
            .into_iter()
            .map(|ep| Recording {
                ep,
                log: Vec::new(),
            })
            .collect();
        let mut coord_ep = eps.pop().unwrap();
        std::thread::scope(|scope| {
            let shards: Vec<_> = eps
                .iter_mut()
                .enumerate()
                .map(|(s, ep)| scope.spawn(move || run_shard::<f64, f64, _>(h2, part, s, ep)))
                .collect();
            run_coordinator(h2, part, &mut coord_ep, &b).unwrap();
            for shard in shards {
                shard.join().unwrap().unwrap();
            }
        });
        eps.push(coord_ep);

        let run = |rank: Rank, inbox: Inbox| -> Result<Option<Vec<f64>>, TransportError> {
            let mut ep = Replay {
                rank,
                ranks: coord + 1,
                inbox,
            };
            if rank == coord {
                run_coordinator(h2, part, &mut ep, &b).map(|(y, _)| Some(y))
            } else {
                run_shard::<f64, f64, _>(h2, part, rank, &mut ep).map(|_| None)
            }
        };
        let mut tags = BTreeSet::new();
        for (rank, rec) in eps.iter().enumerate() {
            // The honest inbox replays to the honest result.
            let y = run(rank, rec.log.clone()).unwrap();
            assert!(y.is_none_or(|y| y == h2.matvec(&b)));
            for (at, (_, tag, _)) in rec.log.iter().enumerate() {
                tags.insert(format!("{tag:?}"));
                // One element short (one too many for an empty, rank-0
                // panel), a wrong node id, an extra panel.
                let tampered: [fn(&mut Message<f64>); 3] = [
                    |m| {
                        if m.panels[0].data.pop().is_none() {
                            m.panels[0].data.push(0.0);
                        }
                    },
                    |m| m.panels[0].node += 1,
                    |m| m.panels.push(m.panels[0].clone()),
                ];
                for tamper in tampered {
                    let mut inbox = rec.log.clone();
                    tamper(&mut inbox[at].2);
                    let err = run(rank, inbox).expect_err("tampered panel accepted");
                    assert!(
                        matches!(err, TransportError::Protocol { .. }),
                        "rank {rank}, {tag:?}: {err}"
                    );
                }
            }
        }
        // Every message kind of the protocol was exercised.
        assert_eq!(tags.len(), 7, "{tags:?}");
    }
}
