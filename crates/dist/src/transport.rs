//! Typed message-passing transport for the distributed matvec.
//!
//! The matvec is written against the [`Transport`] trait — point-to-point
//! send/receive of tagged coefficient-panel messages between ranks — so the
//! execution logic is backend-agnostic: the in-process [`ChannelEndpoint`]
//! backend here runs shards as threads over `mpsc` channels, and a socket
//! or MPI backend can slot in behind the same five methods without touching
//! the sweep code. Every endpoint counts messages and payload bytes in both
//! directions ([`TrafficStats`]), which is what the communication-volume
//! experiments report; the same quantities feed the process-wide
//! `h2-telemetry` counters (`dist.messages_sent`, `dist.bytes_sent`,
//! `dist.messages_recv`, `dist.bytes_recv`) so traces and Prometheus
//! snapshots see transport volume without threading stats around.
//!
//! Panels, messages, and the transport itself are generic over the
//! coefficient scalar `A` (default `f64`): an `f32` sweep moves `f32`
//! panels, and [`Message::bytes`] charges `A::BYTES` per coefficient, so
//! the wire accounting is byte-accurate per precision — running the same
//! matvec in `f32` really halves the measured payload traffic.

use h2_linalg::Scalar;
use h2_points::NodeId;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};

/// A rank: shards are `0..S`, the coordinator is `S`.
pub type Rank = usize;

/// Message kinds of the distributed matvec protocol, in protocol order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tag {
    /// Coordinator → shard: the shard's slice of the permuted input vector.
    Scatter,
    /// Shard → shard: upward coefficients for cross-shard coupling blocks.
    HaloQ,
    /// Shard → shard: input slices for cross-shard nearfield blocks.
    HaloB,
    /// Shard → coordinator: upward coefficients feeding the top tree.
    GatherUp,
    /// Coordinator → shard: upward coefficients of top nodes the shard's
    /// horizontal sweep references.
    TopQ,
    /// Coordinator → shard: final downward coefficients of the shard's cut
    /// roots' parents.
    TopG,
    /// Shard → coordinator: the shard's slice of the output vector.
    Result,
}

/// One coefficient panel: a node id and its packed values.
#[derive(Clone, Debug, PartialEq)]
pub struct Panel<A: Scalar = f64> {
    /// The node the payload belongs to (or a rank id for Scatter/Result).
    pub node: NodeId,
    /// Packed coefficients.
    pub data: Vec<A>,
}

/// A tagged message: an ordered list of panels.
#[derive(Clone, Debug, PartialEq)]
pub struct Message<A: Scalar = f64> {
    /// The panels, in the sender's (sorted-plan) order.
    pub panels: Vec<Panel<A>>,
}

impl<A: Scalar> Default for Message<A> {
    fn default() -> Self {
        Message { panels: Vec::new() }
    }
}

impl<A: Scalar> Message<A> {
    /// A message carrying the given panels.
    pub fn new(panels: Vec<Panel<A>>) -> Self {
        Message { panels }
    }

    /// Wire size of this message as one `Data` frame: the fixed
    /// [`crate::wire::FRAME_HEADER_BYTES`]-byte header, then per panel an
    /// 8-byte node id, an 8-byte length, and `A::BYTES` per coefficient.
    /// This is byte-exact against what the socket transport physically
    /// sends ([`crate::wire::data_frame`]), so channel-mesh and TCP
    /// traffic accounting agree.
    pub fn bytes(&self) -> u64 {
        crate::wire::data_frame_bytes(self)
    }
}

/// Why a transport operation failed. Backends turn their failure modes —
/// a dropped channel, a dead socket, an exhausted deadline, a malformed
/// frame — into these; the sweep code propagates them unchanged, so a
/// lost worker surfaces as a typed error instead of a hang or a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer is gone: its endpoint was dropped (channels) or its
    /// connection closed or reset (sockets).
    Disconnected {
        /// The unreachable rank.
        peer: Rank,
        /// Backend diagnostic.
        detail: String,
    },
    /// The peer is still connected but did not produce the expected
    /// message (or accept ours) within the configured deadline.
    Timeout {
        /// The rank we were waiting on.
        peer: Rank,
        /// What was awaited, for diagnostics.
        waiting_for: String,
        /// The deadline that expired, in milliseconds.
        after_ms: u64,
    },
    /// The peer sent bytes that violate the wire protocol (bad magic,
    /// unknown frame kind, scalar mismatch, truncated payload).
    Protocol {
        /// Decoder diagnostic.
        detail: String,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected { peer, detail } => {
                write!(f, "rank {peer} disconnected: {detail}")
            }
            TransportError::Timeout {
                peer,
                waiting_for,
                after_ms,
            } => write!(
                f,
                "timed out after {after_ms} ms waiting on rank {peer} for {waiting_for}"
            ),
            TransportError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<crate::wire::WireError> for TransportError {
    fn from(e: crate::wire::WireError) -> Self {
        TransportError::Protocol { detail: e.detail }
    }
}

/// Per-endpoint traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Messages sent.
    pub sent_messages: u64,
    /// Wire bytes sent.
    pub sent_bytes: u64,
    /// Messages received.
    pub recv_messages: u64,
    /// Wire bytes received.
    pub recv_bytes: u64,
}

/// Point-to-point transport between the ranks of one distributed matvec,
/// moving panels of coefficient scalar `A`.
///
/// Implementations must deliver messages reliably and in order per
/// `(sender, tag)` stream; `recv` blocks until the requested message is
/// available or the backend's failure detector fires. The trait is
/// object-safe and `Send`, so backends can be threads + channels (here),
/// sockets ([`crate::net`]), or MPI. Both operations are fallible: a backend
/// with real failure modes returns a typed [`TransportError`] instead of
/// hanging or panicking, and the sweep code propagates it out of
/// the distributed matvec.
pub trait Transport<A: Scalar = f64>: Send {
    /// This endpoint's rank.
    fn rank(&self) -> Rank;

    /// Total number of ranks (shards + coordinator).
    fn ranks(&self) -> usize;

    /// Sends `msg` to `to` under `tag`.
    fn send(&mut self, to: Rank, tag: Tag, msg: Message<A>) -> Result<(), TransportError>;

    /// Receives the next message from `from` under `tag`, blocking until it
    /// arrives. Messages from other `(rank, tag)` streams arriving in the
    /// meantime are buffered, not lost.
    fn recv(&mut self, from: Rank, tag: Tag) -> Result<Message<A>, TransportError>;

    /// Traffic counters accumulated so far.
    fn stats(&self) -> TrafficStats;
}

/// In-process transport: one `mpsc` receiver per rank, senders to every
/// rank, and a pending buffer so out-of-order arrivals never block the
/// protocol.
pub struct ChannelEndpoint<A: Scalar = f64> {
    rank: Rank,
    senders: Vec<Sender<(Rank, Tag, Message<A>)>>,
    inbox: Receiver<(Rank, Tag, Message<A>)>,
    pending: HashMap<(Rank, Tag), VecDeque<Message<A>>>,
    stats: TrafficStats,
}

impl<A: Scalar> ChannelEndpoint<A> {
    /// A fully connected mesh of `ranks` endpoints (index = rank).
    ///
    /// Building the mesh *is* the channel backend's connection
    /// establishment, so each endpoint is pre-charged with the same
    /// handshake traffic the socket transport pays per link — one
    /// [`crate::wire::HELLO_FRAME_BYTES`] frame sent and one received per
    /// peer (`Hello` out, `HelloAck` back, or the mirror image). With the
    /// handshake counted identically, channel and TCP [`TrafficStats`]
    /// are directly comparable; the socket backend's extra control frames
    /// (plan distribution, pings, drain) are deployment-lifecycle traffic
    /// accounted on top.
    pub fn mesh(ranks: usize) -> Vec<ChannelEndpoint<A>> {
        let (senders, inboxes): (Vec<_>, Vec<_>) = (0..ranks).map(|_| channel()).unzip();
        inboxes
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| {
                let mut ep = ChannelEndpoint {
                    rank,
                    senders: senders.clone(),
                    inbox,
                    pending: HashMap::new(),
                    stats: TrafficStats::default(),
                };
                for _peer in 0..ranks - 1 {
                    ep.record_sent(crate::wire::HELLO_FRAME_BYTES);
                    ep.record_recv(crate::wire::HELLO_FRAME_BYTES);
                }
                ep
            })
            .collect()
    }

    fn record_sent(&mut self, bytes: u64) {
        self.stats.sent_messages += 1;
        self.stats.sent_bytes += bytes;
        h2_telemetry::counter_add!("dist.messages_sent", 1);
        h2_telemetry::counter_add!("dist.bytes_sent", bytes);
    }

    fn record_recv(&mut self, bytes: u64) {
        self.stats.recv_messages += 1;
        self.stats.recv_bytes += bytes;
        h2_telemetry::counter_add!("dist.messages_recv", 1);
        h2_telemetry::counter_add!("dist.bytes_recv", bytes);
    }
}

impl<A: Scalar> Transport<A> for ChannelEndpoint<A> {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn ranks(&self) -> usize {
        self.senders.len()
    }

    fn send(&mut self, to: Rank, tag: Tag, msg: Message<A>) -> Result<(), TransportError> {
        let bytes = msg.bytes();
        self.record_sent(bytes);
        self.senders[to]
            .send((self.rank, tag, msg))
            .map_err(|_| TransportError::Disconnected {
                peer: to,
                detail: "receiving endpoint dropped mid-protocol".into(),
            })
    }

    fn recv(&mut self, from: Rank, tag: Tag) -> Result<Message<A>, TransportError> {
        if let Some(queue) = self.pending.get_mut(&(from, tag)) {
            if let Some(msg) = queue.pop_front() {
                self.record_recv(msg.bytes());
                return Ok(msg);
            }
        }
        loop {
            let (src, t, msg) = self
                .inbox
                .recv()
                .map_err(|_| TransportError::Disconnected {
                    peer: from,
                    detail: "all senders dropped while a recv was outstanding".into(),
                })?;
            if src == from && t == tag {
                self.record_recv(msg.bytes());
                return Ok(msg);
            }
            self.pending.entry((src, t)).or_default().push_back(msg);
        }
    }

    fn stats(&self) -> TrafficStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panel(node: NodeId, len: usize) -> Panel {
        Panel {
            node,
            data: vec![node as f64; len],
        }
    }

    const H: u64 = crate::wire::FRAME_HEADER_BYTES as u64;

    #[test]
    fn wire_size_accounting() {
        let empty: Message = Message::default();
        assert_eq!(empty.bytes(), H);
        let m = Message::new(vec![panel(3, 4), panel(9, 0)]);
        assert_eq!(m.bytes(), H + (16 + 32) + 16);
    }

    #[test]
    fn f32_panels_halve_the_payload_bytes() {
        let m64 = Message::new(vec![panel(3, 10)]);
        let m32: Message<f32> = Message::new(vec![Panel {
            node: 3,
            data: vec![3.0f32; 10],
        }]);
        // Same framing (header + 16), half the coefficient payload.
        assert_eq!(m64.bytes(), H + 16 + 80);
        assert_eq!(m32.bytes(), H + 16 + 40);
    }

    #[test]
    fn mesh_precharges_the_handshake_per_link() {
        use crate::wire::HELLO_FRAME_BYTES;
        for ranks in [1, 2, 4] {
            for ep in ChannelEndpoint::<f64>::mesh(ranks) {
                let links = (ranks - 1) as u64;
                let expect = TrafficStats {
                    sent_messages: links,
                    sent_bytes: links * HELLO_FRAME_BYTES,
                    recv_messages: links,
                    recv_bytes: links * HELLO_FRAME_BYTES,
                };
                assert_eq!(ep.stats(), expect, "ranks = {ranks}");
            }
        }
    }

    #[test]
    fn mesh_delivers_and_counts() {
        let mut eps = ChannelEndpoint::<f64>::mesh(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        assert_eq!((a.rank(), b.rank(), a.ranks()), (0, 1, 2));
        let handshake = a.stats();
        let msg = Message::new(vec![panel(7, 3)]);
        let bytes = msg.bytes();
        a.send(1, Tag::HaloQ, msg.clone()).unwrap();
        assert_eq!(b.recv(0, Tag::HaloQ).unwrap(), msg);
        assert_eq!(a.stats().sent_messages, handshake.sent_messages + 1);
        assert_eq!(a.stats().sent_bytes, handshake.sent_bytes + bytes);
        assert_eq!(b.stats().recv_messages, handshake.recv_messages + 1);
        assert_eq!(b.stats().recv_bytes, handshake.recv_bytes + bytes);
    }

    #[test]
    fn out_of_order_arrivals_are_buffered() {
        let mut eps = ChannelEndpoint::<f64>::mesh(3);
        let mut c = eps.pop().unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        // Two senders, plus two tags from the same sender, all before any
        // recv; the receiver asks for them in the "wrong" order.
        let handshake = c.stats().recv_messages;
        a.send(2, Tag::HaloQ, Message::new(vec![panel(1, 1)]))
            .unwrap();
        a.send(2, Tag::HaloB, Message::new(vec![panel(2, 1)]))
            .unwrap();
        b.send(2, Tag::HaloQ, Message::new(vec![panel(3, 1)]))
            .unwrap();
        assert_eq!(c.recv(1, Tag::HaloQ).unwrap().panels[0].node, 3);
        assert_eq!(c.recv(0, Tag::HaloB).unwrap().panels[0].node, 2);
        assert_eq!(c.recv(0, Tag::HaloQ).unwrap().panels[0].node, 1);
        assert_eq!(c.stats().recv_messages, handshake + 3);
    }

    #[test]
    fn same_stream_preserves_order() {
        let mut eps = ChannelEndpoint::<f64>::mesh(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for k in 0..4 {
            a.send(1, Tag::Scatter, Message::new(vec![panel(k, 1)]))
                .unwrap();
        }
        for k in 0..4 {
            assert_eq!(b.recv(0, Tag::Scatter).unwrap().panels[0].node, k);
        }
    }

    #[test]
    fn dropped_peer_is_a_typed_error_not_a_panic() {
        let mut eps = ChannelEndpoint::<f64>::mesh(2);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        drop(b);
        let err = a.send(1, Tag::Scatter, Message::default()).unwrap_err();
        assert!(matches!(err, TransportError::Disconnected { peer: 1, .. }));
    }

    #[test]
    fn cross_thread_exchange() {
        let mut eps = ChannelEndpoint::<f32>::mesh(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let h = std::thread::spawn(move || {
            let got = b.recv(0, Tag::Scatter).unwrap();
            b.send(0, Tag::Result, got).unwrap();
        });
        let msg: Message<f32> = Message::new(vec![Panel {
            node: 5,
            data: vec![1.5f32, -2.5],
        }]);
        a.send(1, Tag::Scatter, msg).unwrap();
        assert_eq!(a.recv(1, Tag::Result).unwrap().panels[0].node, 5);
        h.join().unwrap();
    }
}
