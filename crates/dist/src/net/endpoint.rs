//! [`NetEndpoint`]: the socket-backed [`Transport`] implementation.
//!
//! One endpoint per rank, one TCP connection per peer. Frames are the
//! shared [`crate::wire`] format: a fixed header plus a panel (or
//! control) payload. Plain blocking sockets, no async runtime: one reader
//! thread per peer reads whole frames into the endpoint's single inbox,
//! and the thread that owns the endpoint is the only writer. Because every
//! socket always has a reader draining it, a blocking write always makes
//! progress, which is what lets the all-sends-then-receives sweep phases
//! run without send/recv deadlock. Every wait (`recv` of a specific
//! message, a plan, a span report, a pong, an event) is one loop,
//! `wait_for`, that routes arrivals off the inbox until it has what it
//! waits for.
//!
//! Failure detection is part of the reader: EOF, `ECONNRESET`, or a
//! protocol-violating frame ends it with a reason, as does a failed write
//! on the owning thread, and every subsequent operation on that peer
//! returns a typed [`TransportError`] — a lost worker surfaces within the
//! configured `io_timeout`, never as a hang.
//!
//! Handshakes run *before* a stream joins the endpoint (blocking, with
//! their own timeouts): `Hello` out, `HelloAck` back, verifying protocol
//! version, rank identity, rank-count agreement, and scalar code. Each
//! side of a completed handshake is charged one sent and one received
//! [`wire::HELLO_FRAME_BYTES`] frame — the same pre-charge the channel
//! mesh applies, so [`TrafficStats`] reconcile across backends.

use super::config::NetConfig;
use super::error::NetError;
use crate::wire::{
    self, FrameHeader, FrameKind, Hello, PlanSpec, TelemetryMsg, FRAME_HEADER_BYTES,
};
use crate::{Message, Rank, Tag, TrafficStats, Transport, TransportError};
use h2_linalg::Scalar;
use h2_telemetry::SpanRecord;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest payload a peer may announce (1 GiB); anything bigger is a
/// protocol violation, not an allocation attempt.
const MAX_PAYLOAD: u32 = 1 << 30;

/// Backoff after a failed connection attempt: starts at the base and
/// doubles per attempt up to the cap.
const BACKOFF_BASE: Duration = Duration::from_millis(10);
const BACKOFF_MAX: Duration = Duration::from_millis(500);

/// A received `Data` frame, decoded lazily at `recv` so the endpoint
/// itself stays non-generic over the coefficient scalar.
struct RawData {
    scalar: u8,
    panels: u32,
    payload: Vec<u8>,
}

/// What a reader thread hands the owning thread: a whole frame, or why
/// its link ended. A reader's frames precede its death in the inbox.
enum Arrival {
    Frame(FrameHeader, Vec<u8>),
    Dead(String),
}

struct Peer {
    stream: TcpStream,
    reader: JoinHandle<()>,
    /// Why the link ended; `None` while it is usable.
    dead: Option<String>,
}

/// What [`NetEndpoint::wait_event`] woke up for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A sweep's first message (`Scatter`) is queued from the watched
    /// rank: run the shard side of the protocol now.
    SweepReady,
    /// The watched rank asked this endpoint to drain and exit.
    Drained,
}

/// The socket-backed transport endpoint of one rank.
///
/// Non-generic over the coefficient scalar: received `Data` frames are
/// held raw and decoded at [`Transport::recv`], verifying the scalar code
/// then — so one endpoint serves whichever accumulator precision the plan
/// selects.
pub struct NetEndpoint {
    rank: Rank,
    ranks: usize,
    cfg: NetConfig,
    peers: Vec<Option<Peer>>,
    inbox: Receiver<(Rank, Arrival)>,
    /// Cloned into each reader; held here so the inbox never disconnects.
    sender: Sender<(Rank, Arrival)>,
    pending: HashMap<(Rank, u8), VecDeque<RawData>>,
    plans: VecDeque<(Rank, PlanSpec)>,
    drain_from: Vec<bool>,
    pongs: Vec<u64>,
    stats: TrafficStats,
    /// Latest trace context received ([`TelemetryMsg::TraceCtx`]); taken
    /// by the worker when a sweep opens.
    trace_ctx: Option<u64>,
    /// Span reports received from each peer, in arrival order: the
    /// `(rank, offset_ns, spans)` of each [`TelemetryMsg::SpanReport`].
    reports: HashMap<Rank, VecDeque<(u32, i64, Vec<SpanRecord>)>>,
}

impl NetEndpoint {
    /// An endpoint for `rank` of `ranks`, with no peers connected yet.
    pub fn new(rank: Rank, ranks: usize, cfg: NetConfig) -> Self {
        let (sender, inbox) = channel();
        NetEndpoint {
            rank,
            ranks,
            cfg,
            peers: (0..ranks).map(|_| None).collect(),
            inbox,
            sender,
            pending: HashMap::new(),
            plans: VecDeque::new(),
            drain_from: vec![false; ranks],
            pongs: vec![0; ranks],
            stats: TrafficStats::default(),
            trace_ctx: None,
            reports: HashMap::new(),
        }
    }

    /// The endpoint's config.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Traffic counters so far (same numbers as [`Transport::stats`]).
    pub fn traffic(&self) -> TrafficStats {
        self.stats
    }

    /// Adopts a freshly handshaken stream as the connection to `peer`:
    /// bounds its writes by the `io_timeout`, starts its reader thread, and
    /// charges both directions of the completed handshake to the traffic
    /// stats.
    pub fn add_peer(&mut self, peer: Rank, stream: TcpStream) -> Result<(), NetError> {
        let addr = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        let fail = |detail: String| NetError::Handshake {
            addr: addr.clone(),
            detail,
        };
        if self.peers[peer].is_some() {
            return Err(fail(format!("rank {peer} connected twice")));
        }
        // The sweep protocol is latency-bound on small panel frames.
        stream.set_nodelay(true).ok();
        let read_half = stream
            .set_write_timeout(Some(self.cfg.io_timeout))
            .and_then(|_| stream.try_clone())
            .map_err(|e| fail(format!("could not set up the stream: {e}")))?;
        let (me, sender) = (self.rank, self.sender.clone());
        let reader = std::thread::Builder::new()
            .name(format!("h2-net-read-{peer}"))
            .spawn(move || read_frames(read_half, peer, me, sender))
            .map_err(|e| fail(format!("could not start the reader: {e}")))?;
        // One Hello-sized frame each way per completed handshake — the
        // identical accounting `ChannelEndpoint::mesh` pre-charges.
        self.record_sent(wire::HELLO_FRAME_BYTES);
        self.record_recv(wire::HELLO_FRAME_BYTES);
        self.peers[peer] = Some(Peer {
            stream,
            reader,
            dead: None,
        });
        Ok(())
    }

    /// True while the connection to `peer` is usable.
    pub fn peer_alive(&self, peer: Rank) -> bool {
        matches!(&self.peers[peer], Some(p) if p.dead.is_none())
    }

    fn record_sent(&mut self, bytes: u64) {
        self.stats.sent_messages += 1;
        self.stats.sent_bytes += bytes;
        h2_telemetry::counter_add!("net.frames", 1);
        h2_telemetry::counter_add!("net.bytes_sent", bytes);
    }

    fn record_recv(&mut self, bytes: u64) {
        self.stats.recv_messages += 1;
        self.stats.recv_bytes += bytes;
        h2_telemetry::counter_add!("net.frames", 1);
        h2_telemetry::counter_add!("net.bytes_recv", bytes);
    }

    fn dead_err(&self, peer: Rank) -> TransportError {
        TransportError::Disconnected {
            peer,
            detail: match &self.peers[peer] {
                Some(p) => p.dead.clone().unwrap_or_default(),
                None => "never connected".into(),
            },
        }
    }

    fn deadline_err(&self, peer: Rank, what: impl Into<String>) -> TransportError {
        TransportError::Timeout {
            peer,
            waiting_for: what.into(),
            after_ms: self.cfg.io_timeout.as_millis() as u64,
        }
    }

    /// Marks `peer` dead; the first reason sticks.
    fn kill(&mut self, peer: Rank, reason: impl Into<String>) {
        if let Some(p) = self.peers[peer].as_mut() {
            p.dead.get_or_insert_with(|| reason.into());
        }
    }

    /// Writes one whole frame to `peer`; when this returns, the frame is
    /// in the socket. A failed write marks the peer dead, and so does one
    /// that times out: a partial frame has desynchronised the stream.
    fn write_frame(&mut self, peer: Rank, frame: &[u8]) -> Result<(), TransportError> {
        let Some(p) = self.peers[peer].as_mut().filter(|p| p.dead.is_none()) else {
            return Err(self.dead_err(peer));
        };
        let Err(e) = p.stream.write_all(frame) else {
            return Ok(());
        };
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            self.kill(peer, "write timed out");
            return Err(self.deadline_err(peer, "the peer to take a frame"));
        }
        self.kill(peer, format!("write failed: {e}"));
        Err(self.dead_err(peer))
    }

    /// Sends a telemetry sideband message to `peer`. Never counted in the
    /// sweep [`TrafficStats`] (only on `net.trace_frames` /
    /// `net.trace_bytes`), so tracing cannot perturb the transport's
    /// byte-for-byte accounting parity with the channel mesh.
    pub fn send_telemetry(&mut self, peer: Rank, msg: &TelemetryMsg) -> Result<(), TransportError> {
        let frame = wire::control_frame(FrameKind::Telemetry, self.rank, peer, &msg.encode());
        h2_telemetry::counter_add!("net.trace_frames", 1);
        h2_telemetry::counter_add!("net.trace_bytes", frame.len() as u64);
        self.write_frame(peer, &frame)
    }

    /// Takes the most recently received trace context, if any. The
    /// coordinator sends the context before the sweep's `Scatter` on the
    /// same ordered stream, so when a sweep opens the matching context has
    /// already been routed.
    pub fn take_trace_ctx(&mut self) -> Option<u64> {
        self.trace_ctx.take()
    }

    /// Waits for the next span report from `peer`: the `(rank, offset_ns,
    /// spans)` its [`TelemetryMsg::SpanReport`] carried.
    pub fn recv_span_report(
        &mut self,
        peer: Rank,
    ) -> Result<(u32, i64, Vec<SpanRecord>), TransportError> {
        self.wait_for(peer, "span report", Some(self.cfg.io_timeout), |ep| {
            ep.reports.get_mut(&peer).and_then(|q| q.pop_front())
        })
    }

    /// Sends a control frame (Plan, Ping, Drain …) to `peer`.
    pub fn send_control(
        &mut self,
        peer: Rank,
        kind: FrameKind,
        payload: &[u8],
    ) -> Result<(), TransportError> {
        let frame = wire::control_frame(kind, self.rank, peer, payload);
        self.write_frame(peer, &frame)?;
        self.record_sent(frame.len() as u64);
        Ok(())
    }

    /// Routes one arrival: a frame to its queue, a death to its peer.
    /// Frames from a peer already dead (of a protocol violation or a
    /// failed write) are dropped.
    fn arrive(&mut self, (peer, arrival): (Rank, Arrival)) {
        let (header, payload) = match arrival {
            Arrival::Dead(reason) => return self.kill(peer, reason),
            Arrival::Frame(..) if !self.peer_alive(peer) => return,
            Arrival::Frame(header, payload) => (header, payload),
        };
        let frame_bytes = (FRAME_HEADER_BYTES + payload.len()) as u64;
        if header.kind == FrameKind::Telemetry {
            // The observability sideband deliberately bypasses the sweep
            // traffic stats — modeled (channel) and physical (socket)
            // accounting must stay byte-for-byte comparable. It is counted
            // on its own telemetry counters instead.
            h2_telemetry::counter_add!("net.trace_frames", 1);
            h2_telemetry::counter_add!("net.trace_bytes", frame_bytes);
            match TelemetryMsg::decode(&payload) {
                Ok(TelemetryMsg::TraceCtx(trace)) => self.trace_ctx = Some(trace),
                Ok(TelemetryMsg::SpanReport {
                    rank,
                    offset_ns,
                    spans,
                }) => self
                    .reports
                    .entry(peer)
                    .or_default()
                    .push_back((rank, offset_ns, spans)),
                Err(e) => self.kill(peer, format!("malformed telemetry payload: {e}")),
            }
            return;
        }
        self.record_recv(frame_bytes);
        match header.kind {
            FrameKind::Data => {
                self.pending
                    .entry((peer, header.tag))
                    .or_default()
                    .push_back(RawData {
                        scalar: header.scalar,
                        panels: header.panels,
                        payload,
                    });
            }
            FrameKind::Ping => {
                // Answered inline by whichever wait routed it, so a worker
                // blocked in wait_event still looks alive and the owning
                // thread stays the only writer.
                let _ = self.send_control(peer, FrameKind::Pong, &[]);
            }
            FrameKind::Pong => self.pongs[peer] += 1,
            FrameKind::Plan => match PlanSpec::decode(&payload) {
                Ok(spec) => self.plans.push_back((peer, spec)),
                Err(e) => self.kill(peer, format!("malformed plan: {e}")),
            },
            FrameKind::Drain => self.drain_from[peer] = true,
            FrameKind::Hello | FrameKind::HelloAck => {
                self.kill(peer, "handshake frame after the handshake completed")
            }
            FrameKind::Telemetry => unreachable!("handled before the sweep-traffic accounting"),
        }
    }

    /// The one wait: routes arrivals until `pick` yields a value, `peer`
    /// is dead, or `timeout` (none: wait for as long as the peer lives)
    /// runs out. `pick` sees every frame that arrived before a death.
    fn wait_for<T>(
        &mut self,
        peer: Rank,
        what: &str,
        timeout: Option<Duration>,
        mut pick: impl FnMut(&mut Self) -> Option<T>,
    ) -> Result<T, TransportError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(v) = pick(self) {
                return Ok(v);
            }
            if !self.peer_alive(peer) {
                return Err(self.dead_err(peer));
            }
            let left = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(Instant::now())
            });
            let arrival = self
                .inbox
                .recv_timeout(left)
                .map_err(|_| self.deadline_err(peer, what))?;
            self.arrive(arrival);
        }
    }

    /// Waits for the next plan frame from `peer`.
    pub fn recv_plan(&mut self, peer: Rank) -> Result<PlanSpec, TransportError> {
        self.wait_for(peer, "partition plan", Some(self.cfg.io_timeout), |ep| {
            let front = ep.plans.front()?;
            if front.0 == peer {
                ep.plans.pop_front().map(|(_, spec)| spec)
            } else {
                None
            }
        })
    }

    /// Waits until `peer` either opens a sweep (a `Scatter` data frame is
    /// queued) or asks this endpoint to drain. The idle serve-loop
    /// posture: no deadline, only a frame or the peer's death ends it.
    pub fn wait_event(&mut self, peer: Rank) -> Result<Event, TransportError> {
        let scatter = wire::tag_code(Tag::Scatter);
        self.wait_for(peer, "sweep or drain", None, |ep| {
            if std::mem::take(&mut ep.drain_from[peer]) {
                return Some(Event::Drained);
            }
            ep.pending
                .get(&(peer, scatter))
                .is_some_and(|q| !q.is_empty())
                .then_some(Event::SweepReady)
        })
    }

    /// Round-trip liveness probe: sends a `Ping`, waits for the `Pong`.
    /// Returns the round-trip time.
    pub fn ping(&mut self, peer: Rank) -> Result<Duration, TransportError> {
        let before = self.pongs[peer];
        let start = Instant::now();
        self.send_control(peer, FrameKind::Ping, &[])?;
        self.wait_for(peer, "pong", Some(self.cfg.io_timeout), |ep| {
            (ep.pongs[peer] > before).then(|| start.elapsed())
        })
    }

    /// Asks `peer` to finish outstanding work and exit, without waiting.
    pub fn send_drain(&mut self, peer: Rank) -> Result<(), TransportError> {
        self.send_control(peer, FrameKind::Drain, &[])
    }
}

impl Drop for NetEndpoint {
    /// Shuts every stream down, which ends its reader, and joins it.
    fn drop(&mut self) {
        for p in self.peers.drain(..).flatten() {
            let _ = p.stream.shutdown(Shutdown::Both);
            let _ = p.reader.join();
        }
    }
}

impl<A: Scalar> Transport<A> for NetEndpoint {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn ranks(&self) -> usize {
        self.ranks
    }

    fn send(&mut self, to: Rank, tag: Tag, msg: Message<A>) -> Result<(), TransportError> {
        let frame = wire::data_frame(self.rank, to, tag, &msg);
        debug_assert_eq!(frame.len() as u64, msg.bytes());
        self.write_frame(to, &frame)?;
        self.record_sent(frame.len() as u64);
        Ok(())
    }

    fn recv(&mut self, from: Rank, tag: Tag) -> Result<Message<A>, TransportError> {
        let key = (from, wire::tag_code(tag));
        let what = format!("{tag:?} message");
        let raw = self.wait_for(from, &what, Some(self.cfg.io_timeout), |ep| {
            ep.pending.get_mut(&key).and_then(|q| q.pop_front())
        })?;
        wire::decode_message::<A>(raw.scalar, raw.panels, &raw.payload).map_err(|e| {
            TransportError::Protocol {
                detail: format!("data frame from rank {from}: {e}"),
            }
        })
    }

    fn stats(&self) -> TrafficStats {
        self.stats
    }
}

/// One peer's reader thread: whole frames from `peer` into the inbox, in
/// arrival order, then the reason the link ended. Records no telemetry:
/// the owning thread counts each frame as it routes it.
fn read_frames(mut stream: TcpStream, peer: Rank, me: Rank, inbox: Sender<(Rank, Arrival)>) {
    let reason = loop {
        match read_frame(&mut stream, peer, me) {
            Ok((header, payload)) => {
                if inbox.send((peer, Arrival::Frame(header, payload))).is_err() {
                    return; // the endpoint is gone
                }
            }
            Err(reason) => break reason,
        }
    };
    let _ = inbox.send((peer, Arrival::Dead(reason)));
}

/// Reads one frame, validating its header before any payload byte: the
/// payload grows with the bytes that actually arrive, so a header that
/// announces a gigabyte and then closes costs what it delivered.
fn read_frame(
    stream: &mut TcpStream,
    peer: Rank,
    me: Rank,
) -> Result<(FrameHeader, Vec<u8>), String> {
    let read_err = |e: std::io::Error| match e.kind() {
        ErrorKind::UnexpectedEof => "connection closed by peer".to_string(),
        _ => format!("read failed: {e}"),
    };
    let mut head = [0u8; FRAME_HEADER_BYTES];
    stream.read_exact(&mut head).map_err(read_err)?;
    let header = FrameHeader::decode(&head).map_err(|e| format!("malformed frame header: {e}"))?;
    if header.payload_len > MAX_PAYLOAD {
        return Err(format!(
            "frame announces an absurd payload of {} bytes",
            header.payload_len
        ));
    }
    if header.src as usize != peer || header.dst as usize != me {
        return Err(format!(
            "frame routed {} -> {} arrived on the link {} -> {}",
            header.src, header.dst, peer, me
        ));
    }
    let len = header.payload_len as usize;
    let mut payload = Vec::with_capacity(len.min(1 << 20));
    stream
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(read_err)?;
    if payload.len() < len {
        return Err("connection closed by peer".into());
    }
    Ok((header, payload))
}

// ---------------------------------------------------------------------
// Connection establishment and handshakes (blocking, pre-endpoint).
// ---------------------------------------------------------------------

fn io_handshake_err(addr: &SocketAddr, e: std::io::Error) -> NetError {
    NetError::Handshake {
        addr: addr.to_string(),
        detail: if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            "timed out".into()
        } else {
            e.to_string()
        },
    }
}

/// Writes one whole frame in blocking mode under the handshake timeout.
fn write_frame_blocking(
    stream: &mut TcpStream,
    addr: &SocketAddr,
    frame: &[u8],
) -> Result<(), NetError> {
    stream
        .write_all(frame)
        .and_then(|_| stream.flush())
        .map_err(|e| io_handshake_err(addr, e))
}

/// Reads one whole handshake frame (header + payload) in blocking mode.
fn read_frame_blocking(
    stream: &mut TcpStream,
    addr: &SocketAddr,
) -> Result<(FrameHeader, Vec<u8>), NetError> {
    let mut head = [0u8; FRAME_HEADER_BYTES];
    stream
        .read_exact(&mut head)
        .map_err(|e| io_handshake_err(addr, e))?;
    let header = FrameHeader::decode(&head).map_err(|e| NetError::Handshake {
        addr: addr.to_string(),
        detail: e.to_string(),
    })?;
    if header.payload_len > wire::HELLO_PAYLOAD_BYTES as u32 * 4 {
        return Err(NetError::Handshake {
            addr: addr.to_string(),
            detail: format!("oversized handshake payload ({} bytes)", header.payload_len),
        });
    }
    let mut payload = vec![0u8; header.payload_len as usize];
    stream
        .read_exact(&mut payload)
        .map_err(|e| io_handshake_err(addr, e))?;
    Ok((header, payload))
}

/// What the initiating side of a handshake requires of the peer's reply.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// The exact rank the peer must identify as, if known in advance.
    pub rank: Option<Rank>,
    /// The rank count both sides must agree on.
    pub ranks: usize,
    /// The scalar code both sides must agree on (the *storage* scalar of
    /// the shared operator).
    pub scalar: u8,
}

fn verify_hello(addr: &SocketAddr, got: &Hello, expect: &Expect) -> Result<(), NetError> {
    let fail = |detail: String| {
        Err(NetError::Handshake {
            addr: addr.to_string(),
            detail,
        })
    };
    if got.version != wire::PROTOCOL_VERSION {
        return fail(format!(
            "protocol version {} != ours {}",
            got.version,
            wire::PROTOCOL_VERSION
        ));
    }
    if got.ranks as usize != expect.ranks {
        return fail(format!(
            "peer believes in {} ranks, we in {}",
            got.ranks, expect.ranks
        ));
    }
    if got.scalar != expect.scalar {
        return fail(format!(
            "peer serves scalar code {}, we serve {}",
            got.scalar, expect.scalar
        ));
    }
    if let Some(r) = expect.rank {
        if got.rank as usize != r {
            return fail(format!(
                "peer identifies as rank {}, expected {r}",
                got.rank
            ));
        }
    }
    if got.rank as usize >= expect.ranks {
        return fail(format!(
            "peer rank {} out of range for {} ranks",
            got.rank, expect.ranks
        ));
    }
    Ok(())
}

/// A successfully dialed and handshaken connection.
#[derive(Debug)]
pub struct Dialed {
    /// The peer's verified identity (its `HelloAck`).
    pub peer: Hello,
    /// The connected stream, still in blocking mode.
    pub stream: TcpStream,
    /// NTP-style estimate of `peer_clock − my_clock` in ns, where both
    /// clocks are the processes' telemetry epochs ([`h2_telemetry::now_ns`]).
    /// The dialer reads its clock immediately before sending the `Hello`
    /// (`t1`) and after receiving the ack (`t2`); the responder stamps its
    /// clock into the ack (`tp`). Assuming a symmetric path, the
    /// responder's stamp corresponds to the midpoint:
    /// `offset = tp − (t1 + t2)/2`, accurate to half the handshake round
    /// trip. Adding the offset to a peer timestamp expresses it on the
    /// dialer's clock, and vice versa by subtraction.
    pub clock_offset_ns: i64,
}

/// Dials `addr` with bounded exponential backoff inside
/// `cfg.connect_timeout`, then runs the initiating side of the handshake:
/// send `my` Hello (its `now_ns` re-stamped at send time), verify the
/// `HelloAck` against `expect`. Returns the verified peer identity, the
/// connected (still blocking) stream, and the estimated clock offset to
/// the peer. Retried connection attempts are counted on the
/// `net.reconnects` telemetry counter.
pub fn connect_handshake(
    addr: &str,
    mut my: Hello,
    expect: Expect,
    cfg: &NetConfig,
) -> Result<Dialed, NetError> {
    let sock: SocketAddr = addr.parse().map_err(|e| NetError::Connect {
        addr: addr.into(),
        attempts: 0,
        detail: format!("unparseable address: {e}"),
    })?;
    let deadline = Instant::now() + cfg.connect_timeout;
    let mut attempts = 0u32;
    let mut backoff = BACKOFF_BASE;
    let mut stream = loop {
        attempts += 1;
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(NetError::Connect {
                addr: addr.into(),
                attempts,
                detail: "connect budget exhausted".into(),
            });
        }
        match TcpStream::connect_timeout(&sock, remaining.min(Duration::from_secs(1))) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() + backoff >= deadline {
                    return Err(NetError::Connect {
                        addr: addr.into(),
                        attempts,
                        detail: e.to_string(),
                    });
                }
                h2_telemetry::counter_add!("net.reconnects", 1);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_MAX);
            }
        }
    };
    stream
        .set_read_timeout(Some(cfg.handshake_timeout))
        .and_then(|_| stream.set_write_timeout(Some(cfg.handshake_timeout)))
        .map_err(|e| io_handshake_err(&sock, e))?;
    let t1 = h2_telemetry::now_ns();
    my.now_ns = t1;
    let frame = wire::control_frame(
        FrameKind::Hello,
        my.rank as Rank,
        expect.rank.unwrap_or(usize::MAX & 0xFFFF_FFFF),
        &my.encode(),
    );
    write_frame_blocking(&mut stream, &sock, &frame)?;
    let (header, payload) = read_frame_blocking(&mut stream, &sock)?;
    let t2 = h2_telemetry::now_ns();
    if header.kind != FrameKind::HelloAck {
        return Err(NetError::Handshake {
            addr: addr.into(),
            detail: format!("expected HelloAck, got {:?}", header.kind),
        });
    }
    let ack = Hello::decode(&payload).map_err(|e| NetError::Handshake {
        addr: addr.into(),
        detail: e.to_string(),
    })?;
    verify_hello(&sock, &ack, &expect)?;
    stream
        .set_read_timeout(None)
        .and_then(|_| stream.set_write_timeout(None))
        .map_err(|e| io_handshake_err(&sock, e))?;
    let midpoint = ((t1 as u128 + t2 as u128) / 2) as u64;
    let clock_offset_ns = ack.now_ns as i64 - midpoint as i64;
    Ok(Dialed {
        peer: ack,
        stream,
        clock_offset_ns,
    })
}

/// Accepts one connection on `listener` (which must be non-blocking) and
/// runs the responding side of the handshake: read the peer's `Hello`,
/// verify it against `expect` plus the caller's `extra` check (uniqueness,
/// rank-range ownership …), answer with `my` as the `HelloAck` (its
/// `now_ns` re-stamped at ack time so the dialer can estimate the clock
/// offset). Waits at most until `deadline`.
pub fn accept_handshake(
    listener: &TcpListener,
    deadline: Instant,
    mut my: Hello,
    expect: Expect,
    extra: &mut dyn FnMut(&Hello) -> Result<(), String>,
) -> Result<(Hello, TcpStream), NetError> {
    let local = listener.local_addr().map_err(|e| NetError::Handshake {
        addr: "<listener>".into(),
        detail: e.to_string(),
    })?;
    loop {
        match listener.accept() {
            Ok((mut stream, peer_addr)) => {
                let cfg_timeout = deadline.saturating_duration_since(Instant::now());
                let timeout = cfg_timeout.max(Duration::from_millis(10));
                stream
                    .set_read_timeout(Some(timeout))
                    .and_then(|_| stream.set_write_timeout(Some(timeout)))
                    .map_err(|e| io_handshake_err(&peer_addr, e))?;
                let (header, payload) = read_frame_blocking(&mut stream, &peer_addr)?;
                if header.kind != FrameKind::Hello {
                    return Err(NetError::Handshake {
                        addr: peer_addr.to_string(),
                        detail: format!("expected Hello, got {:?}", header.kind),
                    });
                }
                let hello = Hello::decode(&payload).map_err(|e| NetError::Handshake {
                    addr: peer_addr.to_string(),
                    detail: e.to_string(),
                })?;
                verify_hello(&peer_addr, &hello, &expect)?;
                extra(&hello).map_err(|detail| NetError::Handshake {
                    addr: peer_addr.to_string(),
                    detail,
                })?;
                my.now_ns = h2_telemetry::now_ns();
                let ack = wire::control_frame(
                    FrameKind::HelloAck,
                    my.rank as Rank,
                    hello.rank as Rank,
                    &my.encode(),
                );
                write_frame_blocking(&mut stream, &peer_addr, &ack)?;
                stream
                    .set_read_timeout(None)
                    .and_then(|_| stream.set_write_timeout(None))
                    .map_err(|e| io_handshake_err(&peer_addr, e))?;
                return Ok((hello, stream));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(NetError::Handshake {
                        addr: local.to_string(),
                        detail: "no peer connected before the deadline".into(),
                    });
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                return Err(NetError::Handshake {
                    addr: local.to_string(),
                    detail: format!("accept failed: {e}"),
                })
            }
        }
    }
}
