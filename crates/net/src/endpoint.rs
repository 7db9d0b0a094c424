//! [`NetEndpoint`]: the socket-backed [`Transport`] implementation.
//!
//! One endpoint per rank, one TCP connection per peer. Frames are the
//! shared [`h2_dist::wire`] format: a fixed header plus a panel (or
//! control) payload. The event loop is readiness-driven over plain
//! non-blocking sockets — no async runtime: every blocking operation
//! (`recv` of a specific message, a full flush, waiting for an event)
//! repeatedly [`pump`](NetEndpoint::pump)s all peers — flushing pending
//! writes, draining readable bytes, parsing complete frames into per-
//! `(rank, tag)` queues — and sleeps briefly between rounds until its
//! deadline expires. Sends never block: frames are appended to a per-peer
//! out-buffer and written opportunistically, which is what lets the
//! all-sends-then-receives sweep phases run without send/recv deadlock.
//!
//! Failure detection is part of the loop: EOF, `ECONNRESET`/`EPIPE`, or a
//! protocol-violating frame marks the peer dead with a reason, and every
//! subsequent operation on it returns a typed [`TransportError`] — a lost
//! worker surfaces within the configured `io_timeout`, never as a hang.
//!
//! Handshakes run *before* a stream joins the endpoint (blocking, with
//! their own timeouts): `Hello` out, `HelloAck` back, verifying protocol
//! version, rank identity, rank-count agreement, and scalar code. Each
//! side of a completed handshake is charged one sent and one received
//! [`wire::HELLO_FRAME_BYTES`] frame — the same pre-charge the channel
//! mesh applies, so [`TrafficStats`] reconcile across backends.

use crate::config::NetConfig;
use crate::error::NetError;
use h2_dist::wire::{
    self, FrameHeader, FrameKind, Hello, PlanSpec, TelemetryMsg, FRAME_HEADER_BYTES,
};
use h2_dist::{Message, Rank, Tag, TrafficStats, Transport, TransportError};
use h2_linalg::Scalar;
use h2_telemetry::SpanRecord;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Largest payload a peer may announce (1 GiB); anything bigger is a
/// protocol violation, not an allocation attempt.
const MAX_PAYLOAD: u32 = 1 << 30;

/// How long the pump sleeps when no peer had bytes ready.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

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

struct Peer {
    stream: TcpStream,
    /// Bytes queued for writing, from `out_pos` on.
    out: Vec<u8>,
    out_pos: usize,
    /// Bytes read but not yet parsed into frames, from `in_pos` on.
    inb: Vec<u8>,
    in_pos: usize,
    alive: bool,
    dead_reason: String,
}

impl Peer {
    fn new(stream: TcpStream) -> Self {
        Peer {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inb: Vec::new(),
            in_pos: 0,
            alive: true,
            dead_reason: String::new(),
        }
    }

    fn die(&mut self, reason: impl Into<String>) {
        if self.alive {
            self.alive = false;
            self.dead_reason = reason.into();
        }
    }
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
        NetEndpoint {
            rank,
            ranks,
            cfg,
            peers: (0..ranks).map(|_| None).collect(),
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

    /// Adopts a freshly handshaken stream as the connection to `peer`,
    /// switching it to non-blocking mode and charging both directions of
    /// the completed handshake to the traffic stats.
    pub fn add_peer(&mut self, peer: Rank, stream: TcpStream) -> Result<(), NetError> {
        let addr = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        if self.peers[peer].is_some() {
            return Err(NetError::Handshake {
                addr,
                detail: format!("rank {peer} connected twice"),
            });
        }
        // The sweep protocol is latency-bound on small panel frames.
        stream.set_nodelay(true).ok();
        stream
            .set_nonblocking(true)
            .map_err(|e| NetError::Handshake {
                addr,
                detail: format!("could not switch to non-blocking mode: {e}"),
            })?;
        // One Hello-sized frame each way per completed handshake — the
        // identical accounting `ChannelEndpoint::mesh` pre-charges.
        self.record_sent(wire::HELLO_FRAME_BYTES);
        self.record_recv(wire::HELLO_FRAME_BYTES);
        self.peers[peer] = Some(Peer::new(stream));
        Ok(())
    }

    /// True while the connection to `peer` is usable.
    pub fn peer_alive(&self, peer: Rank) -> bool {
        matches!(&self.peers[peer], Some(p) if p.alive)
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

    fn peer_mut(&mut self, peer: Rank) -> Result<&mut Peer, TransportError> {
        match &self.peers[peer] {
            Some(p) if p.alive => {}
            Some(p) => {
                return Err(TransportError::Disconnected {
                    peer,
                    detail: p.dead_reason.clone(),
                })
            }
            None => {
                return Err(TransportError::Disconnected {
                    peer,
                    detail: "never connected".into(),
                })
            }
        }
        Ok(self.peers[peer].as_mut().expect("checked above"))
    }

    /// Appends a pre-built frame to `peer`'s out-buffer and counts it.
    fn enqueue_frame(&mut self, peer: Rank, frame: Vec<u8>) -> Result<(), TransportError> {
        let len = frame.len() as u64;
        self.peer_mut(peer)?.out.extend_from_slice(&frame);
        self.record_sent(len);
        // Opportunistic write so small control frames leave immediately.
        self.pump_writes(peer);
        Ok(())
    }

    /// Sends a telemetry sideband message to `peer`. Never counted in the
    /// sweep [`TrafficStats`] (only on `net.trace_frames` /
    /// `net.trace_bytes`), so tracing cannot perturb the transport's
    /// byte-for-byte accounting parity with the channel mesh.
    pub fn send_telemetry(&mut self, peer: Rank, msg: &TelemetryMsg) -> Result<(), TransportError> {
        let frame = wire::control_frame(FrameKind::Telemetry, self.rank, peer, &msg.encode());
        h2_telemetry::counter_add!("net.trace_frames", 1);
        h2_telemetry::counter_add!("net.trace_bytes", frame.len() as u64);
        self.peer_mut(peer)?.out.extend_from_slice(&frame);
        self.pump_writes(peer);
        Ok(())
    }

    /// Takes the most recently received trace context, if any. The
    /// coordinator sends the context before the sweep's `Scatter` on the
    /// same ordered stream, so when a sweep opens the matching context has
    /// already been dispatched.
    pub fn take_trace_ctx(&mut self) -> Option<u64> {
        self.trace_ctx.take()
    }

    /// Waits for the next span report from `peer`: the `(rank, offset_ns,
    /// spans)` its [`TelemetryMsg::SpanReport`] carried.
    pub fn recv_span_report(
        &mut self,
        peer: Rank,
    ) -> Result<(u32, i64, Vec<SpanRecord>), TransportError> {
        self.pump_until(peer, "span report", |ep| {
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
        self.enqueue_frame(peer, frame)
    }

    /// Flushes this peer's out-buffer as far as the socket accepts.
    fn pump_writes(&mut self, peer: Rank) {
        let Some(p) = self.peers[peer].as_mut() else {
            return;
        };
        if !p.alive {
            return;
        }
        while p.out_pos < p.out.len() {
            match p.stream.write(&p.out[p.out_pos..]) {
                Ok(0) => {
                    p.die("write returned 0 (connection closed)");
                    break;
                }
                Ok(n) => p.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    p.die(format!("write failed: {e}"));
                    break;
                }
            }
        }
        if p.out_pos == p.out.len() && !p.out.is_empty() {
            p.out.clear();
            p.out_pos = 0;
        } else if p.out_pos > 1 << 20 {
            p.out.drain(..p.out_pos);
            p.out_pos = 0;
        }
    }

    /// Reads whatever `peer` has ready and parses complete frames.
    fn pump_reads(&mut self, peer: Rank) {
        let Some(p) = self.peers[peer].as_mut() else {
            return;
        };
        if !p.alive {
            return;
        }
        let mut buf = [0u8; 64 * 1024];
        loop {
            match p.stream.read(&mut buf) {
                Ok(0) => {
                    p.die("connection closed by peer");
                    break;
                }
                Ok(n) => p.inb.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    p.die(format!("read failed: {e}"));
                    break;
                }
            }
        }
        self.parse_frames(peer);
    }

    /// Parses every complete frame in `peer`'s in-buffer and dispatches it.
    ///
    /// Deliberately keeps parsing a peer that just died of EOF: the final
    /// frames before the FIN (a `Drain`, the last sweep panels) arrived
    /// intact and must be delivered. Only a death caused *by* parsing (a
    /// malformed header, a protocol violation) stops the loop.
    fn parse_frames(&mut self, peer: Rank) {
        loop {
            let (header, payload) = {
                let Some(p) = self.peers[peer].as_mut() else {
                    return;
                };
                let avail = p.inb.len() - p.in_pos;
                if avail < FRAME_HEADER_BYTES {
                    break;
                }
                let header =
                    match FrameHeader::decode(&p.inb[p.in_pos..p.in_pos + FRAME_HEADER_BYTES]) {
                        Ok(h) => h,
                        Err(e) => {
                            p.die(format!("malformed frame header: {e}"));
                            return;
                        }
                    };
                if header.payload_len > MAX_PAYLOAD {
                    p.die(format!(
                        "frame announces an absurd payload of {} bytes",
                        header.payload_len
                    ));
                    return;
                }
                let total = FRAME_HEADER_BYTES + header.payload_len as usize;
                if avail < total {
                    break;
                }
                let payload = p.inb[p.in_pos + FRAME_HEADER_BYTES..p.in_pos + total].to_vec();
                p.in_pos += total;
                if p.in_pos > 1 << 20 {
                    p.inb.drain(..p.in_pos);
                    p.in_pos = 0;
                }
                (header, payload)
            };
            let alive_before = self.peers[peer].as_ref().is_some_and(|p| p.alive);
            self.dispatch(peer, header, payload);
            let alive_after = self.peers[peer].as_ref().is_some_and(|p| p.alive);
            if alive_before && !alive_after {
                return; // dispatch found a protocol violation
            }
        }
        // Reclaim fully-consumed buffers eagerly.
        if let Some(p) = self.peers[peer].as_mut() {
            if p.in_pos == p.inb.len() && !p.inb.is_empty() {
                p.inb.clear();
                p.in_pos = 0;
            }
        }
    }

    fn dispatch(&mut self, peer: Rank, header: FrameHeader, payload: Vec<u8>) {
        let frame_bytes = (FRAME_HEADER_BYTES + payload.len()) as u64;
        if header.src as usize != peer || header.dst as usize != self.rank {
            if let Some(p) = self.peers[peer].as_mut() {
                p.die(format!(
                    "frame routed {} -> {} arrived on the link {} -> {}",
                    header.src, header.dst, peer, self.rank
                ));
            }
            return;
        }
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
                Err(e) => {
                    if let Some(p) = self.peers[peer].as_mut() {
                        p.die(format!("malformed telemetry payload: {e}"));
                    }
                }
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
                // Liveness probes are answered inline by the pump itself,
                // so a worker blocked in wait_event still looks alive.
                let _ = self.send_control(peer, FrameKind::Pong, &[]);
            }
            FrameKind::Pong => self.pongs[peer] += 1,
            FrameKind::Plan => match PlanSpec::decode(&payload) {
                Ok(spec) => self.plans.push_back((peer, spec)),
                Err(e) => {
                    if let Some(p) = self.peers[peer].as_mut() {
                        p.die(format!("malformed plan: {e}"));
                    }
                }
            },
            FrameKind::Drain => self.drain_from[peer] = true,
            FrameKind::Hello | FrameKind::HelloAck => {
                if let Some(p) = self.peers[peer].as_mut() {
                    p.die("handshake frame after the handshake completed");
                }
            }
            FrameKind::Telemetry => unreachable!("handled before the sweep-traffic accounting"),
        }
    }

    /// One readiness round over every connected peer: flush writes, drain
    /// reads, parse frames.
    pub fn pump(&mut self) {
        for peer in 0..self.ranks {
            if self.peers[peer].is_some() {
                self.pump_writes(peer);
                self.pump_reads(peer);
            }
        }
    }

    fn deadline_err(&self, peer: Rank, what: impl Into<String>) -> TransportError {
        TransportError::Timeout {
            peer,
            waiting_for: what.into(),
            after_ms: self.cfg.io_timeout.as_millis() as u64,
        }
    }

    /// Pumps until `done` yields a value or `io_timeout` expires. Between
    /// rounds the loop sleeps briefly, so waits are cheap but sub-
    /// millisecond responsive.
    fn pump_until<T>(
        &mut self,
        peer: Rank,
        what: &str,
        mut done: impl FnMut(&mut Self) -> Option<T>,
    ) -> Result<T, TransportError> {
        let deadline = Instant::now() + self.cfg.io_timeout;
        loop {
            self.pump();
            if let Some(v) = done(self) {
                return Ok(v);
            }
            // Check liveness after the pump so a final flush of parsed
            // frames is consumed before the death verdict.
            if let Some(p) = &self.peers[peer] {
                if !p.alive {
                    return Err(TransportError::Disconnected {
                        peer,
                        detail: p.dead_reason.clone(),
                    });
                }
            } else {
                return Err(TransportError::Disconnected {
                    peer,
                    detail: "never connected".into(),
                });
            }
            if Instant::now() >= deadline {
                return Err(self.deadline_err(peer, what));
            }
            std::thread::sleep(IDLE_SLEEP);
        }
    }

    /// Blocks until every out-buffer is on the wire (or `io_timeout`).
    pub fn flush_all(&mut self) -> Result<(), TransportError> {
        let deadline = Instant::now() + self.cfg.io_timeout;
        loop {
            self.pump();
            let mut unflushed = None;
            for (r, slot) in self.peers.iter().enumerate() {
                if let Some(p) = slot {
                    if p.alive && p.out_pos < p.out.len() {
                        unflushed = Some(r);
                    }
                }
            }
            match unflushed {
                None => return Ok(()),
                Some(r) if Instant::now() >= deadline => {
                    return Err(self.deadline_err(r, "flush of queued frames"))
                }
                Some(_) => std::thread::sleep(IDLE_SLEEP),
            }
        }
    }

    /// Waits for the next plan frame from `peer`.
    pub fn recv_plan(&mut self, peer: Rank) -> Result<PlanSpec, TransportError> {
        self.pump_until(peer, "partition plan", |ep| {
            let front = ep.plans.front()?;
            if front.0 == peer {
                ep.plans.pop_front().map(|(_, spec)| spec)
            } else {
                None
            }
        })
    }

    /// Waits until `peer` either opens a sweep (a `Scatter` data frame is
    /// queued) or asks this endpoint to drain. `deadline` of `None` waits
    /// until the peer dies — the idle serve-loop posture, where only EOF
    /// or a frame can end the wait.
    pub fn wait_event(
        &mut self,
        peer: Rank,
        deadline: Option<Duration>,
    ) -> Result<Event, TransportError> {
        let scatter = wire::tag_code(Tag::Scatter);
        let expiry = deadline.map(|d| Instant::now() + d);
        loop {
            self.pump();
            if self.drain_from[peer] {
                self.drain_from[peer] = false;
                return Ok(Event::Drained);
            }
            if self
                .pending
                .get(&(peer, scatter))
                .is_some_and(|q| !q.is_empty())
            {
                return Ok(Event::SweepReady);
            }
            if let Some(p) = &self.peers[peer] {
                if !p.alive {
                    return Err(TransportError::Disconnected {
                        peer,
                        detail: p.dead_reason.clone(),
                    });
                }
            }
            if let Some(t) = expiry {
                if Instant::now() >= t {
                    return Err(TransportError::Timeout {
                        peer,
                        waiting_for: "sweep or drain".into(),
                        after_ms: deadline.unwrap().as_millis() as u64,
                    });
                }
            }
            std::thread::sleep(IDLE_SLEEP);
        }
    }

    /// Round-trip liveness probe: sends a `Ping`, waits for the `Pong`.
    /// Returns the round-trip time.
    pub fn ping(&mut self, peer: Rank) -> Result<Duration, TransportError> {
        let before = self.pongs[peer];
        let start = Instant::now();
        self.send_control(peer, FrameKind::Ping, &[])?;
        self.pump_until(peer, "pong", |ep| {
            (ep.pongs[peer] > before).then(|| start.elapsed())
        })
    }

    /// Asks `peer` to finish outstanding work and exit, without waiting.
    pub fn send_drain(&mut self, peer: Rank) -> Result<(), TransportError> {
        self.send_control(peer, FrameKind::Drain, &[])
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
        self.enqueue_frame(to, frame)
    }

    fn recv(&mut self, from: Rank, tag: Tag) -> Result<Message<A>, TransportError> {
        let key = (from, wire::tag_code(tag));
        let raw = self.pump_until(from, &format!("{tag:?} message"), |ep| {
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
