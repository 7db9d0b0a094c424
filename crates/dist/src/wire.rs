//! The shared wire format: one binary codec for every byte the stack puts
//! on a wire or into a file.
//!
//! Three layers previously each had their own ad-hoc byte conventions —
//! the channel mesh's *modeled* message sizes, the serving codec's
//! little-endian section encoders, and the real TCP frames of
//! [`crate::net`]. This module is the single source of truth
//! they all delegate to:
//!
//! - [`WireWriter`] / [`WireReader`]: bounds-checked little-endian
//!   primitives (`u8`/`u16`/`u32`/`u64`/`f64`/scalar slices). The serving
//!   codec builds its checksummed sections on top of these; the frame
//!   codecs below use them directly.
//! - [`FrameHeader`]: the fixed [`FRAME_HEADER_BYTES`]-byte header of every
//!   TCP frame — magic, frame kind, sweep [`Tag`], scalar code, source and
//!   destination rank, panel count, payload length.
//! - [`encode_message`] / [`decode_message`]: the panel payload of a
//!   [`Data`](FrameKind::Data) frame — per panel a node id, a coefficient
//!   count, and the coefficients via the [`Scalar`] LE codec hooks.
//! - [`Hello`] / [`PlanSpec`]: handshake and plan-distribution payloads.
//!
//! [`Message::bytes`](crate::Message::bytes) charges exactly
//! [`data_frame_bytes`], so the channel mesh's accounting *is* the socket
//! transport's framing — `TrafficStats` from both backends are directly
//! comparable, byte for byte.

use crate::transport::{Message, Panel, Rank, Tag};
use h2_linalg::Scalar;
use std::fmt;

/// First four bytes of every frame, little-endian (`"H2FR"`).
pub const WIRE_MAGIC: u32 = 0x5246_3248;

/// Version of the frame protocol; handshakes refuse a peer speaking any
/// other version. Version 2 added the clock reading to [`Hello`], the
/// [`FrameKind::Telemetry`] frame, and the trace flag on [`PlanSpec`].
pub const PROTOCOL_VERSION: u16 = 2;

/// Fixed size of the frame header, bytes.
pub const FRAME_HEADER_BYTES: usize = 24;

/// Payload size of a [`Hello`] (and its echo, the `HelloAck`), bytes.
pub const HELLO_PAYLOAD_BYTES: usize = 21;

/// Full wire size of one handshake frame (header + [`Hello`] payload).
/// Both directions of a handshake cost exactly one such frame, which is
/// what [`crate::ChannelEndpoint::mesh`] pre-charges per link.
pub const HELLO_FRAME_BYTES: u64 = (FRAME_HEADER_BYTES + HELLO_PAYLOAD_BYTES) as u64;

/// `tag` byte of frames that carry no sweep tag (everything but `Data`).
pub const NO_TAG: u8 = 0xFF;

/// A malformed or truncated wire payload. Carries a human-readable
/// diagnostic; consumers wrap it into their own typed errors
/// (`LoadError::CorruptSection` in the codec, `TransportError::Protocol`
/// on the sockets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What failed to decode.
    pub detail: String,
}

impl WireError {
    pub(crate) fn new(detail: impl Into<String>) -> Self {
        WireError {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.detail)
    }
}

impl std::error::Error for WireError {}

/// What a frame is, independent of the sweep [`Tag`] it may carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Connection opener: identity + protocol/scalar versions.
    Hello,
    /// Handshake acceptance, echoing the responder's identity.
    HelloAck,
    /// Coordinator → worker: the partition plan and the worker address
    /// table, sent once after all workers have joined.
    Plan,
    /// A sweep message: `tag` holds the [`Tag`], the payload holds panels.
    Data,
    /// Liveness probe.
    Ping,
    /// Liveness reply.
    Pong,
    /// Coordinator → worker: finish outstanding work and exit cleanly.
    Drain,
    /// Observability sideband: a [`TelemetryMsg`] payload (trace-context
    /// distribution or a shipped span report). Never counted as sweep
    /// traffic.
    Telemetry,
}

impl FrameKind {
    /// Stable one-byte wire code.
    pub fn code(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::HelloAck => 2,
            FrameKind::Plan => 3,
            FrameKind::Data => 4,
            FrameKind::Ping => 5,
            FrameKind::Pong => 6,
            FrameKind::Drain => 7,
            FrameKind::Telemetry => 8,
        }
    }

    /// Inverse of [`Self::code`].
    pub fn from_code(code: u8) -> Option<FrameKind> {
        Some(match code {
            1 => FrameKind::Hello,
            2 => FrameKind::HelloAck,
            3 => FrameKind::Plan,
            4 => FrameKind::Data,
            5 => FrameKind::Ping,
            6 => FrameKind::Pong,
            7 => FrameKind::Drain,
            8 => FrameKind::Telemetry,
            _ => return None,
        })
    }
}

/// Stable one-byte wire code of a sweep [`Tag`].
pub fn tag_code(tag: Tag) -> u8 {
    match tag {
        Tag::Scatter => 0,
        Tag::HaloQ => 1,
        Tag::HaloB => 2,
        Tag::GatherUp => 3,
        Tag::TopQ => 4,
        Tag::TopG => 5,
        Tag::Result => 6,
    }
}

/// Inverse of [`tag_code`].
pub fn tag_from_code(code: u8) -> Option<Tag> {
    Some(match code {
        0 => Tag::Scatter,
        1 => Tag::HaloQ,
        2 => Tag::HaloB,
        3 => Tag::GatherUp,
        4 => Tag::TopQ,
        5 => Tag::TopG,
        6 => Tag::Result,
        _ => return None,
    })
}

/// All seven sweep tags, in protocol order (test and property-test helper).
pub const ALL_TAGS: [Tag; 7] = [
    Tag::Scatter,
    Tag::HaloQ,
    Tag::HaloB,
    Tag::GatherUp,
    Tag::TopQ,
    Tag::TopG,
    Tag::Result,
];

/// The fixed-size header prefixed to every frame.
///
/// Layout (little-endian, [`FRAME_HEADER_BYTES`] bytes total):
///
/// | offset | size | field |
/// |-------:|-----:|-------|
/// | 0      | 4    | magic [`WIRE_MAGIC`] |
/// | 4      | 1    | frame kind ([`FrameKind::code`]) |
/// | 5      | 1    | sweep tag ([`tag_code`]; [`NO_TAG`] for non-`Data`) |
/// | 6      | 1    | scalar code (`A::CODE`: 4 = f32, 8 = f64; 0 = none) |
/// | 7      | 1    | reserved, must be 0 |
/// | 8      | 4    | source rank |
/// | 12     | 4    | destination rank |
/// | 16     | 4    | panel count (`Data` only, else 0) |
/// | 20     | 4    | payload length in bytes |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the frame is.
    pub kind: FrameKind,
    /// Sweep tag byte ([`NO_TAG`] when `kind` is not `Data`).
    pub tag: u8,
    /// Scalar code of the payload coefficients (0 when none).
    pub scalar: u8,
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Number of panels in a `Data` payload.
    pub panels: u32,
    /// Payload length in bytes.
    pub payload_len: u32,
}

impl FrameHeader {
    /// Serializes the header.
    pub fn encode(&self) -> [u8; FRAME_HEADER_BYTES] {
        let mut out = [0u8; FRAME_HEADER_BYTES];
        out[0..4].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
        out[4] = self.kind.code();
        out[5] = self.tag;
        out[6] = self.scalar;
        out[7] = 0;
        out[8..12].copy_from_slice(&self.src.to_le_bytes());
        out[12..16].copy_from_slice(&self.dst.to_le_bytes());
        out[16..20].copy_from_slice(&self.panels.to_le_bytes());
        out[20..24].copy_from_slice(&self.payload_len.to_le_bytes());
        out
    }

    /// Parses and validates a header from exactly [`FRAME_HEADER_BYTES`]
    /// bytes.
    pub fn decode(bytes: &[u8]) -> Result<FrameHeader, WireError> {
        if bytes.len() != FRAME_HEADER_BYTES {
            return Err(WireError::new(format!(
                "frame header needs {FRAME_HEADER_BYTES} bytes, got {}",
                bytes.len()
            )));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if magic != WIRE_MAGIC {
            return Err(WireError::new(format!(
                "bad frame magic {magic:#010x} (expected {WIRE_MAGIC:#010x})"
            )));
        }
        let kind = FrameKind::from_code(bytes[4])
            .ok_or_else(|| WireError::new(format!("unknown frame kind {}", bytes[4])))?;
        if bytes[7] != 0 {
            return Err(WireError::new(format!(
                "reserved header byte is {}, must be 0",
                bytes[7]
            )));
        }
        Ok(FrameHeader {
            kind,
            tag: bytes[5],
            scalar: bytes[6],
            src: u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            dst: u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
            panels: u32::from_le_bytes(bytes[16..20].try_into().unwrap()),
            payload_len: u32::from_le_bytes(bytes[20..24].try_into().unwrap()),
        })
    }
}

/// Appends little-endian primitives to a byte buffer. The write half of
/// the shared codec; the serving codec's section encoder and the frame
/// builders both sit on top of it.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64`, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a slice of `f64`s, little-endian, without a length prefix.
    pub fn f64s(&mut self, vs: &[f64]) {
        for &v in vs {
            self.f64(v);
        }
    }

    /// Writes a slice of scalars via the [`Scalar`] LE hooks, without a
    /// length prefix.
    pub fn scalars<S: Scalar>(&mut self, vs: &[S]) {
        for &v in vs {
            v.write_le(&mut self.buf);
        }
    }

    /// Writes raw bytes verbatim.
    pub fn bytes(&mut self, bs: &[u8]) {
        self.buf.extend_from_slice(bs);
    }

    /// Writes a length-prefixed UTF-8 string (`u32` length, then bytes).
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
}

/// Reads little-endian primitives from a byte slice with bounds checking.
/// Every decode failure is a typed [`WireError`]; the reader never panics
/// on malformed input.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::new(format!(
                "truncated: wanted {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting overflow.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::new(format!("value {v} overflows usize")))
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads `n` little-endian `f64`s.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, WireError> {
        let bytes = self.take(
            n.checked_mul(8)
                .ok_or_else(|| WireError::new("f64 count overflow"))?,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads `n` scalars via the [`Scalar`] LE hooks.
    pub fn scalars<S: Scalar>(&mut self, n: usize) -> Result<Vec<S>, WireError> {
        let bytes = self.take(
            n.checked_mul(S::BYTES)
                .ok_or_else(|| WireError::new("scalar count overflow"))?,
        )?;
        Ok(bytes.chunks_exact(S::BYTES).map(S::read_le).collect())
    }

    /// Reads a length-prefixed UTF-8 string written by [`WireWriter::str`].
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::new("string is not valid UTF-8"))
    }

    /// Reads an element count that must satisfy `count * elem_bytes <=
    /// remaining` — rejects absurd counts before any allocation.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.usize()?;
        let need = n
            .checked_mul(elem_bytes)
            .ok_or_else(|| WireError::new(format!("count {n} overflows")))?;
        if need > self.remaining() {
            return Err(WireError::new(format!(
                "count {n} needs {need} bytes, only {} remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Asserts the reader consumed everything.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::new(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Wire size of one encoded panel, bytes: node id + length + coefficients.
pub fn panel_bytes<A: Scalar>(p: &Panel<A>) -> u64 {
    16 + (A::BYTES * p.data.len()) as u64
}

/// Full wire size of a [`Data`](FrameKind::Data) frame carrying `msg`:
/// the frame header plus every panel. This is exactly what
/// [`Message::bytes`] reports, so modeled (channel) and physical (socket)
/// traffic accounting agree.
pub fn data_frame_bytes<A: Scalar>(msg: &Message<A>) -> u64 {
    FRAME_HEADER_BYTES as u64 + msg.panels.iter().map(panel_bytes).sum::<u64>()
}

/// Encodes the panel payload of a `Data` frame (no header).
pub fn encode_message<A: Scalar>(msg: &Message<A>) -> Vec<u8> {
    let mut w = WireWriter::new();
    for p in &msg.panels {
        w.u64(p.node as u64);
        w.u64(p.data.len() as u64);
        w.scalars(&p.data);
    }
    w.into_bytes()
}

/// Decodes a `Data` payload of `panels` panels, verifying the scalar code
/// and consuming the payload exactly.
pub fn decode_message<A: Scalar>(
    scalar: u8,
    panels: u32,
    payload: &[u8],
) -> Result<Message<A>, WireError> {
    if scalar != A::CODE {
        return Err(WireError::new(format!(
            "scalar code {scalar} on the wire, receiver expects {} ({})",
            A::CODE,
            A::NAME
        )));
    }
    let mut r = WireReader::new(payload);
    // `panels` comes from an untrusted header: reserve no more panels than
    // the payload can hold (each is at least a node id and a length).
    let mut out = Vec::with_capacity((panels as usize).min(payload.len() / 16));
    for _ in 0..panels {
        let node = r.usize()?;
        let len = r.count(A::BYTES)?;
        let data = r.scalars::<A>(len)?;
        out.push(Panel { node, data });
    }
    r.finish()?;
    Ok(Message::new(out))
}

/// Builds a complete `Data` frame (header + panels) for the wire.
pub fn data_frame<A: Scalar>(src: Rank, dst: Rank, tag: Tag, msg: &Message<A>) -> Vec<u8> {
    let payload = encode_message(msg);
    let header = FrameHeader {
        kind: FrameKind::Data,
        tag: tag_code(tag),
        scalar: A::CODE,
        src: src as u32,
        dst: dst as u32,
        panels: msg.panels.len() as u32,
        payload_len: payload.len() as u32,
    };
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&header.encode());
    out.extend_from_slice(&payload);
    out
}

/// Builds a control frame (no sweep tag) with an arbitrary payload.
pub fn control_frame(kind: FrameKind, src: Rank, dst: Rank, payload: &[u8]) -> Vec<u8> {
    let header = FrameHeader {
        kind,
        tag: NO_TAG,
        scalar: 0,
        src: src as u32,
        dst: dst as u32,
        panels: 0,
        payload_len: payload.len() as u32,
    };
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&header.encode());
    out.extend_from_slice(payload);
    out
}

/// Handshake payload: who a peer is and what it speaks. Sent as the first
/// frame on every new connection ([`FrameKind::Hello`]) and echoed back by
/// the accepting side with its own identity ([`FrameKind::HelloAck`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version; both sides must match [`PROTOCOL_VERSION`].
    pub version: u16,
    /// The sender's rank.
    pub rank: u32,
    /// Total rank count the sender believes in (shards + coordinator).
    pub ranks: u32,
    /// Scalar code of the sweep coefficients the sender will move.
    pub scalar: u8,
    /// Port the sender's own listener accepts peer connections on
    /// (0 if it does not listen).
    pub listen_port: u16,
    /// The sender's telemetry clock at send time
    /// ([`h2_telemetry::now_ns`]): ns since its process epoch. Both sides
    /// of a handshake read their clock when building their `Hello`/ack, so
    /// the dialer can estimate the clock offset to the responder
    /// (NTP-style, halving the round trip) and merged cluster traces line
    /// up across processes.
    pub now_ns: u64,
}

impl Hello {
    /// Serializes the payload ([`HELLO_PAYLOAD_BYTES`] bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u16(self.version);
        w.u32(self.rank);
        w.u32(self.ranks);
        w.u8(self.scalar);
        w.u16(self.listen_port);
        w.u64(self.now_ns);
        debug_assert_eq!(w.len(), HELLO_PAYLOAD_BYTES);
        w.into_bytes()
    }

    /// Decodes the payload, consuming it exactly.
    pub fn decode(payload: &[u8]) -> Result<Hello, WireError> {
        let mut r = WireReader::new(payload);
        let h = Hello {
            version: r.u16()?,
            rank: r.u32()?,
            ranks: r.u32()?,
            scalar: r.u8()?,
            listen_port: r.u16()?,
            now_ns: r.u64()?,
        };
        r.finish()?;
        Ok(h)
    }
}

/// Plan-distribution payload: everything a worker needs to reconstruct
/// the partition deterministically and dial its peers. The plan itself is
/// not shipped — [`crate::TreePartition::with_level`] is deterministic
/// given (tree, lists, shards, level), and every worker already holds the
/// operator, so only the cut parameters and the address table travel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanSpec {
    /// Number of shard ranks.
    pub shards: u32,
    /// Distribution level of the cut.
    pub level: u32,
    /// Matrix dimension, as a consistency check against the loaded operator.
    pub n: u64,
    /// Scalar code of the sweep accumulator the coordinator will drive.
    pub accum: u8,
    /// Nonzero when the coordinator wants distributed tracing: workers
    /// then adopt the per-sweep trace context and ship their span buffers
    /// back after every sweep.
    pub trace: u8,
    /// Listener address of every shard rank, index = rank, for the
    /// worker-to-worker mesh.
    pub workers: Vec<String>,
}

impl PlanSpec {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u32(self.shards);
        w.u32(self.level);
        w.u64(self.n);
        w.u8(self.accum);
        w.u8(self.trace);
        w.u32(self.workers.len() as u32);
        for addr in &self.workers {
            w.str(addr);
        }
        w.into_bytes()
    }

    /// Decodes the payload, consuming it exactly.
    pub fn decode(payload: &[u8]) -> Result<PlanSpec, WireError> {
        let mut r = WireReader::new(payload);
        let shards = r.u32()?;
        let level = r.u32()?;
        let n = r.u64()?;
        let accum = r.u8()?;
        let trace = r.u8()?;
        let count = r.u32()? as usize;
        let mut workers = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            workers.push(r.str()?);
        }
        let spec = PlanSpec {
            shards,
            level,
            n,
            accum,
            trace,
            workers,
        };
        r.finish()?;
        Ok(spec)
    }
}

/// Payload of a [`FrameKind::Telemetry`] frame: the observability
/// sideband. The first payload byte selects the message:
///
/// | code | message |
/// |-----:|---------|
/// | 0    | [`TraceCtx`](TelemetryMsg::TraceCtx): coordinator → worker, the trace id for the next sweep |
/// | 1    | [`SpanReport`](TelemetryMsg::SpanReport): worker → coordinator, the worker's span buffer |
///
/// Telemetry frames deliberately bypass `TrafficStats` — the channel
/// mesh's modeled accounting and `paper dist --check`'s byte-for-byte
/// parity gate only see sweep traffic. The sideband is counted separately
/// under the `net.trace_bytes` / `net.trace_frames` telemetry counters.
#[derive(Clone, Debug, PartialEq)]
pub enum TelemetryMsg {
    /// The trace id every span of the upcoming sweep should carry.
    TraceCtx(u64),
    /// One worker's flushed spans (on its own clock) plus the clock offset
    /// it estimated during its coordinator handshake.
    SpanReport {
        /// The reporting worker's rank.
        rank: u32,
        /// Estimated `coordinator_clock − worker_clock`, ns.
        offset_ns: i64,
        /// The worker's spans since its last report (names owned once
        /// decoded).
        spans: Vec<h2_telemetry::SpanRecord>,
    },
}

impl TelemetryMsg {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            TelemetryMsg::TraceCtx(trace) => {
                w.u8(0);
                w.u64(*trace);
            }
            TelemetryMsg::SpanReport {
                rank,
                offset_ns,
                spans,
            } => {
                w.u8(1);
                w.u32(*rank);
                w.u64(*offset_ns as u64);
                w.u32(spans.len() as u32);
                for s in spans {
                    w.str(&s.name);
                    match &s.label {
                        Some(l) => {
                            w.u8(1);
                            w.str(l);
                        }
                        None => w.u8(0),
                    }
                    w.u64(s.tid);
                    w.u64(s.start_ns);
                    w.u64(s.dur_ns);
                    w.u32(s.depth);
                    w.u64(s.trace);
                }
            }
        }
        w.into_bytes()
    }

    /// Decodes the payload, consuming it exactly.
    pub fn decode(payload: &[u8]) -> Result<TelemetryMsg, WireError> {
        let mut r = WireReader::new(payload);
        let msg = match r.u8()? {
            0 => TelemetryMsg::TraceCtx(r.u64()?),
            1 => {
                let rank = r.u32()?;
                let offset_ns = r.u64()? as i64;
                let count = r.u32()? as usize;
                let mut spans = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    let name = r.str()?;
                    let label = match r.u8()? {
                        0 => None,
                        1 => Some(r.str()?),
                        b => {
                            return Err(WireError::new(format!(
                                "span label flag is {b}, must be 0 or 1"
                            )))
                        }
                    };
                    spans.push(h2_telemetry::SpanRecord {
                        name: name.into(),
                        label,
                        tid: r.u64()?,
                        start_ns: r.u64()?,
                        dur_ns: r.u64()?,
                        depth: r.u32()?,
                        trace: r.u64()?,
                    });
                }
                TelemetryMsg::SpanReport {
                    rank,
                    offset_ns,
                    spans,
                }
            }
            code => {
                return Err(WireError::new(format!(
                    "unknown telemetry message code {code}"
                )))
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip_and_size() {
        let h = FrameHeader {
            kind: FrameKind::Data,
            tag: tag_code(Tag::HaloQ),
            scalar: 8,
            src: 3,
            dst: 7,
            panels: 12,
            payload_len: 4096,
        };
        let bytes = h.encode();
        assert_eq!(bytes.len(), FRAME_HEADER_BYTES);
        assert_eq!(FrameHeader::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn header_rejects_garbage() {
        let mut bytes = FrameHeader {
            kind: FrameKind::Ping,
            tag: NO_TAG,
            scalar: 0,
            src: 0,
            dst: 1,
            panels: 0,
            payload_len: 0,
        }
        .encode();
        assert!(FrameHeader::decode(&bytes[..10]).is_err(), "truncated");
        bytes[0] ^= 0xFF;
        assert!(FrameHeader::decode(&bytes).is_err(), "bad magic");
        bytes[0] ^= 0xFF;
        bytes[4] = 99;
        assert!(FrameHeader::decode(&bytes).is_err(), "unknown kind");
        bytes[4] = FrameKind::Ping.code();
        bytes[7] = 1;
        assert!(FrameHeader::decode(&bytes).is_err(), "reserved byte");
    }

    #[test]
    fn tag_codes_are_a_bijection() {
        for tag in ALL_TAGS {
            assert_eq!(tag_from_code(tag_code(tag)), Some(tag));
        }
        assert_eq!(tag_from_code(7), None);
        assert_eq!(tag_from_code(NO_TAG), None);
    }

    #[test]
    fn message_payload_round_trip_both_scalars() {
        let msg: Message<f64> = Message::new(vec![
            Panel {
                node: 5,
                data: vec![1.5, -2.25, 0.0],
            },
            Panel {
                node: 9,
                data: Vec::new(),
            },
        ]);
        let payload = encode_message(&msg);
        let back = decode_message::<f64>(8, msg.panels.len() as u32, &payload).unwrap();
        assert_eq!(back, msg);

        let msg32: Message<f32> = Message::new(vec![Panel {
            node: 1,
            data: vec![0.5f32; 7],
        }]);
        let payload = encode_message(&msg32);
        assert_eq!(decode_message::<f32>(4, 1, &payload).unwrap(), msg32);
        // Scalar-code mismatch is a typed error, not a misdecode.
        assert!(decode_message::<f64>(4, 1, &payload).is_err());
        // A header claiming u32::MAX panels over an empty payload is an
        // error, not a 137 GB reservation.
        assert!(decode_message::<f64>(8, u32::MAX, &[]).is_err());
    }

    #[test]
    fn data_frame_size_matches_the_model() {
        let msg: Message<f64> = Message::new(vec![
            Panel {
                node: 2,
                data: vec![1.0; 10],
            },
            Panel {
                node: 3,
                data: Vec::new(),
            },
        ]);
        let frame = data_frame(0, 1, Tag::Scatter, &msg);
        assert_eq!(frame.len() as u64, data_frame_bytes(&msg));
        assert_eq!(frame.len() as u64, msg.bytes());
        let h = FrameHeader::decode(&frame[..FRAME_HEADER_BYTES]).unwrap();
        assert_eq!(h.panels, 2);
        assert_eq!(h.payload_len as usize, frame.len() - FRAME_HEADER_BYTES);
        let back = decode_message::<f64>(h.scalar, h.panels, &frame[FRAME_HEADER_BYTES..]).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn hello_round_trip_and_frame_size() {
        let hello = Hello {
            version: PROTOCOL_VERSION,
            rank: 2,
            ranks: 5,
            scalar: 8,
            listen_port: 45_123,
            now_ns: 123_456_789_012,
        };
        let payload = hello.encode();
        assert_eq!(payload.len(), HELLO_PAYLOAD_BYTES);
        assert_eq!(Hello::decode(&payload).unwrap(), hello);
        let frame = control_frame(FrameKind::Hello, 2, 4, &payload);
        assert_eq!(frame.len() as u64, HELLO_FRAME_BYTES);
        assert!(Hello::decode(&payload[..5]).is_err(), "truncated");
    }

    #[test]
    fn plan_round_trip() {
        let plan = PlanSpec {
            shards: 3,
            level: 2,
            n: 5000,
            accum: 4,
            trace: 1,
            workers: vec![
                "127.0.0.1:9001".into(),
                "127.0.0.1:9002".into(),
                "127.0.0.1:9003".into(),
            ],
        };
        let payload = plan.encode();
        assert_eq!(PlanSpec::decode(&payload).unwrap(), plan);
        assert!(PlanSpec::decode(&payload[..payload.len() - 3]).is_err());
    }

    #[test]
    fn telemetry_msg_round_trip() {
        let ctx = TelemetryMsg::TraceCtx(0xDEAD_BEEF_CAFE);
        assert_eq!(TelemetryMsg::decode(&ctx.encode()).unwrap(), ctx);

        let report = TelemetryMsg::SpanReport {
            rank: 1,
            offset_ns: -42_000,
            spans: vec![
                h2_telemetry::SpanRecord {
                    name: "net.roundtrip".into(),
                    label: Some("rank=1".to_string()),
                    tid: 3,
                    start_ns: 1_000,
                    dur_ns: 500,
                    depth: 1,
                    trace: 7,
                },
                h2_telemetry::SpanRecord {
                    name: "matvec.upward".into(),
                    label: None,
                    tid: 3,
                    start_ns: 1_100,
                    dur_ns: 200,
                    depth: 2,
                    trace: 7,
                },
            ],
        };
        let payload = report.encode();
        assert_eq!(TelemetryMsg::decode(&payload).unwrap(), report);
        assert!(
            TelemetryMsg::decode(&payload[..payload.len() - 2]).is_err(),
            "truncated"
        );
        assert!(TelemetryMsg::decode(&[9]).is_err(), "unknown code");
    }

    #[test]
    fn frame_kind_codes_are_a_bijection() {
        for kind in [
            FrameKind::Hello,
            FrameKind::HelloAck,
            FrameKind::Plan,
            FrameKind::Data,
            FrameKind::Ping,
            FrameKind::Pong,
            FrameKind::Drain,
            FrameKind::Telemetry,
        ] {
            assert_eq!(FrameKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(FrameKind::from_code(0), None);
        assert_eq!(FrameKind::from_code(9), None);
    }

    #[test]
    fn reader_never_overreads() {
        let mut r = WireReader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(r.u32().is_err());
        assert_eq!(r.remaining(), 2);
        let count_bytes = 8u64.to_le_bytes();
        let mut r = WireReader::new(&count_bytes);
        assert!(r.count(8).is_err(), "count past the buffer end");
    }
}
