//! The socket endpoint's failure model, driven by a raw peer: a process
//! that completes the handshake and then writes hostile bytes. Every case
//! must surface as a typed `TransportError` naming the reason, within the
//! `io_timeout`, never as a hang or a panic. Also: two endpoints that each
//! send a large message before either receives must both finish.

use h2_dist::net::{accept_handshake, connect_handshake, Event, Expect, NetConfig, NetEndpoint};
use h2_dist::wire::{self, FrameHeader, FrameKind, Hello, NO_TAG, PROTOCOL_VERSION};
use h2_dist::{Message, Panel, Tag, Transport, TransportError};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(2);

fn hello(rank: u32) -> Hello {
    Hello {
        version: PROTOCOL_VERSION,
        rank,
        ranks: 2,
        scalar: 8,
        listen_port: 0,
        now_ns: 0,
    }
}

/// Two handshaken streams: rank 0 accepts and rank 1 dials.
fn handshaken_pair(cfg: &NetConfig) -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let dial_cfg = cfg.clone();
    let dialer = std::thread::spawn(move || {
        let expect = Expect {
            rank: Some(0),
            ranks: 2,
            scalar: 8,
        };
        connect_handshake(&addr, hello(1), expect, &dial_cfg)
            .unwrap()
            .stream
    });
    let expect = Expect {
        rank: None,
        ranks: 2,
        scalar: 8,
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    let (_, accepted) = accept_handshake(&listener, deadline, hello(0), expect, &mut |_| Ok(()))
        .expect("handshake");
    (accepted, dialer.join().unwrap())
}

/// Rank 0's endpoint over a handshaken link to a raw rank 1, which holds
/// the returned stream.
fn endpoint_and_raw_peer() -> (NetEndpoint, TcpStream) {
    let cfg = NetConfig::fast_failure(IO_TIMEOUT);
    let (accepted, raw) = handshaken_pair(&cfg);
    let mut ep = NetEndpoint::new(0, 2, cfg);
    ep.add_peer(1, accepted).unwrap();
    (ep, raw)
}

fn header(kind: FrameKind, src: u32, dst: u32, payload_len: u32) -> [u8; wire::FRAME_HEADER_BYTES] {
    FrameHeader {
        kind,
        tag: NO_TAG,
        scalar: 0,
        src,
        dst,
        panels: 0,
        payload_len,
    }
    .encode()
}

/// Writes `bytes` from the raw peer (keeping its end open), runs `wait` on
/// the endpoint, and asserts a `Disconnected` whose detail names `reason`,
/// inside the `io_timeout`.
fn assert_dies_naming(
    bytes: &[u8],
    reason: &str,
    wait: impl FnOnce(&mut NetEndpoint) -> Result<(), TransportError>,
) {
    let (mut ep, mut raw) = endpoint_and_raw_peer();
    raw.write_all(bytes).unwrap();
    let start = Instant::now();
    let err = wait(&mut ep).expect_err("a hostile frame must fail the wait");
    let elapsed = start.elapsed();
    match &err {
        TransportError::Disconnected { peer: 1, detail } => {
            assert!(detail.contains(reason), "expected {reason:?} in {err}")
        }
        other => panic!("expected a Disconnected naming {reason:?}, got {other}"),
    }
    assert!(elapsed < IO_TIMEOUT, "took {elapsed:?}");
    assert!(!ep.peer_alive(1));
    drop(raw);
}

fn recv_scatter(ep: &mut NetEndpoint) -> Result<(), TransportError> {
    Transport::<f64>::recv(ep, 1, Tag::Scatter).map(drop)
}

#[test]
fn a_bad_magic_is_a_malformed_header() {
    let mut bytes = header(FrameKind::Ping, 1, 0, 0);
    bytes[0] ^= 0xFF;
    assert_dies_naming(&bytes, "bad frame magic", recv_scatter);
}

#[test]
fn a_payload_above_the_cap_is_refused_before_reading_it() {
    let bytes = header(FrameKind::Data, 1, 0, (1 << 30) + 1);
    assert_dies_naming(&bytes, "absurd payload", recv_scatter);
}

#[test]
fn a_frame_routed_off_its_link_is_refused() {
    let bytes = wire::control_frame(FrameKind::Ping, 0, 1, &[]);
    assert_dies_naming(&bytes, "arrived on the link 1 -> 0", recv_scatter);
}

#[test]
fn a_hello_after_the_handshake_is_refused() {
    let bytes = wire::control_frame(FrameKind::Hello, 1, 0, &hello(1).encode());
    assert_dies_naming(&bytes, "handshake frame after the handshake", recv_scatter);
}

#[test]
fn a_malformed_plan_is_refused() {
    let bytes = wire::control_frame(FrameKind::Plan, 1, 0, &[1, 2, 3]);
    assert_dies_naming(&bytes, "malformed plan", |ep| ep.recv_plan(1).map(drop));
}

#[test]
fn a_malformed_telemetry_payload_is_refused() {
    let bytes = wire::control_frame(FrameKind::Telemetry, 1, 0, &[0xFF]);
    assert_dies_naming(&bytes, "malformed telemetry", |ep| {
        ep.wait_event(1).map(drop)
    });
}

#[test]
fn a_frame_truncated_by_eof_is_a_closed_connection() {
    let (mut ep, mut raw) = endpoint_and_raw_peer();
    raw.write_all(&header(FrameKind::Data, 1, 0, 100)).unwrap();
    raw.write_all(&[0; 10]).unwrap();
    raw.shutdown(Shutdown::Both).unwrap();
    let start = Instant::now();
    let err = recv_scatter(&mut ep).unwrap_err();
    assert!(
        matches!(&err, TransportError::Disconnected { peer: 1, detail } if detail.contains("closed")),
        "got {err}"
    );
    assert!(start.elapsed() < IO_TIMEOUT);
}

#[test]
fn a_drain_before_a_close_is_delivered() {
    let (mut ep, mut raw) = endpoint_and_raw_peer();
    raw.write_all(&wire::control_frame(FrameKind::Drain, 1, 0, &[]))
        .unwrap();
    drop(raw);
    // Either order of Drain and FIN must give Drained; the pause makes the
    // harder one, both queued before the endpoint looks, the likely one.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(ep.wait_event(1), Ok(Event::Drained));
}

#[test]
fn crossing_large_sends_do_not_deadlock() {
    let cfg = NetConfig::fast_failure(IO_TIMEOUT);
    let (s0, s1) = handshaken_pair(&cfg);
    // 32 MiB of f64 coefficients each way, far beyond any socket buffer.
    let msg = |seed: f64| {
        Message::new(vec![Panel {
            node: 7,
            data: (0..(32 << 20) / 8).map(|i| seed + i as f64).collect(),
        }])
    };
    // Each endpoint outlives both threads. Rank 0 closes the exchange: a
    // ping round trip proves rank 1 has read all of its data, then a last
    // small message tells rank 1 that rank 0 has read all of its.
    let run = |me: usize, stream: TcpStream, seed: f64| {
        let cfg = cfg.clone();
        std::thread::spawn(move || {
            let mut ep = NetEndpoint::new(me, 2, cfg);
            ep.add_peer(1 - me, stream).unwrap();
            let start = Instant::now();
            let exchange = |ep: &mut NetEndpoint| -> Result<Message<f64>, TransportError> {
                ep.send(1 - me, Tag::HaloQ, msg(seed))?;
                let got = ep.recv(1 - me, Tag::HaloQ)?;
                if me == 0 {
                    ep.ping(1)?;
                    ep.send(1, Tag::Result, Message::<f64>::default())?;
                } else {
                    Transport::<f64>::recv(ep, 0, Tag::Result)?;
                }
                Ok(got)
            };
            let got = exchange(&mut ep);
            (got, start.elapsed(), ep)
        })
    };
    let a = run(0, s0, 0.5);
    let b = run(1, s1, 1.5);
    let (got_a, wall_a, _ep_a) = a.join().unwrap();
    let (got_b, wall_b, _ep_b) = b.join().unwrap();
    let (got_a, got_b) = (got_a.expect("rank 0"), got_b.expect("rank 1"));
    assert!(got_a == msg(1.5) && got_b == msg(0.5));
    assert!(wall_a < IO_TIMEOUT && wall_b < IO_TIMEOUT);
}
