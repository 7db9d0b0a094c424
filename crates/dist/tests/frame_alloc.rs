//! The socket endpoint's memory under a lying peer, measured on the heap:
//! a frame header that announces a payload just under the 1 GiB cap and
//! then delivers 64 bytes before EOF costs the receiver the bytes that
//! arrived, not the bytes announced.
//!
//! A counting global allocator tracks the live heap and its high-water
//! mark. The file has one test, so no other test allocates beside it.

use h2_dist::net::{accept_handshake, connect_handshake, Expect, NetConfig, NetEndpoint};
use h2_dist::wire::{FrameHeader, FrameKind, Hello, NO_TAG, PROTOCOL_VERSION};
use h2_dist::{Tag, Transport, TransportError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::{Shutdown, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Peak;

#[global_allocator]
static ALLOC: Peak = Peak;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Peak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

const MIB: usize = 1 << 20;

/// The endpoint's payload cap (1 GiB) less one byte: the largest
/// announcement it must accept as a header.
const ANNOUNCED: u32 = (1 << 30) - 1;

#[test]
fn a_lying_length_costs_only_the_bytes_that_arrived() {
    let cfg = NetConfig::fast_failure(Duration::from_secs(2));
    let hello = |rank| Hello {
        version: PROTOCOL_VERSION,
        rank,
        ranks: 2,
        scalar: 8,
        listen_port: 0,
        now_ns: 0,
    };
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
    let (_, accepted) =
        accept_handshake(&listener, deadline, hello(0), expect, &mut |_| Ok(())).unwrap();
    let mut raw = dialer.join().unwrap();

    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let mut ep = NetEndpoint::new(0, 2, cfg);
    ep.add_peer(1, accepted).unwrap();
    let head = FrameHeader {
        kind: FrameKind::Data,
        tag: NO_TAG,
        scalar: 8,
        src: 1,
        dst: 0,
        panels: 1,
        payload_len: ANNOUNCED,
    };
    raw.write_all(&head.encode()).unwrap();
    raw.write_all(&[0; 64]).unwrap();
    raw.shutdown(Shutdown::Both).unwrap();
    let err = Transport::<f64>::recv(&mut ep, 1, Tag::Scatter).unwrap_err();
    assert!(
        matches!(&err, TransportError::Disconnected { peer: 1, detail } if detail.contains("closed")),
        "got {err}"
    );
    drop(ep);
    let peak = PEAK.load(Ordering::Relaxed) - start;
    assert!(
        peak < 16 * MIB,
        "peak heap {peak} bytes for a {ANNOUNCED}-byte announcement that delivered 64"
    );
}
