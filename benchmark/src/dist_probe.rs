//! The distributed sweep, measured as layers of `stored_f64`'s traced run: the
//! workload's own operator split over two shard threads that exchange panels
//! through the in-process channel mesh, and once more over loopback TCP.
//!
//! Not a workload of its own: two shard threads on a shared two-vCPU host
//! measure the host's scheduler (README, "Why there is no sharded workload"),
//! so no end-to-end bound is put on them. What this guards is the third copy
//! of the five-sweep algorithm (`run_shard` / `run_coordinator`): its result
//! must equal the serial sweep bit for bit and its wire counts must repeat.

use crate::metrics::Metrics;
use crate::stats::{median, median_secs};
use crate::trace::Recorder;
use h2_core::H2Matrix;
use h2_dist::transport::{Message, Panel};
use h2_dist::wire::{self, FRAME_HEADER_BYTES, HELLO_FRAME_BYTES};
use h2_dist::ShardedH2;
use h2_linalg::Scalar;
use h2_net::{run_worker, BoundCoordinator, NetConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Two shard threads: one per core of the reference host.
const SHARDS: usize = 2;
/// Sharded applies timed for `dist.sharded_over_serial`.
const APPLIES: usize = 9;

/// Handshake frames the transports charge once per link and direction;
/// subtracting them leaves pure sweep traffic.
fn handshake() -> (u64, u64) {
    let ranks = SHARDS as u64 + 1;
    let links = ranks * (ranks - 1) / 2;
    (2 * links * HELLO_FRAME_BYTES, 2 * links)
}

/// The same operator over 127.0.0.1 with two worker threads. Returns
/// `(median matvec ms, ping us, wire bytes per matvec)`.
fn tcp_probe(h2: &Arc<H2Matrix>, rhs: &[f64]) -> Result<(f64, f64, f64), h2_net::NetError> {
    let bound = BoundCoordinator::bind(h2.clone(), SHARDS, NetConfig::default())?;
    let addr = bound.addr();
    let workers: Vec<_> = (0..SHARDS)
        .map(|rank| {
            let (h2, addr) = (h2.clone(), addr.clone());
            std::thread::spawn(move || run_worker(&h2, rank, SHARDS, &addr, NetConfig::default()))
        })
        .collect();
    let coord = match bound.accept() {
        Ok(coord) => coord,
        Err(e) => {
            // The workers give up on their own timeouts; wait for them.
            for w in workers {
                let _ = w.join();
            }
            return Err(e);
        }
    };
    let reps = 5;
    let mut out = coord.try_matvec(rhs).map(|_| ());
    let mut times = Vec::new();
    let before = coord.traffic();
    for _ in 0..reps {
        if out.is_err() {
            break;
        }
        let t = Instant::now();
        out = coord.try_matvec(rhs).map(|_| ());
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let after = coord.traffic();
    let ping = coord.ping(0).map(|d| d.as_secs_f64() * 1e6);
    let down = coord.shutdown();
    // Join every worker before reporting anything, success or not.
    let reports: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("worker thread panicked"))
        .collect();
    out?;
    down?;
    let sweeps = reps as u64 + 1;
    let mut bytes = (after.sent_bytes - before.sent_bytes) / reps as u64;
    for r in reports {
        let r = r?;
        // Not sweep traffic: one hello per link (coordinator and peers),
        // and rank 0's pong, an empty control frame.
        let pong = if r.rank == 0 {
            FRAME_HEADER_BYTES as u64
        } else {
            0
        };
        bytes += (r.traffic.sent_bytes - SHARDS as u64 * HELLO_FRAME_BYTES - pong) / sweeps;
    }
    Ok((median(&times), ping?, bytes as f64))
}

/// Fills the `dist.*` and `net.*` metrics for `h2`. `serial` is the serial
/// sweep's result for `rhs`; a sharded result that differs from it in any
/// bit is pushed onto `failures`.
pub fn run(
    h2: &Arc<H2Matrix>,
    rhs: &[f64],
    serial: &[f64],
    rec: &mut Recorder,
    m: &mut Metrics,
    failures: &mut Vec<String>,
) {
    let sh = rec.span("h2-dist", "plan", |_| {
        ShardedH2::new(h2.clone(), SHARDS).expect("tree is wide enough for two shards")
    });
    if sh.matvec(rhs) != serial {
        failures.push("sharded result is not bitwise equal to the serial matvec".into());
    }

    // Exact counts from the program's own traffic accounting.
    let (_, stats) = sh.matvec_with_stats(rhs);
    let (hello_bytes, hello_msgs) = handshake();
    m.set(
        "dist.wire_bytes_per_op",
        (stats.total_bytes() - hello_bytes) as f64,
    );
    m.set(
        "dist.msgs_per_op",
        (stats.total_messages() - hello_msgs) as f64,
    );
    m.set("dist.setup_bytes", sh.setup_bytes() as f64);
    // Program-reported (diagnostic): the slowest shard's exchange phase.
    let exchange: Vec<f64> = (0..5)
        .map(|_| sh.matvec_with_stats(rhs).1.max_phases().exchange * 1e3)
        .collect();
    m.set("dist.exchange_ms", median(&exchange));

    // Wire codec on the largest message of a sweep: one shard's slice of
    // the scattered input vector.
    let msg = Message::new(vec![Panel {
        node: 0,
        data: rhs[..rhs.len() / SHARDS].to_vec(),
    }]);
    let codec = rec.span("h2-dist", "probe.codec", |_| {
        median_secs(25, || {
            let bytes = wire::encode_message(&msg);
            black_box(wire::decode_message::<f64>(f64::CODE, 1, &bytes).expect("round trip"));
        })
    });
    m.set("dist.codec_us", codec * 1e6);

    let sharded = rec.span("h2-dist", "probe.sharded_apply", |_| {
        median_secs(APPLIES, || {
            black_box(sh.matvec(rhs));
        })
    });
    let serial_s = median_secs(APPLIES, || {
        black_box(h2.matvec(rhs));
    });
    m.set("dist.sharded_over_serial", sharded / serial_s);

    match rec.span("h2-net", "probe.tcp", |_| tcp_probe(h2, rhs)) {
        Ok((mv_ms, ping_us, bytes)) => {
            m.set("net.tcp_mv_ms", mv_ms);
            m.set("net.ping_us", ping_us);
            m.set("net.bytes_per_op", bytes);
        }
        // Loopback sockets may be unavailable in a sandbox; the three
        // net.* metrics then stay 0 and the reason goes to stderr.
        Err(e) => eprintln!("dist probe: tcp probe skipped: {e}"),
    }
}
