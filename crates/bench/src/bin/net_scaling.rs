//! **Socket-transport study** — the distributed five-sweep matvec over
//! real loopback TCP, against the in-process channel mesh it must agree
//! with.
//!
//! The channel mesh (`h2-dist`) *models* its traffic in wire bytes; the
//! socket transport (`h2-net`) pays them physically, frame by frame.
//! Because both sit on the same frame codec, their per-sweep accounting
//! must agree byte for byte — this harness measures that agreement at
//! shard counts {1, 2, 4} in both memory modes, alongside the wall-clock
//! cost of moving the panels through the kernel's socket path and the
//! one-time costs the channel mesh never pays for real (handshakes) or
//! only models (`setup_bytes`, the PR-2 generator/block shipping model).
//!
//! Workers run as threads inside this process, each serving a real
//! non-blocking TCP endpoint — same protocol code as the multi-process
//! `h2serve shard-worker`, without the process-spawn noise.
//!
//! `--check` runs a small deterministic smoke (both modes, 2 shards, one
//! timed sweep) asserting bit-identity with the serial apply and exact
//! per-sweep byte/message agreement between the transports, then prints
//! `NET_SCALING_CHECK_OK`.

use h2_bench::{json_record, write_json, Args, Table};
use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
use h2_dist::wire::HELLO_FRAME_BYTES;
use h2_dist::ShardedH2;
use h2_kernels::Coulomb;
use h2_net::{run_worker, BoundCoordinator, NetConfig};
use h2_points::gen;
use std::sync::Arc;
use std::time::Instant;

json_record! {
    /// One measured (mode, shard-count) cell.
    #[derive(Clone, Debug)]
    struct NetRow {
        mode: String,
        shards: usize,
        level: usize,
        matvec_ms: f64,
        /// Matvecs per second over the socket transport.
        throughput: f64,
        /// Measured wire bytes per sweep across all TCP endpoints.
        tcp_sweep_bytes: u64,
        /// The channel mesh's modeled per-sweep bytes (handshake model
        /// subtracted) — must equal `tcp_sweep_bytes`.
        chan_sweep_bytes: u64,
        /// Messages per sweep across all endpoints.
        tcp_sweep_messages: u64,
        /// One-time handshake bytes the deployment paid (all links, both
        /// directions).
        handshake_bytes: u64,
        /// Modeled one-time setup traffic (PR-2 model: basis + block/generator
        /// shipping), for scale against the per-sweep cost.
        setup_bytes: u64,
    }
}

fn main() {
    let args = Args::parse();
    let check = args.check;

    let n = if check {
        1_200
    } else if args.full {
        20_000
    } else {
        6_000
    };
    let n = args.sizes.as_ref().map_or(n, |s| s[0]);
    let tol = args.tol_or(1e-6);
    let shard_counts = if check {
        vec![2]
    } else {
        args.threads.clone().unwrap_or_else(|| vec![1, 2, 4])
    };
    let reps = if check { 1 } else { 3 };
    let pts = gen::uniform_cube(n, 3, args.seed);
    let b = h2_core::error_est::probe_vector(n, args.seed ^ 0x7e1);

    println!("Net scaling: n={n}, cube, Coulomb, tol={tol:.0e}, shards {shard_counts:?}\n");
    let mut rows: Vec<NetRow> = Vec::new();
    for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(tol, 3),
            mode,
            ..H2Config::default()
        };
        let h2 = Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg));
        let serial = h2.matvec(&b);
        let mut t = Table::new(&[
            "shards",
            "level",
            "matvec ms",
            "mv/s",
            "tcp KB/mv",
            "chan KB/mv",
            "msgs/mv",
            "handshake B",
            "setup KB",
        ]);
        for &s in &shard_counts {
            let mesh = match ShardedH2::new(h2.clone(), s) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("skip {s} shards ({}): {e}", mode.name());
                    continue;
                }
            };
            let (y_chan, chan) = mesh.matvec_with_stats(&b);
            assert_eq!(y_chan, serial, "channel mesh contract");

            // Stand the deployment up: bound coordinator, worker threads
            // over real loopback sockets.
            let bound = BoundCoordinator::bind(h2.clone(), s, NetConfig::default())
                .expect("bind coordinator");
            let addr = bound.addr();
            let workers: Vec<_> = (0..s)
                .map(|rank| {
                    let h2 = h2.clone();
                    let addr = addr.clone();
                    std::thread::spawn(move || {
                        run_worker(&h2, rank, s, &addr, NetConfig::default())
                    })
                })
                .collect();
            let coord = bound.accept().expect("admit workers");

            // Warm-up sweep doubles as the bit-identity gate; traffic
            // deltas from here on are pure sweep frames (the plan and the
            // handshakes are already paid).
            let y_tcp = coord.try_matvec(&b).expect("distributed matvec");
            assert_eq!(y_tcp, serial, "{} x{s}: tcp != serial", mode.name());
            let before = coord.traffic();
            let t0 = Instant::now();
            for _ in 0..reps {
                coord.try_matvec(&b).expect("timed sweep");
            }
            let secs = t0.elapsed().as_secs_f64() / reps as f64;
            let after = coord.traffic();

            coord.shutdown().expect("clean drain");
            let reports: Vec<_> = workers
                .into_iter()
                .map(|w| w.join().expect("worker thread").expect("worker drained"))
                .collect();

            // Per-sweep traffic: the coordinator from the timed delta, each
            // worker from its lifetime totals minus the one-time handshake
            // pre-charge (one 37-byte hello per link, `s` links per worker:
            // the coordinator plus the `s - 1` peer workers).
            let sweeps = (reps + 1) as u64;
            let hello = HELLO_FRAME_BYTES;
            let coord_sweep_bytes = (after.sent_bytes - before.sent_bytes) / reps as u64;
            let coord_sweep_msgs = (after.sent_messages - before.sent_messages) / reps as u64;
            let mut tcp_sweep_bytes = coord_sweep_bytes;
            let mut tcp_sweep_messages = coord_sweep_msgs;
            for r in &reports {
                assert_eq!(r.sweeps, sweeps, "rank {} sweep count", r.rank);
                tcp_sweep_bytes += (r.traffic.sent_bytes - s as u64 * hello) / sweeps;
                tcp_sweep_messages += (r.traffic.sent_messages - s as u64) / sweeps;
            }

            // The channel mesh pre-charges the same handshake model on
            // every matvec (its endpoints are per-call); subtract it to get
            // the modeled per-sweep volume the TCP numbers must match.
            let ranks = s as u64 + 1;
            let links = ranks * (ranks - 1) / 2;
            let chan_sweep_bytes = chan.total_bytes() - 2 * links * hello;
            let chan_sweep_messages = chan.total_messages() - 2 * links;

            let row = NetRow {
                mode: mode.name().to_string(),
                shards: s,
                level: mesh.level(),
                matvec_ms: secs * 1e3,
                throughput: 1.0 / secs,
                tcp_sweep_bytes,
                chan_sweep_bytes,
                tcp_sweep_messages,
                handshake_bytes: 2 * links * hello,
                setup_bytes: mesh.setup_bytes(),
            };
            t.row(vec![
                s.to_string(),
                row.level.to_string(),
                format!("{:.2}", row.matvec_ms),
                format!("{:.0}", row.throughput),
                format!("{:.1}", row.tcp_sweep_bytes as f64 / 1024.0),
                format!("{:.1}", row.chan_sweep_bytes as f64 / 1024.0),
                row.tcp_sweep_messages.to_string(),
                row.handshake_bytes.to_string(),
                format!("{:.1}", row.setup_bytes as f64 / 1024.0),
            ]);
            assert_eq!(
                row.tcp_sweep_bytes,
                row.chan_sweep_bytes,
                "{} x{s}: physical and modeled per-sweep bytes disagree",
                mode.name()
            );
            assert_eq!(
                row.tcp_sweep_messages,
                chan_sweep_messages,
                "{} x{s}: physical and modeled per-sweep messages disagree",
                mode.name()
            );
            rows.push(row);
        }
        println!("mode = {}", mode.name());
        t.print();
        println!();
    }

    write_json(&args.json, rows);
    if check {
        println!("NET_SCALING_CHECK_OK");
    }
}
