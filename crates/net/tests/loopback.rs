//! Loopback integration tests: real TCP sockets, worker ranks on threads.
//!
//! The multi-*process* suite (spawning actual `h2serve shard-worker`
//! children) lives in `h2-serve`'s tests; here every rank shares the
//! process so the tests can assert on both sides' reports and on exact
//! traffic reconciliation against the in-process channel mesh.

use h2_core::{BasisMethod, H2Config, H2Matrix, H2MatrixS, H2Operator, MemoryMode};
use h2_dist::wire::{Hello, PROTOCOL_VERSION};
use h2_dist::ShardedH2;
use h2_kernels::Coulomb;
use h2_linalg::Scalar;
use h2_net::{
    accept_handshake, connect_handshake, run_worker, BoundCoordinator, Expect, NetConfig,
    NetEndpoint, NetError, WorkerReport,
};
use h2_points::gen;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn cfg_h2(mode: MemoryMode) -> H2Config {
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
    Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg_h2(mode)))
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.37).sin()).collect()
}

fn launch_workers<S: Scalar>(
    h2: &Arc<H2MatrixS<S>>,
    shards: usize,
    addr: &str,
    cfg: &NetConfig,
) -> Vec<JoinHandle<Result<WorkerReport, NetError>>> {
    (0..shards)
        .map(|rank| {
            let h2 = h2.clone();
            let addr = addr.to_string();
            let cfg = cfg.clone();
            std::thread::spawn(move || run_worker(&h2, rank, shards, &addr, cfg))
        })
        .collect()
}

#[test]
fn tcp_matvec_is_bit_identical_to_serial_and_channel_mesh() {
    for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
        let h2 = build(600, mode);
        let b = rhs(600);
        let serial = h2.matvec(&b);
        for shards in [1, 2, 4] {
            let bound = BoundCoordinator::bind(h2.clone(), shards, NetConfig::default()).unwrap();
            let workers = launch_workers(&h2, shards, &bound.addr(), &NetConfig::default());
            let coord = bound.accept().unwrap();
            let channel = ShardedH2::new(h2.clone(), shards).unwrap().matvec(&b);
            for _ in 0..2 {
                let y = coord.try_matvec(&b).unwrap();
                assert_eq!(y, serial, "{} shards={shards} vs serial", mode.name());
                assert_eq!(y, channel, "{} shards={shards} vs channel", mode.name());
            }
            coord.shutdown().unwrap();
            for w in workers {
                let report = w.join().unwrap().unwrap();
                assert_eq!(report.sweeps, 2, "each worker served both sweeps");
            }
        }
    }
}

#[test]
fn tcp_ranks_stay_at_width_one_under_a_wide_pool() {
    // The same contract as the channel mesh: inside a 4-wide pool the
    // serial product takes four threads, each TCP rank exactly one, and
    // the bits agree. Every rank counts the sweep helpers of its own thread.
    let helpers = || h2_telemetry::local_scope();
    h2_linalg::exec::Width::new(4).install(|| {
        let (h2, b) = (build(600, MemoryMode::OnTheFly), rhs(600));
        let wide = helpers();
        let serial = h2.matvec(&b);
        assert_eq!(wide.count("sweep.helper_threads"), 3, "serial width");
        let shards = 2;
        let bound = BoundCoordinator::bind(h2.clone(), shards, NetConfig::default()).unwrap();
        let workers: Vec<_> = (0..shards)
            .map(|rank| {
                let (h2, addr) = (h2.clone(), bound.addr());
                std::thread::spawn(move || {
                    let mine = helpers();
                    run_worker(&h2, rank, shards, &addr, NetConfig::default()).unwrap();
                    mine.count("sweep.helper_threads")
                })
            })
            .collect();
        let coord = bound.accept().unwrap();
        let mine = helpers();
        assert_eq!(coord.try_matvec(&b).unwrap(), serial);
        coord.shutdown().unwrap();
        let spawned: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(mine.count("sweep.helper_threads") + spawned, 0);
    });
}

#[test]
fn tcp_traffic_reconciles_with_the_channel_mesh_accounting() {
    let h2 = build(700, MemoryMode::Normal);
    let b = rhs(700);
    let shards = 2;

    // One matvec over the channel mesh, with its per-rank stats.
    let sharded = ShardedH2::new(h2.clone(), shards).unwrap();
    let (_, chan) = sharded.matvec_with_stats(&b);

    // One matvec over TCP.
    let bound = BoundCoordinator::bind(h2.clone(), shards, NetConfig::default()).unwrap();
    let workers = launch_workers(&h2, shards, &bound.addr(), &NetConfig::default());
    let coord = bound.accept().unwrap();
    coord.try_matvec(&b).unwrap();
    let tcp_coord = coord.traffic();

    // Coordinator: identical sweep traffic, plus exactly one Plan control
    // frame per worker on the send side; workers send no control frames,
    // so the receive side reconciles byte for byte.
    assert_eq!(
        tcp_coord.sent_messages,
        chan.coordinator_traffic.sent_messages + shards as u64,
        "coordinator sends the sweep traffic plus one plan per worker"
    );
    assert!(tcp_coord.sent_bytes > chan.coordinator_traffic.sent_bytes);
    assert_eq!(
        tcp_coord.recv_messages,
        chan.coordinator_traffic.recv_messages
    );
    assert_eq!(tcp_coord.recv_bytes, chan.coordinator_traffic.recv_bytes);

    coord.shutdown().unwrap();
    let mut reports: Vec<WorkerReport> = workers
        .into_iter()
        .map(|w| w.join().unwrap().unwrap())
        .collect();
    reports.sort_by_key(|r| r.rank);

    let mut recv_extra = Vec::new();
    for report in &reports {
        let chan_shard = &chan.shards[report.rank].traffic;
        // Send side: workers emit only sweep data (handshakes are
        // pre-charged identically by both transports) — exact equality.
        assert_eq!(
            report.traffic.sent_messages, chan_shard.sent_messages,
            "rank {}",
            report.rank
        );
        assert_eq!(
            report.traffic.sent_bytes, chan_shard.sent_bytes,
            "rank {}",
            report.rank
        );
        // Receive side: the sweep traffic plus the TCP-only Plan and
        // Drain control frames.
        assert_eq!(
            report.traffic.recv_messages,
            chan_shard.recv_messages + 2,
            "rank {}",
            report.rank
        );
        recv_extra.push(report.traffic.recv_bytes - chan_shard.recv_bytes);
    }
    // Every worker received the same two control frames.
    assert!(recv_extra[0] >= 48, "plan + drain frames have headers");
    assert_eq!(recv_extra[0], recv_extra[1]);
}

#[test]
fn an_f32_operator_accumulates_in_f64_over_tcp() {
    // Mixed precision across the wire, as `h2serve serve --shards` runs an
    // `f32` file: the workers store `f32`, the plan says `f64` panels.
    let pts = gen::uniform_cube(600, 3, 17);
    let cfg = cfg_h2(MemoryMode::Normal);
    let h2 = Arc::new(H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &cfg));
    let b = rhs(600);
    let shards = 2;
    let bound = BoundCoordinator::bind(h2.clone(), shards, NetConfig::default()).unwrap();
    let workers = launch_workers(&h2, shards, &bound.addr(), &NetConfig::default());
    let coord = bound.accept::<f64>().unwrap();
    let y = coord.try_matvec(&b).unwrap();
    assert_eq!(y, (*h2).matvec::<f64>(&b), "vs the serial mixed product");
    let sharded = ShardedH2::new(h2.clone(), shards).unwrap();
    let (channel, chan) = sharded.matvec_with_stats::<f64>(&b);
    assert_eq!(y, channel, "vs the channel mesh");

    // The same sweep bytes as the channel mesh in the same (S, A).
    let tcp = coord.traffic();
    coord.shutdown().unwrap();
    assert_eq!(tcp.recv_bytes, chan.coordinator_traffic.recv_bytes);
    for w in workers {
        let report = w.join().unwrap().unwrap();
        let chan_shard = &chan.shards[report.rank].traffic;
        assert_eq!(report.traffic.sent_bytes, chan_shard.sent_bytes);
    }
}

#[test]
fn telemetry_counts_frames_bytes_and_the_roundtrip_span() {
    let h2 = build(500, MemoryMode::Normal);
    let b = rhs(500);
    let bound = BoundCoordinator::bind(h2.clone(), 2, NetConfig::default()).unwrap();
    let workers = launch_workers(&h2, 2, &bound.addr(), &NetConfig::default());
    let coord = bound.accept().unwrap();
    coord.try_matvec(&b).unwrap();
    for h in coord.health() {
        h.unwrap();
    }
    coord.shutdown().unwrap();
    for w in workers {
        w.join().unwrap().unwrap();
    }
    let snap = h2_telemetry::snapshot();
    assert!(snap.counter("net.frames") > 0);
    assert!(snap.counter("net.bytes_sent") > 0);
    assert!(snap.counter("net.bytes_recv") > 0);
    assert!(
        snap.spans_named("net.roundtrip").next().is_some(),
        "distributed matvec records the net.roundtrip span"
    );
}

#[test]
fn handshake_rejects_scalar_and_rank_mismatches() {
    let cfg = NetConfig::fast_failure(Duration::from_secs(1));
    let ranks = 2;

    // Acceptor side rejects a peer serving the wrong scalar precision.
    let run_pair = |dial_scalar: u8, accept_scalar: u8, expect_rank: Option<usize>| {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let my_accept = Hello {
            version: PROTOCOL_VERSION,
            rank: 1,
            ranks: ranks as u32,
            scalar: accept_scalar,
            listen_port: 0,
            now_ns: 0,
        };
        let acceptor = std::thread::spawn(move || {
            accept_handshake(
                &listener,
                Instant::now() + Duration::from_secs(2),
                my_accept,
                Expect {
                    rank: None,
                    ranks,
                    scalar: accept_scalar,
                },
                &mut |_| Ok(()),
            )
            .map(|(h, _)| h)
        });
        let my_dial = Hello {
            version: PROTOCOL_VERSION,
            rank: 0,
            ranks: ranks as u32,
            scalar: dial_scalar,
            listen_port: 0,
            now_ns: 0,
        };
        let dialed = connect_handshake(
            &addr,
            my_dial,
            Expect {
                rank: expect_rank,
                ranks,
                scalar: dial_scalar,
            },
            &cfg,
        );
        (dialed.map(|d| d.peer), acceptor.join().unwrap())
    };

    // Matched: both sides succeed and see each other's identity.
    let (d, a) = run_pair(8, 8, Some(1));
    assert_eq!(d.unwrap().rank, 1);
    assert_eq!(a.unwrap().rank, 0);

    // Scalar mismatch: the acceptor refuses before acking, so both sides
    // fail with a typed handshake error.
    let (d, a) = run_pair(4, 8, Some(1));
    let accept_err = a.unwrap_err();
    assert!(
        matches!(&accept_err, NetError::Handshake { detail, .. } if detail.contains("scalar")),
        "got {accept_err}"
    );
    assert!(matches!(d.unwrap_err(), NetError::Handshake { .. }));

    // Rank mismatch: the ack's identity disagrees with what the dialer
    // expects, so the dialer refuses even though the acceptor acked.
    let (d, _) = run_pair(8, 8, Some(5));
    let dial_err = d.unwrap_err();
    assert!(
        matches!(&dial_err, NetError::Handshake { detail, .. } if detail.contains("rank")),
        "got {dial_err}"
    );
}

#[test]
fn handshake_rejects_a_wrong_protocol_version() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap();
    let dialer = std::thread::spawn(move || {
        // A raw peer speaking a future protocol version.
        let mut stream = TcpStream::connect(addr).unwrap();
        let hello = Hello {
            version: PROTOCOL_VERSION + 7,
            rank: 0,
            ranks: 2,
            scalar: 8,
            listen_port: 0,
            now_ns: 0,
        };
        let frame =
            h2_dist::wire::control_frame(h2_dist::wire::FrameKind::Hello, 0, 1, &hello.encode());
        std::io::Write::write_all(&mut stream, &frame).unwrap();
        stream
    });
    let my = Hello {
        version: PROTOCOL_VERSION,
        rank: 1,
        ranks: 2,
        scalar: 8,
        listen_port: 0,
        now_ns: 0,
    };
    let err = accept_handshake(
        &listener,
        Instant::now() + Duration::from_secs(2),
        my,
        Expect {
            rank: None,
            ranks: 2,
            scalar: 8,
        },
        &mut |_| Ok(()),
    )
    .unwrap_err();
    assert!(
        matches!(&err, NetError::Handshake { detail, .. } if detail.contains("version")),
        "got {err}"
    );
    drop(dialer.join().unwrap());
}

#[test]
fn connect_retries_with_backoff_then_reports_attempts() {
    // A port with nothing listening: grab one, then free it.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let cfg = NetConfig {
        connect_timeout: Duration::from_millis(300),
        ..NetConfig::default()
    };
    let my = Hello {
        version: PROTOCOL_VERSION,
        rank: 0,
        ranks: 2,
        scalar: 8,
        listen_port: 0,
        now_ns: 0,
    };
    let reconnects_before = h2_telemetry::snapshot().counter("net.reconnects");
    let err = connect_handshake(
        &addr,
        my,
        Expect {
            rank: Some(1),
            ranks: 2,
            scalar: 8,
        },
        &cfg,
    )
    .unwrap_err();
    match err {
        NetError::Connect { attempts, .. } => {
            assert!(attempts >= 2, "backoff made {attempts} attempts");
        }
        other => panic!("expected a connect error, got {other}"),
    }
    assert!(
        h2_telemetry::snapshot().counter("net.reconnects") > reconnects_before,
        "retries count on net.reconnects"
    );
}

#[test]
fn a_worker_lost_mid_sweep_is_a_typed_error_within_the_deadline() {
    let h2 = build(500, MemoryMode::Normal);
    let b = rhs(500);
    let shards = 2;
    let cfg = NetConfig::fast_failure(Duration::from_secs(1));

    let bound = BoundCoordinator::bind(h2.clone(), shards, cfg.clone()).unwrap();
    let addr = bound.addr();

    // Rank 0 is a healthy worker; rank 1 joins, completes the mesh, then
    // vanishes before serving any sweep — a process crash, thread-style.
    let healthy = {
        let h2 = h2.clone();
        let addr = addr.clone();
        let cfg = cfg.clone();
        std::thread::spawn(move || run_worker(&h2, 0, shards, &addr, cfg))
    };
    let ghost = {
        let addr = addr.clone();
        let cfg = cfg.clone();
        std::thread::spawn(move || {
            let ranks = shards + 1;
            let my = Hello {
                version: PROTOCOL_VERSION,
                rank: 1,
                ranks: ranks as u32,
                scalar: 8,
                listen_port: 0,
                now_ns: 0,
            };
            let stream = connect_handshake(
                &addr,
                my,
                Expect {
                    rank: Some(shards),
                    ranks,
                    scalar: 8,
                },
                &cfg,
            )
            .unwrap()
            .stream;
            let mut ep = NetEndpoint::new(1, ranks, cfg.clone());
            ep.add_peer(shards, stream).unwrap();
            let spec = ep.recv_plan(shards).unwrap();
            // Complete the worker mesh so rank 0 reaches its serve loop,
            // then die with everything dropped.
            let peer = connect_handshake(
                &spec.workers[0],
                my,
                Expect {
                    rank: Some(0),
                    ranks,
                    scalar: 8,
                },
                &cfg,
            )
            .unwrap()
            .stream;
            drop(peer);
        })
    };

    let coord = bound.accept().unwrap();
    ghost.join().unwrap();

    let started = Instant::now();
    let err = coord.try_matvec(&b).unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(err, NetError::Transport(_)),
        "lost worker must surface as a transport error, got {err}"
    );
    assert!(
        elapsed < Duration::from_secs(8),
        "error took {elapsed:?}, the io_timeout is 1s"
    );

    // The coordinator is poisoned: later sweeps fail fast with the same
    // typed error instead of driving a half-dead mesh.
    let again = Instant::now();
    assert_eq!(coord.try_matvec(&b).unwrap_err(), err);
    assert!(again.elapsed() < Duration::from_millis(100));

    // Tearing the coordinator down releases the healthy worker too.
    drop(coord);
    assert!(healthy.join().unwrap().is_err());
}

#[test]
fn a_worker_with_the_wrong_operator_refuses_the_plan() {
    let h2 = build(500, MemoryMode::Normal);
    let wrong = build(400, MemoryMode::Normal);
    let cfg = NetConfig::fast_failure(Duration::from_secs(1));
    let bound = BoundCoordinator::bind(h2, 1, cfg.clone()).unwrap();
    let addr = bound.addr();
    let worker = std::thread::spawn(move || run_worker(&wrong, 0, 1, &addr, cfg));
    let coord = bound.accept().unwrap();
    let err = worker.join().unwrap().unwrap_err();
    assert!(
        matches!(&err, NetError::PlanMismatch { detail } if detail.contains("dimension")),
        "got {err}"
    );
    // The worker exited, so the coordinator's next sweep fails typed.
    assert!(coord.try_matvec(&rhs(500)).is_err());
}
