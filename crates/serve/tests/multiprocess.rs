//! Multi-process integration tests: real `h2serve shard-worker` child
//! processes serving the distributed five-sweep matvec over TCP against an
//! in-test coordinator.
//!
//! These tests spawn OS processes and open loopback sockets, so they are
//! `#[ignore]`d from the default `cargo test` run; `check.sh` runs them
//! explicitly under a hard timeout:
//!
//! ```text
//! cargo test -p h2-serve --test multiprocess -- --ignored --test-threads=1
//! ```
//!
//! Covered: bit-identity of the TCP deployment against both the serial
//! apply and the in-process channel mesh (shards {2, 4}, both memory
//! modes); fault injection — a worker killed mid-service surfaces as a
//! typed error within the configured timeout, the error references the
//! flight-recorder dumps, and shutdown still completes; and distributed
//! tracing — coordinator and worker spans merge into one offset-corrected
//! cluster trace whose worker roundtrips nest under the per-batch spans.

use h2_core::{BasisMethod, H2Config, H2Matrix, H2Operator, MemoryMode};
use h2_dist::net::{BoundCoordinator, NetConfig, NetError, ShardCoordinator};
use h2_dist::ShardedH2;
use h2_kernels::Coulomb;
use h2_points::gen;
use h2_serve::codec;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn build(n: usize, mode: MemoryMode) -> Arc<H2Matrix> {
    let pts = gen::uniform_cube(n, 3, 17);
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-6, 3),
        mode,
        leaf_size: 32,
        eta: 0.7,
        ..H2Config::default()
    };
    Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg))
}

fn rhs(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i + 11 * seed) as f64 * 0.43).sin())
        .collect()
}

/// Persists `h2` to a unique temp file the worker processes load from.
fn save_operator(h2: &H2Matrix, tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("h2-multiprocess-{}-{tag}.h2op", std::process::id()));
    codec::save(h2, &path).expect("save operator");
    path
}

/// Spawns `shards` real `h2serve shard-worker` processes against a bound
/// coordinator and admits them.
fn deploy(
    h2: Arc<H2Matrix>,
    file: &PathBuf,
    shards: usize,
    cfg: NetConfig,
    io_timeout_ms: Option<u64>,
) -> Result<ShardCoordinator<f64>, NetError> {
    // The coordinator arms its recorder from `cfg`; workers are separate
    // processes, so the same directory rides along as a CLI flag.
    let flight_dir = cfg.flight_dir.clone();
    BoundCoordinator::bind(h2, shards, cfg)?.spawn(|rank, addr| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_h2serve"));
        cmd.args(["shard-worker", "--connect", addr])
            .arg("--file")
            .arg(file)
            .args(["--rank", &rank.to_string()])
            .args(["--shards", &shards.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(ms) = io_timeout_ms {
            cmd.args(["--io-timeout-ms", &ms.to_string()]);
        }
        if let Some(dir) = &flight_dir {
            cmd.arg("--flight-dir").arg(dir);
        }
        cmd.spawn().map_err(|e| NetError::Spawn {
            detail: format!("rank {rank}: {e}"),
        })
    })
}

#[test]
#[ignore = "spawns worker processes; run via check.sh"]
fn worker_processes_match_serial_and_channel_mesh_bitwise() {
    for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
        let h2 = build(700, mode);
        let file = save_operator(&h2, &format!("consistency-{}", mode.name()));
        for shards in [2usize, 4] {
            let coord =
                deploy(h2.clone(), &file, shards, NetConfig::default(), None).expect("deployment");
            let mesh = ShardedH2::new(h2.clone(), shards).expect("channel mesh");
            for s in 0..2 {
                let b = rhs(h2.n(), s);
                let over_tcp = coord.try_matvec(&b).expect("distributed matvec");
                assert_eq!(
                    over_tcp,
                    h2.matvec(&b),
                    "vs serial: {mode:?} x{shards} #{s}"
                );
                assert_eq!(
                    over_tcp,
                    mesh.matvec::<f64>(&b),
                    "vs channel mesh: {mode:?} x{shards} #{s}"
                );
            }
            coord.shutdown().expect("clean drain");
        }
        std::fs::remove_file(&file).ok();
    }
}

#[test]
#[ignore = "spawns worker processes; run via check.sh"]
fn killed_worker_is_a_typed_error_within_the_deadline_and_shutdown_completes() {
    let io_timeout = Duration::from_secs(2);
    let h2 = build(500, MemoryMode::OnTheFly);
    let file = save_operator(&h2, "fault");
    let flight = std::env::temp_dir().join(format!("h2-flight-test-{}", std::process::id()));
    std::fs::create_dir_all(&flight).expect("flight dir");
    let mut cfg = NetConfig::fast_failure(io_timeout);
    cfg.flight_dir = Some(flight.clone());
    let coord = deploy(
        h2.clone(),
        &file,
        2,
        cfg,
        Some(io_timeout.as_millis() as u64),
    )
    .expect("deployment");

    // Healthy first: the deployment serves before the fault.
    let b = rhs(h2.n(), 0);
    assert_eq!(coord.try_matvec(&b).expect("healthy matvec"), h2.matvec(&b));

    // Kill rank 0 and sweep again: a typed transport error within the
    // configured timeout (plus scheduling slack), never a hang.
    coord.kill_worker(0).expect("kill rank 0");
    let t0 = Instant::now();
    let err = coord
        .try_matvec(&b)
        .expect_err("sweep against a dead worker");
    assert!(
        matches!(err, NetError::Transport(_)),
        "expected a transport error, got {err:?}"
    );
    assert!(
        t0.elapsed() < io_timeout + Duration::from_secs(6),
        "error took {:?}",
        t0.elapsed()
    );

    // The flight recorder leaves a postmortem trail: the typed error points
    // at the dump directory, the killed worker's last per-sweep dump is on
    // disk (a SIGKILL runs no hooks — the per-sweep dump is the design),
    // and the coordinator dumped its own ring when it poisoned itself.
    let msg = err.to_string();
    assert!(
        msg.contains("flight recorder:"),
        "error does not reference the flight recorder: {msg}"
    );
    let rank0_dump = flight.join("h2-flight-rank0.json");
    assert!(
        rank0_dump.exists(),
        "killed worker left no dump at {}",
        rank0_dump.display()
    );
    let coord_dump = flight.join("h2-flight-coordinator.json");
    assert!(
        coord_dump.exists(),
        "poisoned coordinator left no dump at {}",
        coord_dump.display()
    );
    let dump = std::fs::read_to_string(&rank0_dump).expect("readable dump");
    assert!(
        dump.contains("\"entries\""),
        "dump is not the recorder format: {}",
        &dump[..dump.len().min(200)]
    );

    // The coordinator is poisoned: later calls fail fast with the same
    // error instead of feeding a half-swept mesh.
    let t1 = Instant::now();
    assert_eq!(coord.try_matvec(&b).expect_err("poisoned"), err);
    assert!(t1.elapsed() < Duration::from_millis(100));

    // Shutdown still completes within the timeout budget. The surviving
    // worker lost its peer mid-sweep and exits with a typed error (a
    // non-zero status shutdown reports), so either outcome is bounded —
    // what matters is that nothing hangs.
    let t2 = Instant::now();
    let _ = coord.shutdown();
    assert!(
        t2.elapsed() < 2 * io_timeout + Duration::from_secs(6),
        "shutdown took {:?}",
        t2.elapsed()
    );
    std::fs::remove_file(&file).ok();
    std::fs::remove_dir_all(&flight).ok();
}

#[test]
#[ignore = "spawns worker processes; run via check.sh"]
fn cluster_trace_merges_all_ranks_with_offset_corrected_nesting() {
    let h2 = build(600, MemoryMode::OnTheFly);
    let file = save_operator(&h2, "trace");
    let cfg = NetConfig {
        trace: true,
        ..NetConfig::default()
    };
    let coord = deploy(h2.clone(), &file, 2, cfg, None).expect("deployment");
    for s in 0..3 {
        let b = rhs(h2.n(), s);
        assert_eq!(
            coord.try_matvec(&b).expect("traced matvec"),
            h2.matvec(&b),
            "tracing must not perturb the result"
        );
    }

    let procs = coord.cluster_spans();
    assert_eq!(procs.len(), 3, "two workers + the coordinator");
    let coordp = procs
        .iter()
        .find(|p| p.name == "coordinator")
        .expect("coordinator process row");
    assert_eq!(coordp.pid, 2, "coordinator pid is `shards` by convention");
    // One traced roundtrip per sweep on the coordinator, all with distinct
    // nonzero trace ids. (The registry is process-global, so other tests'
    // untraced spans may coexist — filter on the trace id.)
    let coord_rts: Vec<_> = coordp
        .spans
        .iter()
        .filter(|s| s.name == "net.roundtrip" && s.trace != 0)
        .collect();
    assert_eq!(coord_rts.len(), 3, "one traced batch span per sweep");
    let mut ids: Vec<u64> = coord_rts.iter().map(|s| s.trace).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 3, "trace ids are distinct per batch");

    // Allow the handshake offset estimate this much error on loopback.
    const SLOP_NS: i128 = 5_000_000;
    for p in procs.iter().filter(|p| p.pid < 2) {
        let rts: Vec<_> = p
            .spans
            .iter()
            .filter(|s| s.name == "net.roundtrip" && s.trace != 0)
            .collect();
        assert_eq!(rts.len(), 3, "rank {} ships one span set per sweep", p.pid);
        let label = format!("rank={}", p.pid);
        for w in &rts {
            assert_eq!(w.label.as_deref(), Some(label.as_str()));
            let c = coord_rts
                .iter()
                .find(|c| c.trace == w.trace)
                .expect("worker trace id matches a coordinator batch");
            // Offset-corrected containment: the worker's service window sits
            // inside the coordinator's roundtrip for the same trace id.
            let ws = w.start_ns as i128 + p.offset_ns as i128;
            let we = ws + w.dur_ns as i128;
            let cs = c.start_ns as i128 + coordp.offset_ns as i128;
            let ce = cs + c.dur_ns as i128;
            assert!(
                ws >= cs - SLOP_NS && we <= ce + SLOP_NS,
                "rank {} span [{ws}, {we}] outside coordinator [{cs}, {ce}] for trace {}",
                p.pid,
                w.trace
            );
        }
        // The workers' five-sweep phases ride along under the same traces.
        assert!(
            p.spans
                .iter()
                .any(|s| s.name == "dist.shard" && s.trace != 0),
            "rank {} shipped no phase spans",
            p.pid
        );
    }

    // The merged export is the chrome://tracing shape Perfetto loads: one
    // process_name metadata row per pid plus complete events.
    let json = coord.cluster_trace_json();
    assert!(json.starts_with("{\"traceEvents\":["), "not a trace object");
    for pid in 0..3u32 {
        assert!(
            json.contains(&format!("\"ph\":\"M\",\"pid\":{pid}")),
            "missing process row for pid {pid}"
        );
    }
    assert!(json.contains("\"ph\":\"X\""), "no complete events");

    coord.shutdown().expect("clean drain");
    std::fs::remove_file(&file).ok();
}
