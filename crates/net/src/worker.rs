//! The shard worker: one process (or thread) serving one shard rank of
//! the distributed five-sweep matvec over TCP.
//!
//! Lifecycle, driven by [`run_worker`]:
//!
//! 1. **Join** — bind a peer listener, dial the coordinator with bounded
//!    backoff, handshake as `rank` of `shards + 1`.
//! 2. **Plan** — receive the [`PlanSpec`], check it against the loaded
//!    operator, and reconstruct the [`TreePartition`] deterministically
//!    (the partition itself never travels — only the cut parameters do).
//! 3. **Interconnect** — dial every lower-ranked worker from the plan's
//!    address table and accept every higher-ranked one, so the link graph
//!    is acyclic and the mesh forms without deadlock.
//! 4. **Serve** — wait for sweeps (the coordinator's `Scatter` opens one)
//!    and run [`run_shard`] for each; liveness `Ping`s are answered by the
//!    endpoint's pump even while idle.
//! 5. **Drain** — on the coordinator's `Drain` frame, flush and return a
//!    [`WorkerReport`] so callers can reconcile traffic accounting.
//!
//! Any failure — lost coordinator, dead peer, plan mismatch — surfaces as
//! a typed [`NetError`] instead of a hang; the `h2serve shard-worker`
//! wrapper turns that into a non-zero exit.

use crate::config::NetConfig;
use crate::endpoint::{accept_handshake, connect_handshake, Event, Expect, NetEndpoint};
use crate::error::NetError;
use h2_core::H2MatrixS;
use h2_dist::wire::{Hello, PlanSpec, TelemetryMsg, PROTOCOL_VERSION};
use h2_dist::{run_shard, TrafficStats, TreePartition};
use h2_linalg::Scalar;
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Instant;

/// What a worker did over its lifetime, returned when it drains cleanly.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// The shard rank served.
    pub rank: usize,
    /// Sweeps (distributed matvecs) executed.
    pub sweeps: u64,
    /// Endpoint traffic counters, directly comparable to the channel
    /// mesh's per-rank [`TrafficStats`].
    pub traffic: TrafficStats,
}

/// Validates the received plan against the locally loaded operator.
fn check_plan<S: Scalar>(
    spec: &PlanSpec,
    h2: &H2MatrixS<S>,
    shards: usize,
) -> Result<(), NetError> {
    let fail = |detail: String| Err(NetError::PlanMismatch { detail });
    if spec.shards as usize != shards {
        return fail(format!(
            "plan is for {} shards, this worker was started for {shards}",
            spec.shards
        ));
    }
    if spec.n != h2.n() as u64 {
        return fail(format!(
            "plan expects an operator of dimension {}, loaded {}",
            spec.n,
            h2.n()
        ));
    }
    if spec.accum != f32::CODE && spec.accum != f64::CODE {
        return fail(format!(
            "unsupported accumulator scalar code {}",
            spec.accum
        ));
    }
    if spec.workers.len() != shards {
        return fail(format!(
            "plan's address table has {} entries for {shards} shards",
            spec.workers.len()
        ));
    }
    Ok(())
}

/// Serves shard `rank` of `shards` from the operator `h2`, connecting to
/// the coordinator at `coord_addr`. Blocks until the coordinator drains
/// this worker (clean exit) or a typed failure occurs.
///
/// The worker applies blocks through the operator's own cache, if any —
/// the same fallback the in-process [`ShardedH2`](h2_dist::ShardedH2)
/// uses, so results stay bit-identical across transports.
pub fn run_worker<S: Scalar>(
    h2: &H2MatrixS<S>,
    rank: usize,
    shards: usize,
    coord_addr: &str,
    cfg: NetConfig,
) -> Result<WorkerReport, NetError> {
    if rank >= shards {
        return Err(NetError::BadRequest {
            detail: format!("rank {rank} out of range for {shards} shards"),
        });
    }
    let ranks = shards + 1;
    let coord = shards;

    // The peer listener must exist before the coordinator learns our
    // address (it travels in the Hello), so bind first.
    let listener = TcpListener::bind(&cfg.listen_addr).map_err(|e| NetError::Connect {
        addr: cfg.listen_addr.clone(),
        attempts: 0,
        detail: format!("could not bind the peer listener: {e}"),
    })?;
    listener
        .set_nonblocking(true)
        .map_err(|e| NetError::Connect {
            addr: cfg.listen_addr.clone(),
            attempts: 0,
            detail: format!("could not configure the peer listener: {e}"),
        })?;
    let listen_port = listener
        .local_addr()
        .map_err(|e| NetError::Connect {
            addr: cfg.listen_addr.clone(),
            attempts: 0,
            detail: e.to_string(),
        })?
        .port();

    // Flight recorder: keep a black box and dump it on panic. SIGKILL
    // (the `kill_worker` fault injection) runs no hook, so the serve loop
    // below also dumps after joining and after every sweep — the file
    // from the last completed step survives an uncatchable death.
    let flight_path: Option<PathBuf> = cfg
        .flight_dir
        .as_ref()
        .map(|dir| dir.join(format!("h2-flight-rank{rank}.json")));
    if let Some(path) = &flight_path {
        h2_telemetry::install_flight_panic_hook(path.clone());
        h2_telemetry::flight_event("worker.start", format!("rank {rank} of {shards} shards"));
    }

    let my = Hello {
        version: PROTOCOL_VERSION,
        rank: rank as u32,
        ranks: ranks as u32,
        scalar: S::CODE,
        listen_port,
        now_ns: 0, // stamped by the handshake at send time
    };
    let dialed = connect_handshake(
        coord_addr,
        my,
        Expect {
            rank: Some(coord),
            ranks,
            scalar: S::CODE,
        },
        &cfg,
    )?;
    // `coordinator_clock − worker_clock`: shipped with every span report
    // so the coordinator can merge this worker's spans onto its timeline.
    let clock_offset_ns = dialed.clock_offset_ns;
    let mut ep = NetEndpoint::new(rank, ranks, cfg.clone());
    ep.add_peer(coord, dialed.stream)?;

    let spec = ep.recv_plan(coord)?;
    check_plan(&spec, h2, shards)?;
    let plan = TreePartition::with_level(h2.tree(), h2.lists(), shards, spec.level as usize)
        .map_err(|e| NetError::PlanMismatch {
            detail: format!("partition reconstruction failed: {e}"),
        })?;

    // Worker mesh: higher rank dials lower rank's listener, so the link
    // graph is acyclic and every pair connects exactly once.
    for peer in 0..rank {
        let dialed = connect_handshake(
            &spec.workers[peer],
            my,
            Expect {
                rank: Some(peer),
                ranks,
                scalar: S::CODE,
            },
            &cfg,
        )?;
        ep.add_peer(peer, dialed.stream)?;
    }
    let deadline = Instant::now() + cfg.connect_timeout;
    let mut joined = vec![false; shards];
    for _ in rank + 1..shards {
        let (hello, stream) = {
            let mut check = |h: &Hello| -> Result<(), String> {
                let r = h.rank as usize;
                if r <= rank || r >= shards {
                    return Err(format!("rank {r} must not dial rank {rank}'s listener"));
                }
                if joined[r] {
                    return Err(format!("rank {r} connected twice"));
                }
                Ok(())
            };
            accept_handshake(
                &listener,
                deadline,
                my,
                Expect {
                    rank: None,
                    ranks,
                    scalar: S::CODE,
                },
                &mut check,
            )?
        };
        joined[hello.rank as usize] = true;
        ep.add_peer(hello.rank as usize, stream)?;
    }

    if let Some(path) = &flight_path {
        h2_telemetry::flight_event("worker.joined", format!("mesh of {ranks} ranks complete"));
        let _ = h2_telemetry::flight_dump_to(path);
    }

    // Serve sweeps until drained. The pump answers pings while idle.
    // When the plan enables tracing, each sweep adopts the coordinator's
    // trace context, runs under a labeled `net.roundtrip` span, and ships
    // the process's span buffer back as a report.
    let tracing = spec.trace != 0;
    if tracing {
        // Spans recorded before serving (operator load, the join above)
        // belong to no sweep; clear them so the first report is the first
        // sweep's.
        let _ = h2_telemetry::take_spans();
    }
    let cache = h2.cache().map(|c| &**c);
    let mut sweeps = 0u64;
    while let Event::SweepReady = ep.wait_event(coord, None)? {
        {
            let _trace = ep.take_trace_ctx().map(h2_telemetry::trace_scope);
            let _sp = tracing
                .then(|| h2_telemetry::span_labeled("net.roundtrip", format!("rank={rank}")));
            if spec.accum == f64::CODE {
                run_shard::<S, f64, _>(h2, &plan, rank, cache, &mut ep)?;
            } else {
                run_shard::<S, f32, _>(h2, &plan, rank, cache, &mut ep)?;
            }
        }
        sweeps += 1;
        if tracing {
            ep.send_telemetry(
                coord,
                &TelemetryMsg::SpanReport {
                    rank: rank as u32,
                    offset_ns: clock_offset_ns,
                    spans: h2_telemetry::take_spans(),
                },
            )?;
        }
        if let Some(path) = &flight_path {
            h2_telemetry::flight_event("worker.sweep_done", format!("sweep {sweeps}"));
            let _ = h2_telemetry::flight_dump_to(path);
        }
    }
    ep.flush_all()?;
    if let Some(path) = &flight_path {
        h2_telemetry::flight_event("worker.drained", format!("after {sweeps} sweeps"));
        let _ = h2_telemetry::flight_dump_to(path);
    }
    Ok(WorkerReport {
        rank,
        sweeps,
        traffic: ep.traffic(),
    })
}
