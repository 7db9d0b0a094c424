//! The shard coordinator: owns the listener workers join, distributes the
//! plan, and drives distributed matvecs over TCP.
//!
//! Construction is two-phase so callers can learn the address before any
//! worker exists:
//!
//! 1. [`BoundCoordinator::bind`] computes the [`TreePartition`] and binds
//!    the listener — [`addr`](BoundCoordinator::addr) is now routable.
//! 2. Workers are started (spawned as child processes via
//!    [`spawn`](BoundCoordinator::spawn), or launched externally —
//!    threads, other machines) and dial in; [`accept`](BoundCoordinator::accept)
//!    handshakes each one, builds the worker address table from the
//!    `Hello`s, ships every worker the [`PlanSpec`], and yields a
//!    [`ShardCoordinator`].
//!
//! The coordinator is an [`H2Operator`] in the accumulator `A` that
//! `accept`/`spawn` choose (the storage scalar by default; `f64` over an
//! `f32` operator is mixed precision): [`ShardCoordinator::try_matvec`]
//! runs the coordinator side of the five-sweep protocol over the socket
//! endpoint, bit-identical to the in-process channel mesh and the serial
//! sweep in the same `(S, A)`. A mid-sweep transport failure poisons the
//! coordinator — the sweep state of the remaining workers is indeterminate
//! — so every later call fails fast with the original error instead of
//! feeding a corrupted mesh.

use super::config::NetConfig;
use super::endpoint::{accept_handshake, Expect, NetEndpoint};
use super::error::NetError;
use crate::wire::{FrameKind, Hello, PlanSpec, TelemetryMsg, PROTOCOL_VERSION};
use crate::{run_coordinator, TrafficStats, TransportError, TreePartition};
use h2_core::{ApplyError, CacheStats, H2MatrixS, H2Operator};
use h2_linalg::{MatrixS, Scalar};
use h2_telemetry::ProcessSpans;
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::Child;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A coordinator that has bound its listener but not yet admitted workers.
pub struct BoundCoordinator<S: Scalar> {
    h2: Arc<H2MatrixS<S>>,
    plan: TreePartition,
    listener: TcpListener,
    addr: SocketAddr,
    cfg: NetConfig,
}

impl<S: Scalar> BoundCoordinator<S> {
    /// Computes the partition for `shards` ranks and binds the join
    /// listener on `cfg.listen_addr`.
    pub fn bind(h2: Arc<H2MatrixS<S>>, shards: usize, cfg: NetConfig) -> Result<Self, NetError> {
        let plan = TreePartition::new(h2.tree(), h2.lists(), shards).map_err(|e| {
            NetError::PlanMismatch {
                detail: e.to_string(),
            }
        })?;
        let listener = TcpListener::bind(&cfg.listen_addr).map_err(|e| NetError::Connect {
            addr: cfg.listen_addr.clone(),
            attempts: 0,
            detail: format!("could not bind the coordinator listener: {e}"),
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| NetError::Connect {
                addr: cfg.listen_addr.clone(),
                attempts: 0,
                detail: format!("could not configure the coordinator listener: {e}"),
            })?;
        let addr = listener.local_addr().map_err(|e| NetError::Connect {
            addr: cfg.listen_addr.clone(),
            attempts: 0,
            detail: e.to_string(),
        })?;
        Ok(BoundCoordinator {
            h2,
            plan,
            listener,
            addr,
            cfg,
        })
    }

    /// The address workers must dial.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// The partition plan workers will reconstruct.
    pub fn plan(&self) -> &TreePartition {
        &self.plan
    }

    /// Launches one child process per shard rank via `launch(rank, addr)`
    /// and admits them all; products accumulate in `A`. Children are
    /// killed if admission fails, and remain owned by the coordinator for
    /// [`ShardCoordinator::shutdown`] and fault injection
    /// ([`ShardCoordinator::kill_worker`]).
    pub fn spawn<A: Scalar>(
        self,
        mut launch: impl FnMut(usize, &str) -> Result<Child, NetError>,
    ) -> Result<ShardCoordinator<S, A>, NetError> {
        let addr = self.addr();
        let mut children: Vec<Option<Child>> = Vec::with_capacity(self.plan.shards);
        for rank in 0..self.plan.shards {
            match launch(rank, &addr) {
                Ok(c) => children.push(Some(c)),
                Err(e) => {
                    kill_all(&mut children);
                    return Err(e);
                }
            }
        }
        self.admit(children)
    }

    /// Admits `shards` externally started workers (threads, remote
    /// processes) without owning any process handles; products accumulate
    /// in `A`.
    pub fn accept<A: Scalar>(self) -> Result<ShardCoordinator<S, A>, NetError> {
        let shards = self.plan.shards;
        self.admit((0..shards).map(|_| None).collect())
    }

    fn admit<A: Scalar>(
        self,
        mut children: Vec<Option<Child>>,
    ) -> Result<ShardCoordinator<S, A>, NetError> {
        self.admit_inner(&mut children)
            .inspect_err(|_| kill_all(&mut children))
    }

    fn admit_inner<A: Scalar>(
        &self,
        children: &mut [Option<Child>],
    ) -> Result<ShardCoordinator<S, A>, NetError> {
        let shards = self.plan.shards;
        let ranks = shards + 1;
        let my = Hello {
            version: PROTOCOL_VERSION,
            rank: shards as u32,
            ranks: ranks as u32,
            scalar: S::CODE,
            listen_port: self.addr.port(),
            now_ns: 0, // stamped by the handshake at ack time
        };
        let expect = Expect {
            rank: None,
            ranks,
            scalar: S::CODE,
        };
        // Workers may still be loading their operator when we start
        // listening; give each join the full connect + handshake budget.
        let deadline = Instant::now() + self.cfg.connect_timeout + self.cfg.handshake_timeout;
        let mut ep = NetEndpoint::new(shards, ranks, self.cfg.clone());
        let mut workers: Vec<Option<String>> = vec![None; shards];
        for _ in 0..shards {
            let (hello, stream) = {
                let mut check = |h: &Hello| -> Result<(), String> {
                    let r = h.rank as usize;
                    if r >= shards {
                        return Err(format!("rank {r} is not a shard (shards = {shards})"));
                    }
                    if workers[r].is_some() {
                        return Err(format!("rank {r} joined twice"));
                    }
                    Ok(())
                };
                accept_handshake(&self.listener, deadline, my, expect, &mut check)?
            };
            let r = hello.rank as usize;
            let ip = stream
                .peer_addr()
                .map_err(|e| NetError::Handshake {
                    addr: "<unknown>".into(),
                    detail: e.to_string(),
                })?
                .ip();
            workers[r] = Some(format!("{ip}:{}", hello.listen_port));
            ep.add_peer(r, stream)?;
        }
        let spec = PlanSpec {
            shards: shards as u32,
            level: self.plan.level as u32,
            n: self.h2.n() as u64,
            accum: A::CODE,
            trace: u8::from(self.cfg.trace),
            workers: workers
                .into_iter()
                .map(|w| w.expect("every rank joined"))
                .collect(),
        };
        let payload = spec.encode();
        for r in 0..shards {
            ep.send_control(r, FrameKind::Plan, &payload)?;
        }
        if let Some(dir) = &self.cfg.flight_dir {
            h2_telemetry::install_flight_panic_hook(dir.join("h2-flight-coordinator.json"));
            h2_telemetry::flight_event("coordinator.admitted", format!("{shards} shards"));
        }
        if self.cfg.trace {
            // Spans recorded before serving (operator build, admission)
            // belong to no sweep; clear them so the merged cluster trace
            // starts at the first matvec.
            let _ = h2_telemetry::take_spans();
        }
        Ok(ShardCoordinator {
            h2: self.h2.clone(),
            plan: self.plan.clone(),
            ep: Mutex::new(ep),
            children: Mutex::new(children.iter_mut().map(|c| c.take()).collect()),
            poisoned: Mutex::new(None),
            trace: Mutex::new(
                (0..=shards)
                    .map(|r| ProcessSpans {
                        pid: r as u32,
                        name: if r < shards {
                            format!("rank{r}")
                        } else {
                            "coordinator".into()
                        },
                        offset_ns: 0,
                        spans: Vec::new(),
                    })
                    .collect(),
            ),
            cfg: self.cfg.clone(),
            accum: PhantomData,
        })
    }
}

/// Where rank `peer`'s flight recorder dumps inside `dir`, for error
/// annotations. Must match the path [`run_worker`](super::run_worker)
/// derives from the same config.
fn worker_flight_ref(dir: &Path, peer: usize) -> String {
    dir.join(format!("h2-flight-rank{peer}.json"))
        .display()
        .to_string()
}

fn kill_all(children: &mut [Option<Child>]) {
    for slot in children.iter_mut() {
        if let Some(mut c) = slot.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// A running distributed deployment: `shards` connected workers plus this
/// coordinator, ready to serve matvecs of an operator stored in `S` that
/// accumulate in `A`.
pub struct ShardCoordinator<S: Scalar, A: Scalar = S> {
    h2: Arc<H2MatrixS<S>>,
    plan: TreePartition,
    ep: Mutex<NetEndpoint>,
    children: Mutex<Vec<Option<Child>>>,
    /// First mid-sweep failure; once set, every matvec fails fast with it.
    poisoned: Mutex<Option<NetError>>,
    /// The cluster trace, one row per rank (index = pid): each worker's
    /// latest clock-offset estimate (`coordinator_clock − worker_clock`,
    /// ns) and the spans of its reports, then this process's own spans,
    /// drained from the telemetry registry when the trace is read. Only
    /// fed when `cfg.trace` is set.
    trace: Mutex<Vec<ProcessSpans>>,
    cfg: NetConfig,
    accum: PhantomData<fn() -> A>,
}

impl<S: Scalar, A: Scalar> ShardCoordinator<S, A> {
    /// Number of shard ranks.
    pub fn shards(&self) -> usize {
        self.plan.shards
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.h2.n()
    }

    /// The partition plan.
    pub fn plan(&self) -> &TreePartition {
        &self.plan
    }

    /// The coordinator endpoint's traffic counters, comparable to the
    /// channel mesh's coordinator [`TrafficStats`] plus the TCP-only
    /// control frames (handshakes are pre-charged identically by both).
    pub fn traffic(&self) -> TrafficStats {
        self.ep.lock().unwrap().traffic()
    }

    /// `y = Â b` over the worker mesh; bit-identical to the serial and
    /// channel-mesh products. The whole round trip is measured as the
    /// `net.roundtrip` telemetry span.
    pub fn try_matvec(&self, b: &[A]) -> Result<Vec<A>, NetError> {
        if let Some(e) = &*self.poisoned.lock().unwrap() {
            return Err(e.clone());
        }
        if b.len() != self.h2.n() {
            return Err(NetError::BadRequest {
                detail: format!(
                    "matvec of dimension {} against an operator of dimension {}",
                    b.len(),
                    self.h2.n()
                ),
            });
        }
        let mut ep = self.ep.lock().unwrap();
        // Each traced batch gets a trace id: the caller's ambient one when
        // a scope is already open (the service tags whole requests), a
        // fresh one otherwise. Workers adopt it from a `TraceCtx` frame
        // that precedes the sweep's `Scatter` on the same ordered stream.
        let trace = self.cfg.trace.then(|| match h2_telemetry::current_trace() {
            0 => h2_telemetry::next_trace_id(),
            t => t,
        });
        let _scope = trace.map(h2_telemetry::trace_scope);
        let swept = (|| {
            if let Some(t) = trace {
                for r in 0..self.plan.shards {
                    ep.send_telemetry(r, &TelemetryMsg::TraceCtx(t))?;
                }
            }
            let _sp = h2_telemetry::span("net.roundtrip");
            run_coordinator::<S, A, _>(&self.h2, &self.plan, &mut *ep, b)
        })();
        match swept {
            Ok((y, _times)) => {
                if trace.is_some() {
                    for r in 0..self.plan.shards {
                        match ep.recv_span_report(r) {
                            Ok((rank, offset_ns, spans)) if (rank as usize) < self.plan.shards => {
                                let row = &mut self.trace.lock().unwrap()[rank as usize];
                                row.offset_ns = offset_ns;
                                row.spans.extend(spans);
                            }
                            Ok((rank, ..)) => {
                                return Err(self.poison(TransportError::Protocol {
                                    detail: format!("span report from out-of-range rank {rank}"),
                                }))
                            }
                            Err(e) => return Err(self.poison(e)),
                        }
                    }
                }
                Ok(y)
            }
            Err(e) => Err(self.poison(e)),
        }
    }

    /// Records the first mid-sweep failure — annotated with
    /// flight-recorder pointers when the black box is enabled — so every
    /// later call fails fast with it.
    fn poison(&self, e: TransportError) -> NetError {
        let e = self.annotate_flight(NetError::from(e));
        *self.poisoned.lock().unwrap() = Some(e.clone());
        e
    }

    /// Dumps the coordinator's own flight ring and names the implicated
    /// worker's dump file inside the error, so the postmortem artifacts
    /// are one `grep "flight recorder"` away from the failure report.
    fn annotate_flight(&self, e: NetError) -> NetError {
        let Some(dir) = &self.cfg.flight_dir else {
            return e;
        };
        h2_telemetry::flight_event("coordinator.poisoned", e.to_string());
        let _ = h2_telemetry::flight_dump_to(&dir.join("h2-flight-coordinator.json"));
        match e {
            NetError::Transport(TransportError::Disconnected { peer, detail }) => {
                NetError::Transport(TransportError::Disconnected {
                    peer,
                    detail: format!(
                        "{detail}; flight recorder: {}",
                        worker_flight_ref(dir, peer)
                    ),
                })
            }
            NetError::Transport(TransportError::Timeout {
                peer,
                waiting_for,
                after_ms,
            }) => NetError::Transport(TransportError::Timeout {
                peer,
                waiting_for: format!(
                    "{waiting_for}; flight recorder: {}",
                    worker_flight_ref(dir, peer)
                ),
                after_ms,
            }),
            other => other,
        }
    }

    /// The merged cluster trace collected so far: every worker's reported
    /// spans (pid = rank, shifted onto the coordinator clock at export
    /// time) plus this process's own (pid = `shards`, the reference
    /// clock). Only populated when the config enables tracing.
    pub fn cluster_spans(&self) -> Vec<ProcessSpans> {
        let mut procs = self.trace.lock().unwrap();
        if self.cfg.trace {
            procs[self.plan.shards]
                .spans
                .extend(h2_telemetry::take_spans());
        }
        procs.clone()
    }

    /// [`cluster_spans`](Self::cluster_spans) rendered as one
    /// chrome://tracing / Perfetto JSON document.
    pub fn cluster_trace_json(&self) -> String {
        h2_telemetry::cluster_trace_json(&self.cluster_spans())
    }

    /// Liveness probe of one worker: round-trip time of a `Ping`.
    pub fn ping(&self, rank: usize) -> Result<Duration, NetError> {
        if rank >= self.plan.shards {
            return Err(NetError::BadRequest {
                detail: format!("rank {rank} out of range"),
            });
        }
        Ok(self.ep.lock().unwrap().ping(rank)?)
    }

    /// Probes every worker; index = rank.
    pub fn health(&self) -> Vec<Result<Duration, NetError>> {
        (0..self.plan.shards).map(|r| self.ping(r)).collect()
    }

    /// Fault injection and last-resort cleanup: kills the child process
    /// serving `rank`. Only available for workers this coordinator
    /// spawned.
    pub fn kill_worker(&self, rank: usize) -> Result<(), NetError> {
        let mut children = self.children.lock().unwrap();
        match children.get_mut(rank).and_then(|slot| slot.take()) {
            Some(mut child) => {
                let _ = child.kill();
                let _ = child.wait();
                Ok(())
            }
            None => Err(NetError::Shutdown {
                detail: format!("no child process handle for rank {rank}"),
            }),
        }
    }

    /// Graceful teardown: asks every live worker to drain and waits for
    /// spawned children to exit within the `io_timeout`. Workers that were
    /// already gone (e.g. killed for fault injection) are skipped; a live
    /// worker that ignores the drain is killed and reported as an unclean
    /// [`NetError::Shutdown`].
    pub fn shutdown(self) -> Result<(), NetError> {
        let mut issues = Vec::new();
        {
            let mut ep = self.ep.lock().unwrap();
            for r in 0..self.plan.shards {
                if ep.peer_alive(r) {
                    // A send failure here just means the worker died
                    // between sweeps; the child-wait below still applies.
                    let _ = ep.send_drain(r);
                }
            }
        }
        let deadline = Instant::now() + self.cfg.io_timeout;
        let mut children = self.children.lock().unwrap();
        for (r, slot) in children.iter_mut().enumerate() {
            let Some(child) = slot else { continue };
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        if !status.success() {
                            issues.push(format!("rank {r} exited with {status}"));
                        }
                        *slot = None;
                        break;
                    }
                    Ok(None) if Instant::now() >= deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        *slot = None;
                        issues.push(format!(
                            "rank {r} ignored the drain for {:?} and was killed",
                            self.cfg.io_timeout
                        ));
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                    Err(e) => {
                        issues.push(format!("rank {r}: wait failed: {e}"));
                        *slot = None;
                        break;
                    }
                }
            }
        }
        drop(children);
        if issues.is_empty() {
            Ok(())
        } else {
            Err(NetError::Shutdown {
                detail: issues.join("; "),
            })
        }
    }
}

impl<S: Scalar, A: Scalar> Drop for ShardCoordinator<S, A> {
    /// No spawned worker outlives its coordinator: anything not already
    /// drained or killed is killed here.
    fn drop(&mut self) {
        kill_all(&mut self.children.lock().unwrap());
    }
}

impl<S: Scalar, A: Scalar> H2Operator<A> for ShardCoordinator<S, A> {
    fn dims(&self) -> (usize, usize) {
        (self.h2.n(), self.h2.n())
    }

    /// Infallible interface over a fallible backend: delegates to
    /// [`ShardCoordinator::try_matvec`] and panics with the full transport
    /// diagnostic if it fails. Fallible callers (the serving layer, the
    /// solvers' typed paths) use [`H2Operator::try_matvec`] /
    /// [`H2Operator::try_matmat`] instead, which propagate the typed
    /// [`ApplyError`] — this panic is only reachable by callers that chose
    /// the infallible signature.
    fn matvec(&self, b: &[A]) -> Vec<A> {
        match ShardCoordinator::try_matvec(self, b) {
            Ok(y) => y,
            Err(e) => panic!("distributed matvec failed: {e} (use try_matvec for a typed error)"),
        }
    }

    fn matmat(&self, b: &MatrixS<A>) -> MatrixS<A> {
        match H2Operator::try_matmat(self, b) {
            Ok(y) => y,
            Err(e) => panic!("distributed matmat failed: {e} (use try_matmat for a typed error)"),
        }
    }

    fn try_matvec(&self, b: &[A]) -> Result<Vec<A>, ApplyError> {
        ShardCoordinator::try_matvec(self, b).map_err(|e| ApplyError::new(e.to_string()))
    }

    /// Column-wise fallible panel product. Without this override the trait
    /// default would route through the infallible [`H2Operator::matmat`],
    /// turning a lost worker into a panic inside a fused serving sweep;
    /// with it, the first failing column aborts the panel with the typed
    /// error and the service resolves every ticket in the batch.
    fn try_matmat(&self, b: &MatrixS<A>) -> Result<MatrixS<A>, ApplyError> {
        if b.nrows() != self.h2.n() {
            return Err(ApplyError::new(format!(
                "matmat of {} rows against an operator of dimension {}",
                b.nrows(),
                self.h2.n()
            )));
        }
        let mut out = MatrixS::zeros(self.h2.n(), b.ncols());
        for c in 0..b.ncols() {
            let y = ShardCoordinator::try_matvec(self, b.col(c))
                .map_err(|e| ApplyError::new(e.to_string()))?;
            out.col_mut(c).copy_from_slice(&y);
        }
        Ok(out)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.h2.cache_stats()
    }
}
