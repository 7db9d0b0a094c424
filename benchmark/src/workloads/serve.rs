//! `serve_tenants_mmap`: a serving host. The operator is built, saved with
//! the v4 codec, mapped back through the registry, and served to one hog and
//! three light tenants under the weighted-deficit scheduler.
//!
//! Closed rounds, not an arrival schedule: the caller submits the hog's
//! backlog, then one request per light tenant, wakes the server thread, and
//! waits for every ticket. The queue the light requests sit behind is created
//! by submission order, which repeats exactly on two shared cores.

use super::apply::{base_cfg, leaf_size, timed_build, verify_first, TOL};
use super::{maybe_perturb, rhs_ring, Params, StepOut, Verdict, Workload, RING};
use crate::metrics::Metrics;
use crate::pace::Bound;
use crate::probes::TENANTS_TOML;
use crate::stats::{median, median_secs, summarize};
use crate::trace::Recorder;
use h2_core::{H2Matrix, MemoryMode};
use h2_kernels::{Coulomb, Kernel};
use h2_points::gen;
use h2_serve::{codec, MatvecService, OperatorRegistry, QueueMode, TenantTable, Ticket};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Nine hog requests and three light ones make a round of exactly three full
/// batches, so the median and the 90th percentile of request latency each sit
/// in the middle of a mode (two and three sweeps), not on the edge between
/// two modes where a few microseconds flip them.
const HOG_BACKLOG: usize = 9;
const LIGHTS: usize = 3;
const MAX_BATCH: usize = 4;
const WARMUP_ROUNDS: usize = 2;
const LIGHT_NAMES: [&str; LIGHTS] = ["light0", "light1", "light2"];

type Service = MatvecService<H2Matrix>;

/// Whether this process has written its operator file yet.
static SAVED: AtomicBool = AtomicBool::new(false);

struct Go {
    op: u64,
    record: bool,
}

struct Done {
    sweeps: usize,
    drain_ms: f64,
}

/// The server side of the host: drains the queue whenever the caller says a
/// round is submitted. Its spans come back when the channel closes.
fn server(svc: Arc<Service>, go: Receiver<Go>, done: Sender<Done>, t0: Instant) -> Recorder {
    let mut rec = Recorder::new(false, t0);
    while let Ok(Go { op, record }) = go.recv() {
        rec.set_enabled(record);
        rec.set_op(op);
        let t = Instant::now();
        let report = rec.span("h2-serve", "drain", |_| svc.drain());
        let drain_ms = t.elapsed().as_secs_f64() * 1e3;
        if done
            .send(Done {
                sweeps: report.sweeps,
                drain_ms,
            })
            .is_err()
        {
            break;
        }
    }
    rec
}

pub struct ServeTenants {
    svc: Arc<Service>,
    op: Arc<H2Matrix>,
    path: PathBuf,
    file_bytes: u64,
    ring: Vec<Vec<f64>>,
    first: Vec<f64>,
    go: Option<Sender<Go>>,
    done: Receiver<Done>,
    server: Option<JoinHandle<Recorder>>,
    build_s: f64,
    // Samples of the recorded (traced) rounds only.
    submit_us: Vec<f64>,
    drain_ms: Vec<f64>,
    sweeps: Vec<f64>,
    light_ms: Vec<f64>,
}

impl ServeTenants {
    fn n(quick: bool) -> usize {
        if quick {
            1200
        } else {
            8_000
        }
    }

    fn kernel() -> Arc<dyn Kernel> {
        Arc::new(Coulomb)
    }

    /// The operator file of this run (seed and process id keep runs apart).
    fn path(p: &Params) -> PathBuf {
        PathBuf::from(crate::cli::OUT_DIR).join(format!(
            "op_{}_{}.h2bin",
            p.seed,
            std::process::id()
        ))
    }

    /// One closed round. `hog` requests from the hog, then one per light
    /// tenant; returns each request's latency (ms) as `(is_light, ms)`.
    fn round(&mut self, i: usize, hog: usize, rec: &mut Recorder) -> (Vec<(bool, f64)>, usize) {
        let record = rec.enabled();
        let mut pending: Vec<(bool, usize, Instant, Ticket)> = Vec::new();
        let mut failed = 0;
        let tenants = std::iter::repeat_n("hog", hog).chain(LIGHT_NAMES.iter().copied());
        for (r, tenant) in tenants.enumerate() {
            let slot = (i * (HOG_BACKLOG + LIGHTS) + r) % RING;
            let rhs = self.ring[slot].clone();
            let t = Instant::now();
            match rec.span("h2-serve", "submit", |_| self.svc.submit_for(tenant, rhs)) {
                Ok(ticket) => pending.push((tenant != "hog", slot, t, ticket)),
                Err(_) => failed += 1,
            }
            if record {
                self.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        let go = self.go.as_ref().expect("server is running");
        go.send(Go {
            op: i as u64 + 1,
            record,
        })
        .expect("server thread is alive");

        // Light tickets resolve in the first sweep: wait for them first so
        // their latency is not inflated by waiting on the hog's tail.
        pending.sort_by_key(|(light, ..)| !*light);
        let mut lat = Vec::with_capacity(pending.len());
        for (light, slot, t, ticket) in pending {
            let out = rec.span("h2-serve", "wait", |_| ticket.wait());
            lat.push((light, t.elapsed().as_secs_f64() * 1e3));
            match out {
                // Batched or not, ring[0] must give the first result's bits.
                Ok(y) if slot != 0 || self.first.is_empty() || y == self.first => {
                    if slot == 0 && self.first.is_empty() {
                        self.first = y;
                    }
                }
                _ => failed += 1,
            }
        }
        let done = self.done.recv().expect("server thread is alive");
        if record {
            self.drain_ms.push(done.drain_ms);
            self.sweeps.push(done.sweeps as f64);
        }
        (lat, failed)
    }

    fn load_mapped(&self) -> Arc<H2Matrix> {
        OperatorRegistry::new()
            .load_file_mmap("op", &self.path, Self::kernel())
            .expect("the file this run saved loads")
    }
}

impl Workload for ServeTenants {
    const NAME: &'static str = "serve_tenants_mmap";
    /// Rounds; each is `HOG_BACKLOG + LIGHTS` requests.
    const OPS: usize = 70;
    /// A stored operator: every sweep streams its blocks.
    const BOUND: Bound = Bound::Stream;

    fn sizes(quick: bool) -> Vec<(&'static str, f64)> {
        vec![
            ("n", Self::n(quick) as f64),
            ("tol", TOL),
            ("k", MAX_BATCH as f64),
            ("hog_backlog", HOG_BACKLOG as f64),
            ("lights", LIGHTS as f64),
        ]
    }

    fn setup(p: &Params, rec: &mut Recorder) -> Self {
        let pts = rec.span("h2-points", "generate", |_| {
            gen::uniform_cube(Self::n(p.quick), 3, p.seed)
        });
        let cfg = base_cfg(MemoryMode::Normal, p.quick);
        let (built, build_s) = timed_build::<f64>(&pts, Self::kernel(), &cfg, rec);

        // The file is written by the run's first set-up and served by all
        // of them: a serving host loads files, it does not write them, and
        // writing 150 MiB took 0.5 s or 1.1 s as the page cache pleased,
        // which made `setup_s` bimodal. The codec's write side is
        // `serve.encode_mbps`.
        let path = Self::path(p);
        if !SAVED.swap(true, Ordering::Relaxed) {
            std::fs::create_dir_all(crate::cli::OUT_DIR).expect("create the output directory");
            rec.span("h2-serve", "save", |_| codec::save(&built, &path))
                .expect("write operator file");
        }
        let file_bytes = std::fs::metadata(&path).expect("operator file").len();
        drop(built);

        let registry = OperatorRegistry::new();
        let op = rec
            .span("h2-serve", "load_mmap", |_| {
                registry.load_file_mmap("op", &path, Self::kernel())
            })
            .expect("the file this run saved loads");
        let table = TenantTable::parse(TENANTS_TOML).expect("static tenant table");
        let svc = Arc::new(MatvecService::with_tenants(
            op.clone(),
            MAX_BATCH,
            table,
            QueueMode::Wdrr,
        ));
        let (go_tx, go_rx) = channel();
        let (done_tx, done_rx) = channel();
        let t0 = rec.t0();
        let server = {
            let svc = svc.clone();
            std::thread::spawn(move || server(svc, go_rx, done_tx, t0))
        };
        let ring = rhs_ring(op.n(), p.seed);
        let mut w = ServeTenants {
            svc,
            op,
            path,
            file_bytes,
            ring,
            first: Vec::new(),
            go: Some(go_tx),
            done: done_rx,
            server: Some(server),
            build_s,
            submit_us: Vec::new(),
            drain_ms: Vec::new(),
            sweeps: Vec::new(),
            light_ms: Vec::new(),
        };
        // Warm-up rounds run unrecorded; the first one touches every mapped
        // page and yields the reference result for ring[0].
        let was = rec.enabled();
        rec.set_enabled(false);
        for i in 0..WARMUP_ROUNDS {
            w.round(i, HOG_BACKLOG, rec);
        }
        rec.set_enabled(was);
        maybe_perturb(p, &mut w.first);
        w
    }

    fn build_s(&self) -> f64 {
        self.build_s
    }

    fn mem_bytes(&self) -> usize {
        // Mapped pages are the operator too; `total()` leaves them out.
        let r = self.op.memory_report();
        r.total() + r.mapped_bytes
    }

    fn step(&mut self, i: usize, rec: &mut Recorder, lat_ms: &mut Vec<f64>) -> StepOut {
        let (lat, failed) = self.round(i + WARMUP_ROUNDS, HOG_BACKLOG, rec);
        for &(light, ms) in &lat {
            lat_ms.push(ms);
            if light && rec.enabled() {
                self.light_ms.push(ms);
            }
        }
        StepOut {
            rhs: lat.len(),
            attempted: HOG_BACKLOG + LIGHTS,
            failed,
        }
    }

    fn verify(&mut self, p: &Params) -> Verdict {
        let owned = codec::load::<f64>(&self.path, Self::kernel()).expect("owned decode");
        let again = owned.matvec(&self.ring[0]);
        verify_first(
            &self.op,
            &self.ring[0],
            &self.first,
            &again,
            "the owned decode's matvec",
            p.seed,
        )
    }

    fn layer_metrics(
        &mut self,
        p: &Params,
        rec: &mut Recorder,
        m: &mut Metrics,
        _failures: &mut Vec<String>,
    ) {
        let mib = |b: f64| b / (1024.0 * 1024.0);
        m.set("serve.file_mib", mib(self.file_bytes as f64));
        m.set(
            "serve.mapped_frac",
            self.op.memory_report().mapped_bytes as f64 / self.file_bytes as f64,
        );

        // Rounds as the timed window saw them.
        m.set("serve.submit_us", median(&self.submit_us));
        m.set("serve.drain_ms", median(&self.drain_ms));
        let sweeps = self.sweeps.iter().sum::<f64>() / self.sweeps.len().max(1) as f64;
        m.set("serve.sweeps_per_round", sweeps);
        m.set("core.apply_ms", median(&self.drain_ms) / sweeps.max(1.0));
        let light_p90 = summarize(&self.light_ms).p90;
        m.set("serve.light_p90_ms", light_p90);
        // Program-reported, diagnostic only.
        let snap = self.svc.metrics();
        m.set("serve.batch_mean", snap.mean_batch);
        m.set("serve.queue_wait_p50_ms", snap.p50_queue_us as f64 / 1e3);
        let scrape = rec.span("h2-serve", "probe.scrape", |_| {
            median_secs(25, || {
                black_box(self.svc.metrics().prometheus_text());
            })
        });
        m.set("serve.scrape_us", scrape * 1e6);

        // The same light traffic with no hog in the queue.
        rec.set_enabled(false);
        let mut isolated = Vec::new();
        for i in 0..if p.quick { 3 } else { 12 } {
            let (lat, _) = self.round(i, 0, rec);
            isolated.extend(lat.iter().map(|&(_, ms)| ms));
        }
        rec.set_enabled(true);
        m.set(
            "tenant.light_over_isolated",
            light_p90 / summarize(&isolated).p90,
        );

        // Codec and mapping, each through its one public entry point.
        let t = Instant::now();
        let bytes = rec.span("h2-serve", "probe.encode", |_| codec::encode(&*self.op));
        m.set(
            "serve.encode_mbps",
            bytes.len() as f64 / 1e6 / t.elapsed().as_secs_f64(),
        );
        let t = Instant::now();
        let owned = rec.span("h2-serve", "probe.decode", |_| {
            codec::decode::<f64>(&bytes, Self::kernel()).expect("decode what encode wrote")
        });
        m.set(
            "serve.decode_mbps",
            bytes.len() as f64 / 1e6 / t.elapsed().as_secs_f64(),
        );
        drop((bytes, owned));

        let rhs = self.ring[0].clone();
        let (mut load, mut first_mv, mut steady) = (Vec::new(), Vec::new(), Vec::new());
        rec.span("h2-serve", "probe.load_first_mv", |_| {
            for _ in 0..5 {
                let t = Instant::now();
                let op = self.load_mapped();
                load.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                black_box(op.matvec(&rhs));
                first_mv.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                black_box(op.matvec(&rhs));
                steady.push(t.elapsed().as_secs_f64() * 1e3);
            }
        });
        m.set("serve.load_mmap_ms", median(&load));
        m.set("serve.load_first_mv_ms", median(&load) + median(&first_mv));
        m.set("serve.first_touch_ms", median(&first_mv) - median(&steady));

        crate::replay::run(&*self.op, MAX_BATCH, rec, m);
        let pts = self.op.tree().points();
        crate::phases::run(pts, &Coulomb, leaf_size(p.quick), rec, m);
    }

    fn teardown(mut self, rec: &mut Recorder) {
        // Closing the channel ends the server loop.
        self.go = None;
        if let Some(server) = self.server.take() {
            rec.absorb(server.join().expect("server thread panicked"));
        }
    }

    fn cleanup(p: &Params) {
        let _ = std::fs::remove_file(Self::path(p));
    }
}
