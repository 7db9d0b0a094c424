//! Operator serving CLI: build H² operators, persist them, load/verify the
//! files, and serve them through the batched matvec service.
//!
//! ```text
//! h2serve build        [build flags]              construct and report stats
//! h2serve save         [build flags] --out FILE   construct and persist
//! h2serve load         --file FILE [--kernel K]   load, validate, time a matvec
//! h2serve metrics      (--file FILE | build flags) [--requests R] [--batches K]
//! h2serve serve        --file FILE --shards N [--requests R] [--batches K]
//!                      [--metrics-addr ADDR] [--trace FILE] [--flight-dir DIR]
//!                      [--duration-s S]
//! h2serve serve        --file FILE --tenants FILE [--mmap] [--requests R]
//!                      [--batches K] [--cache-budget B] [--metrics-addr ADDR]
//! h2serve shard-worker --file FILE --rank R --shards N --connect ADDR
//! h2serve update       --file FILE [--updates U] [--points P] [--out FILE]
//! ```
//!
//! `update` exercises the dynamic-operator path end to end: it loads the
//! file into a versioned registry slot, then alternates serving matvecs
//! with `update_with` batches (insert `--points` fresh points, remove as
//! many old ones) for `--updates` rounds. Each round verifies the swap
//! protocol — a handle taken before the update still applies bit-identically
//! on the epoch it started on, while post-swap submissions see the bumped
//! epoch — and samples the updated operator's relative error against exact
//! kernel rows. `--out` persists the final operator, epoch included.
//!
//! `serve` stands up a multi-process deployment: it binds a coordinator,
//! spawns `N` `shard-worker` child processes of this same binary (each
//! loads the operator file and serves one shard of the distributed
//! five-sweep matvec over TCP), runs a serving workload through the
//! batched `MatvecService`, checks the distributed results bit-for-bit
//! against the local operator, and drains the workers. `shard-worker` is
//! the child half; it can also be started by hand on other machines
//! against a coordinator that admits external workers.
//!
//! `serve --tenants` is the multi-tenant hosting mode instead: it parses a
//! tenant policy file (`[name]` sections with `weight` / `max_queue` /
//! `cache_share` / `admission` keys), registers one operator per tenant —
//! `--mmap` loads each through the zero-copy v4 path, so N tenants cost
//! page-cache sharing rather than N owned decodes — verifies every hosted
//! operator applies bit-identically to the owned decode, partitions
//! `--cache-budget` across tenants by their `cache_share`, and serves a
//! round-robin workload through one weighted-deficit-round-robin
//! `MatvecService`, reporting per-tenant latency quantiles and the
//! `h2_tenant_*` / registry gauge series.
//!
//! `serve` carries the observability plane: `--metrics-addr ADDR` serves
//! live `GET /metrics` + `GET /healthz` while traffic flows,
//! `--trace FILE` merges coordinator and worker spans into one
//! chrome://tracing JSON (one pid per rank, worker clocks offset-corrected
//! from the handshake), `--flight-dir DIR` arms the per-process crash
//! flight recorder, and `--duration-s S` sustains traffic past the
//! verified workload so a scraper has something to watch.
//!
//! `metrics` runs one serving workload (batch cap `--batches`) and prints
//! to stdout the same Prometheus text body `serve` serves at `/metrics`:
//! the service's latency/throughput series, the registry gauges of the
//! served operator, then the process-wide telemetry (kernel-eval and
//! block-generation counters, span aggregates).
//!
//! Build flags: `--n N --dim D --tol T --mode normal|otf --kernel NAME
//! --builder anchor|sketched --method dd|interp|proxy --leaf L --eta E
//! --seed S --precision f64|f32|mixed --cache-budget off|BYTES|RATIO|full`.
//!
//! `--builder sketched` switches construction to the randomized sketched
//! pipeline (`h2_core::builders::sketched`): farfield sampling + mixing +
//! adaptive-rank row ID, seeded by `--seed` for bit-reproducible builds.
//! `--method` only applies to the default anchor-net builder. The chosen
//! builder is persisted in the file header as a provenance byte and surfaced by
//! `load`, `metrics`, and the registry — unknown provenance codes are
//! reported, never rejected.
//!
//! `--cache-budget` installs the budgeted block-cache tier (see `h2-cache`)
//! on on-the-fly operators — both built ones and loaded files (the codec
//! never persists a cache; it is reinstalled at load time). Budgets accept
//! `off`, absolute bytes (`64m`), a fraction of the full block footprint
//! (`0.25` / `25%`), or `full`.
//!
//! `--precision` selects the storage/accumulation mode: `f64` (default),
//! `f32` (single-precision storage and sweeps), or `mixed` (`f32` storage,
//! `f64` accumulation). `save` writes the storage scalar into the file
//! header; `load` and `metrics --file` dispatch on the stored scalar
//! (an `f32` file is served in the mode `--precision` requests, never
//! silently widened into an `f64` operator).

use h2_cache::split_budget;
use h2_core::H2Operator;
use h2_core::{
    AnyH2, BasisMethod, BuilderStrategy, CacheBudget, H2Config, H2MatrixS, MemoryMode, MixedH2,
    Precision,
};
use h2_kernels::{kernel_by_name, Kernel};
use h2_linalg::Scalar;
use h2_net::{run_worker, BoundCoordinator, NetConfig, NetError, ShardCoordinator};
use h2_points::gen;
use h2_serve::{
    codec, LoadError, MatvecService, MetricsServer, OperatorRegistry, QueueMode, TenantTable,
};
use h2_telemetry::Exposition;
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

struct Opts {
    n: usize,
    dim: usize,
    tol: f64,
    mode: MemoryMode,
    kernel: String,
    builder: String,
    method: String,
    leaf: usize,
    eta: f64,
    seed: u64,
    out: Option<String>,
    file: Option<String>,
    requests: usize,
    batch: usize,
    precision: Precision,
    cache_budget: CacheBudget,
    shards: usize,
    rank: usize,
    connect: Option<String>,
    io_timeout_ms: Option<u64>,
    metrics_addr: Option<String>,
    trace_out: Option<String>,
    flight_dir: Option<String>,
    duration_s: u64,
    updates: usize,
    points: usize,
    tenants: Option<String>,
    mmap: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            n: 5000,
            dim: 3,
            tol: 1e-6,
            mode: MemoryMode::OnTheFly,
            kernel: "coulomb".into(),
            builder: "anchor".into(),
            method: "dd".into(),
            leaf: 128,
            eta: 0.7,
            seed: 1,
            out: None,
            file: None,
            requests: 64,
            batch: 1,
            precision: Precision::F64,
            cache_budget: CacheBudget::Off,
            shards: 0,
            rank: 0,
            connect: None,
            io_timeout_ms: None,
            metrics_addr: None,
            trace_out: None,
            flight_dir: None,
            duration_s: 0,
            updates: 4,
            points: 8,
            tenants: None,
            mmap: false,
        }
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: h2serve <build|save|load|metrics|serve|shard-worker|update> \
         [--n N] [--dim D] [--tol T] [--mode normal|otf] [--kernel NAME] \
         [--builder anchor|sketched] [--method dd|interp|proxy] \
         [--leaf L] [--eta E] [--seed S] \
         [--out FILE] [--file FILE] [--requests R] [--batches K] \
         [--precision f64|f32|mixed] [--cache-budget off|BYTES|RATIO|full] \
         [--shards N] [--rank R] [--connect ADDR] [--io-timeout-ms MS] \
         [--metrics-addr ADDR] [--trace FILE] [--flight-dir DIR] [--duration-s S] \
         [--updates U] [--points P] [--tenants FILE] [--mmap]"
    );
    exit(if msg.is_empty() { 0 } else { 2 });
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
                .clone()
        };
        match a.as_str() {
            "--n" => o.n = val().parse().unwrap_or_else(|_| usage("bad --n")),
            "--dim" => o.dim = val().parse().unwrap_or_else(|_| usage("bad --dim")),
            "--tol" => o.tol = val().parse().unwrap_or_else(|_| usage("bad --tol")),
            "--mode" => o.mode = MemoryMode::parse(&val()).unwrap_or_else(|| usage("bad --mode")),
            "--kernel" => o.kernel = val(),
            "--builder" => o.builder = val(),
            "--method" => o.method = val(),
            "--leaf" => o.leaf = val().parse().unwrap_or_else(|_| usage("bad --leaf")),
            "--eta" => o.eta = val().parse().unwrap_or_else(|_| usage("bad --eta")),
            "--seed" => o.seed = val().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--out" => o.out = Some(val()),
            "--file" => o.file = Some(val()),
            "--requests" => o.requests = val().parse().unwrap_or_else(|_| usage("bad --requests")),
            "--precision" => {
                o.precision = Precision::parse(&val()).unwrap_or_else(|| usage("bad --precision"))
            }
            "--cache-budget" => {
                o.cache_budget =
                    CacheBudget::parse(&val()).unwrap_or_else(|| usage("bad --cache-budget"))
            }
            "--batches" => o.batch = val().parse().unwrap_or_else(|_| usage("bad --batches")),
            "--shards" => o.shards = val().parse().unwrap_or_else(|_| usage("bad --shards")),
            "--rank" => o.rank = val().parse().unwrap_or_else(|_| usage("bad --rank")),
            "--connect" => o.connect = Some(val()),
            "--io-timeout-ms" => {
                o.io_timeout_ms = Some(
                    val()
                        .parse()
                        .unwrap_or_else(|_| usage("bad --io-timeout-ms")),
                )
            }
            "--metrics-addr" => o.metrics_addr = Some(val()),
            "--trace" => o.trace_out = Some(val()),
            "--flight-dir" => o.flight_dir = Some(val()),
            "--duration-s" => {
                o.duration_s = val().parse().unwrap_or_else(|_| usage("bad --duration-s"))
            }
            "--updates" => o.updates = val().parse().unwrap_or_else(|_| usage("bad --updates")),
            "--points" => o.points = val().parse().unwrap_or_else(|_| usage("bad --points")),
            "--tenants" => o.tenants = Some(val()),
            "--mmap" => o.mmap = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if o.n == 0 {
        usage("--n must be at least 1");
    }
    if o.dim == 0 {
        usage("--dim must be at least 1");
    }
    if !(o.tol > 0.0 && o.tol.is_finite()) {
        usage("--tol must be a positive number");
    }
    if !(o.eta > 0.0 && o.eta.is_finite()) {
        usage("--eta must be a positive number");
    }
    if o.leaf == 0 {
        usage("--leaf must be at least 1");
    }
    if o.batch == 0 {
        usage("--batches must be at least 1");
    }
    o
}

fn make_kernel(name: &str) -> Arc<dyn Kernel> {
    kernel_by_name(name)
        .unwrap_or_else(|| usage(&format!("unknown kernel '{name}'")))
        .into()
}

fn config_for(o: &Opts) -> H2Config {
    let basis = match o.method.as_str() {
        "dd" | "data-driven" => BasisMethod::data_driven_for_tol(o.tol, o.dim),
        "interp" | "interpolation" => BasisMethod::interpolation_for_tol(o.tol, o.dim),
        "proxy" | "proxy-surface" => BasisMethod::proxy_surface_for_tol(o.tol, o.dim),
        m => usage(&format!("unknown method '{m}'")),
    };
    let builder = match o.builder.as_str() {
        "anchor" | "anchor-net" => BuilderStrategy::AnchorNet,
        "sketched" | "sketch" => BuilderStrategy::sketched_for_tol(o.tol, o.dim),
        b => usage(&format!("unknown builder '{b}'")),
    };
    H2Config {
        basis,
        builder,
        mode: o.mode,
        leaf_size: o.leaf,
        eta: o.eta,
        seed: o.seed,
        precision: o.precision,
        cache_budget: o.cache_budget,
    }
}

fn build_operator(o: &Opts) -> (Arc<dyn Kernel>, AnyH2) {
    let kernel = make_kernel(&o.kernel);
    let cfg = config_for(o);
    let pts = gen::uniform_cube(o.n, o.dim, o.seed);
    let h2 = AnyH2::build(&pts, kernel.clone(), &cfg);
    (kernel, h2)
}

fn report<S: Scalar>(h2: &H2MatrixS<S>) {
    let s = h2.stats();
    let mem = h2.memory_report();
    println!(
        "operator: n={} dim={} mode={} kernel={} scalar={} builder={}",
        h2.n(),
        h2.dim(),
        h2.mode().name(),
        h2.kernel().name(),
        S::NAME,
        h2.provenance().name()
    );
    println!(
        "build: total {:.1} ms (tree {:.1}, lists {:.1}, sampling {:.1}, basis {:.1}, blocks {:.1})",
        s.total_ms, s.tree_ms, s.lists_ms, s.sampling_ms, s.basis_ms, s.blocks_ms
    );
    if s.sketch_samples > 0 {
        println!(
            "sketch: {} sampled entries, {} probe entries, {} rank retries, {} max rounds",
            s.sketch_samples, s.sketch_probes, s.sketch_retries, s.sketch_max_rounds
        );
    }
    println!(
        "memory: generators {:.1} KiB, total {:.1} KiB, max rank {}",
        mem.generators() as f64 / 1024.0,
        mem.total() as f64 / 1024.0,
        h2.ranks().iter().copied().max().unwrap_or(0)
    );
}

fn report_any(op: &AnyH2) {
    match op {
        AnyH2::F64(h) => report(h.as_ref()),
        AnyH2::F32(h) => report(h.as_ref()),
        AnyH2::Mixed(m) => report(m.inner().as_ref()),
    }
    println!("precision: {}", op.precision().name());
    if let Some(c) = op.cache_stats() {
        println!(
            "cache: budget {:.1} KiB, resident {:.1} KiB ({} blocks)",
            c.budget_bytes as f64 / 1024.0,
            c.resident_bytes as f64 / 1024.0,
            c.entries
        );
    }
}

/// Times one `f64`-interface matvec and samples its relative error against
/// exact kernel rows, whatever precision mode `op` runs in.
fn check_and_time(op: &AnyH2, seed: u64) {
    let b = h2_core::error_est::probe_vector(op.n(), seed ^ 0xC0FFEE);
    let t = Instant::now();
    let y = op.matvec(&b);
    let mv_ms = t.elapsed().as_secs_f64() * 1e3;
    let err = match op {
        AnyH2::F64(h) => h.estimate_rel_error(&b, &y, 12, seed),
        AnyH2::F32(h) => {
            let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
            let y32: Vec<f32> = y.iter().map(|&v| v as f32).collect();
            h.estimate_rel_error(&b32, &y32, 12, seed) as f64
        }
        AnyH2::Mixed(m) => m.inner().estimate_rel_error(&b, &y, 12, seed),
    };
    println!("matvec: {mv_ms:.2} ms, sampled relative error {err:.2e}");
}

fn cmd_build(o: &Opts) {
    let (_, h2) = build_operator(o);
    report_any(&h2);
    check_and_time(&h2, o.seed);
}

fn cmd_save(o: &Opts) {
    let Some(out) = &o.out else {
        usage("save needs --out FILE");
    };
    let (_, h2) = build_operator(o);
    report_any(&h2);
    let t = Instant::now();
    // The file records the storage scalar; mixed mode stores f32 and is
    // re-selected with `--precision mixed` at load time.
    let saved = match &h2 {
        AnyH2::F64(h) => codec::save(h.as_ref(), out),
        AnyH2::F32(h) => codec::save(h.as_ref(), out),
        AnyH2::Mixed(m) => codec::save(m.inner().as_ref(), out),
    };
    match saved {
        Ok(bytes) => println!(
            "saved {out}: {:.1} KiB in {:.1} ms",
            bytes as f64 / 1024.0,
            t.elapsed().as_secs_f64() * 1e3
        ),
        Err(e) => {
            eprintln!("save failed: {e}");
            exit(1);
        }
    }
}

/// Loads `file` into the precision mode `o.precision` requests, dispatching
/// on the scalar recorded in the header. An `f32` file loads as a pure-`f32`
/// operator under `--precision f32` and as mixed (`f64` accumulation)
/// otherwise; requesting `--precision f32`/`mixed` for an `f64` file is a
/// precision mismatch, not a silent conversion.
fn load_any(
    file: &str,
    kernel: Arc<dyn Kernel>,
    precision: Precision,
    budget: CacheBudget,
) -> Result<AnyH2, LoadError> {
    let bytes = std::fs::read(file)?;
    // Files never persist a cache; the budget tier is reinstalled here,
    // before the operator is frozen behind its Arc.
    match codec::stored_scalar(&bytes)? {
        "f64" if precision == Precision::F64 => {
            let mut h2 = codec::decode::<f64>(&bytes, kernel)?;
            h2.set_cache_budget(budget);
            Ok(AnyH2::F64(Arc::new(h2)))
        }
        "f32" => {
            let mut h2 = codec::decode::<f32>(&bytes, kernel)?;
            h2.set_cache_budget(budget);
            let h2 = Arc::new(h2);
            Ok(match precision {
                Precision::F32 => AnyH2::F32(h2),
                _ => AnyH2::Mixed(MixedH2::new(h2)),
            })
        }
        stored => Err(LoadError::PrecisionMismatch {
            stored: if stored == "f64" { "f64" } else { "f32" },
            requested: precision.name(),
        }),
    }
}

fn cmd_load(o: &Opts) {
    let Some(file) = &o.file else {
        usage("load needs --file FILE");
    };
    let kernel = make_kernel(&o.kernel);
    let t = Instant::now();
    match load_any(file, kernel, o.precision, o.cache_budget) {
        Ok(h2) => {
            println!("loaded {file} in {:.1} ms", t.elapsed().as_secs_f64() * 1e3);
            report_any(&h2);
            check_and_time(&h2, o.seed);
        }
        Err(e) => {
            eprintln!("load failed: {e}");
            exit(1);
        }
    }
}

/// Loads the operator from `--file` or builds one from the build flags.
fn load_or_build(o: &Opts) -> Arc<AnyH2> {
    Arc::new(match &o.file {
        Some(file) => match load_any(file, make_kernel(&o.kernel), o.precision, o.cache_budget) {
            Ok(h2) => h2,
            Err(e) => {
                eprintln!("load failed: {e}");
                exit(1);
            }
        },
        None => build_operator(o).1,
    })
}

/// Submits `requests` probe vectors to `svc` and drains them all.
fn run_workload(svc: &MatvecService<AnyH2>, requests: usize, seed: u64) -> h2_serve::DrainReport {
    let tickets: Vec<_> = (0..requests)
        .map(|s| {
            let b = h2_core::error_est::probe_vector(svc.operator().n(), seed ^ (s as u64) << 8);
            svc.submit(b).expect("length checked at build")
        })
        .collect();
    let rep = svc.drain();
    for t in tickets {
        if let Err(e) = t.wait() {
            eprintln!("request failed: {e}");
            exit(1);
        }
    }
    rep
}

/// The one `/metrics` body, every source read at call time: the service's
/// own series (block-cache counters included when a `--cache-budget` is
/// active), the per-tenant series under `--tenants`, the registry's
/// per-operator gauges when the command hosts a registry, then the
/// process-wide telemetry (kernel-eval, block-generation, cache and net
/// counters, span aggregates).
fn metrics_body<O: H2Operator<S>, S: Scalar, R: Scalar>(
    svc: &MatvecService<O, S>,
    tenants: bool,
    registry: Option<&OperatorRegistry<R>>,
) -> String {
    let mut out = Exposition::new();
    svc.metrics().expose(&mut out);
    if tenants {
        svc.expose_tenants(&mut out);
    }
    if let Some(reg) = registry {
        reg.expose(&mut out);
    }
    h2_telemetry::snapshot().expose(&mut out);
    out.finish()
}

/// Serves [`metrics_body`] at `--metrics-addr` (when given) until the
/// returned server is stopped or dropped, so an operator can watch the
/// deployment while traffic flows.
fn start_scrape<O: H2Operator<S> + Send + Sync + 'static, S: Scalar, R: Scalar>(
    o: &Opts,
    svc: &Arc<MatvecService<O, S>>,
    tenants: bool,
    registry: Option<Arc<OperatorRegistry<R>>>,
) -> Option<MetricsServer> {
    let addr = o.metrics_addr.as_ref()?;
    let svc = svc.clone();
    let render = move || metrics_body(&svc, tenants, registry.as_deref());
    let srv = MetricsServer::start(addr, render).unwrap_or_else(|e| {
        eprintln!("serve failed: cannot bind metrics endpoint {addr}: {e}");
        exit(1);
    });
    println!("metrics: http://{}/metrics (and /healthz)", srv.addr());
    Some(srv)
}

/// A registry holding just `op` under `name`, so `metrics` reports the
/// bytes a registry entry of this operator holds.
fn registry_of<S: Scalar>(name: &str, op: &Arc<H2MatrixS<S>>) -> OperatorRegistry<S> {
    let reg = OperatorRegistry::new();
    reg.insert(name, op.clone());
    reg
}

/// Runs one serving workload and prints the [`metrics_body`] of the
/// service plus a one-entry registry of the served operator.
fn cmd_metrics(o: &Opts) {
    let op = load_or_build(o);
    let name = match &o.file {
        Some(f) => std::path::Path::new(f)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| f.clone()),
        None => format!("{}-n{}", o.kernel, o.n),
    };
    let k = o.batch;
    let svc = MatvecService::new(op.clone(), k);
    run_workload(&svc, o.requests, o.seed);
    let body = match op.as_ref() {
        AnyH2::F64(h) => metrics_body(&svc, false, Some(&registry_of(&name, h))),
        AnyH2::F32(h) => metrics_body(&svc, false, Some(&registry_of(&name, h))),
        AnyH2::Mixed(m) => metrics_body(&svc, false, Some(&registry_of(&name, m.inner()))),
    };
    print!("{body}");
}

/// The `update` workload at one storage width: registry-mediated
/// clone-apply-swap updates interleaved with matvecs, verifying the swap
/// protocol every round.
fn update_workload<S: Scalar>(
    bytes: &[u8],
    kernel: Arc<dyn Kernel>,
    o: &Opts,
) -> Result<(), String> {
    let mut h2 = codec::decode::<S>(bytes, kernel).map_err(|e| e.to_string())?;
    h2.set_cache_budget(o.cache_budget);
    let dim = h2.dim();
    let reg: OperatorRegistry<S> = OperatorRegistry::new();
    reg.insert("live", Arc::new(h2));
    let first = reg.get("live").expect("just inserted");
    println!(
        "registered 'live': n={} dim={dim} scalar={} epoch={}",
        first.n(),
        S::NAME,
        first.epoch()
    );
    for round in 0..o.updates {
        // A handle taken before the swap: the in-flight side of the
        // protocol. It must finish on the epoch it started on.
        let inflight = reg.get("live").expect("registered");
        let b: Vec<S> = h2_core::error_est::probe_vector(inflight.n(), o.seed ^ (round as u64))
            .into_iter()
            .map(S::from_f64)
            .collect();
        let y_inflight = inflight.matvec(&b);
        let fresh_pts = gen::uniform_cube(o.points, dim, o.seed + 1 + round as u64);
        let departing: Vec<usize> = (0..o.points.min(inflight.n() - 1)).collect();
        let t = Instant::now();
        let (swapped, (ins, rem)) = reg
            .update_with("live", |op| {
                let ins = op.insert_points(&fresh_pts)?;
                let rem = op.remove_points(&departing)?;
                Ok::<_, h2_core::UpdateError>((ins, rem))
            })
            .expect("registered")
            .map_err(|e| e.to_string())?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        // Post-swap submissions see the new operator; the in-flight handle
        // is bit-identical to its pre-swap result.
        assert!(Arc::ptr_eq(&reg.get("live").expect("registered"), &swapped));
        assert_eq!(
            inflight.matvec(&b),
            y_inflight,
            "in-flight handle changed under a swap"
        );
        let b2: Vec<S> = h2_core::error_est::probe_vector(swapped.n(), o.seed ^ 0xD1CE)
            .into_iter()
            .map(S::from_f64)
            .collect();
        let y2 = swapped.matvec(&b2);
        let err = swapped.estimate_rel_error(&b2, &y2, 12, o.seed);
        println!(
            "round {round}: +{} -{} points in {ms:.1} ms \
             (path {} nodes, {} blocks refactored, {} rebuilds) \
             epoch {} -> {}, sampled rel err {:.2e}",
            ins.inserted,
            rem.removed,
            ins.path_nodes + rem.path_nodes,
            ins.refactored_blocks + rem.refactored_blocks,
            ins.rebuilds + rem.rebuilds,
            inflight.epoch(),
            swapped.epoch(),
            err
        );
    }
    let final_op = reg.get("live").expect("registered");
    println!(
        "final: n={} epoch={} registry updates={}",
        final_op.n(),
        final_op.epoch(),
        reg.update_count("live").expect("registered")
    );
    let mut gauges = Exposition::new();
    reg.expose(&mut gauges);
    for line in gauges.finish().lines() {
        if line.contains("_epoch{") || line.contains("_updates{") {
            println!("{line}");
        }
    }
    if let Some(out) = &o.out {
        let bytes = codec::encode(final_op.as_ref());
        std::fs::write(out, &bytes).map_err(|e| e.to_string())?;
        println!(
            "saved {out}: {:.1} KiB at epoch {} (stored epoch {})",
            bytes.len() as f64 / 1024.0,
            final_op.epoch(),
            codec::stored_epoch(&bytes).map_err(|e| e.to_string())?
        );
    }
    Ok(())
}

/// `update`: load an operator file into a versioned registry slot and run
/// interleaved serve/update rounds against it, at the file's own storage
/// precision.
fn cmd_update(o: &Opts) {
    let Some(file) = &o.file else {
        usage("update needs --file FILE (persist one first with `h2serve save`)");
    };
    let kernel = make_kernel(&o.kernel);
    let bytes = match std::fs::read(file) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("could not read {file}: {e}");
            exit(1);
        }
    };
    let result = match codec::stored_scalar(&bytes) {
        Ok("f32") => update_workload::<f32>(&bytes, kernel, o),
        Ok(_) => update_workload::<f64>(&bytes, kernel, o),
        Err(e) => Err(e.to_string()),
    };
    if let Err(e) = result {
        eprintln!("update failed: {e}");
        exit(1);
    }
}

// ------------------------------------------------- multi-process serving

/// Network configuration from the CLI flags: defaults, with `--io-timeout-ms`
/// bounding both sweep waits and shutdown drains when set (integration
/// tests use a short value so fault injection resolves quickly).
/// `--trace FILE` turns on distributed tracing (workers ship span buffers
/// back after every sweep) and `--flight-dir DIR` arms the crash flight
/// recorder in every process of the deployment.
fn net_config(o: &Opts) -> NetConfig {
    let mut cfg = NetConfig::default();
    if let Some(ms) = o.io_timeout_ms {
        cfg.io_timeout = std::time::Duration::from_millis(ms.max(1));
    }
    cfg.trace = o.trace_out.is_some();
    cfg.flight_dir = o.flight_dir.as_ref().map(std::path::PathBuf::from);
    cfg
}

/// `shard-worker`: load the operator file and serve one shard rank until
/// the coordinator drains us. Exits non-zero on any typed failure, which
/// the coordinator's shutdown reports per rank.
fn cmd_shard_worker(o: &Opts) {
    let Some(file) = &o.file else {
        usage("shard-worker needs --file FILE");
    };
    let Some(connect) = &o.connect else {
        usage("shard-worker needs --connect ADDR");
    };
    if o.shards == 0 {
        usage("shard-worker needs --shards N (N >= 1)");
    }
    let kernel = make_kernel(&o.kernel);
    let cfg = net_config(o);
    let bytes = match std::fs::read(file) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("rank {}: could not read {file}: {e}", o.rank);
            exit(1);
        }
    };
    // Serve at the file's own storage precision; the handshake's scalar
    // byte rejects a coordinator running a different width.
    let report = match codec::stored_scalar(&bytes) {
        Ok("f32") => codec::decode::<f32>(&bytes, kernel)
            .map_err(|e| e.to_string())
            .and_then(|mut h2| {
                h2.set_cache_budget(o.cache_budget);
                run_worker(&h2, o.rank, o.shards, connect, cfg).map_err(|e| e.to_string())
            }),
        Ok(_) => codec::decode::<f64>(&bytes, kernel)
            .map_err(|e| e.to_string())
            .and_then(|mut h2| {
                h2.set_cache_budget(o.cache_budget);
                run_worker(&h2, o.rank, o.shards, connect, cfg).map_err(|e| e.to_string())
            }),
        Err(e) => Err(e.to_string()),
    };
    match report {
        Ok(r) => {
            println!(
                "rank {} drained: {} sweeps, sent {} B / {} msgs, recv {} B / {} msgs",
                r.rank,
                r.sweeps,
                r.traffic.sent_bytes,
                r.traffic.sent_messages,
                r.traffic.recv_bytes,
                r.traffic.recv_messages
            );
        }
        Err(e) => {
            eprintln!("rank {}: {e}", o.rank);
            exit(1);
        }
    }
}

/// Spawns `shards` `shard-worker` children of this binary and returns the
/// running deployment.
fn spawn_deployment<S: Scalar>(
    h2: Arc<H2MatrixS<S>>,
    o: &Opts,
    file: &str,
) -> Result<ShardCoordinator<S>, NetError> {
    let exe = std::env::current_exe().map_err(|e| NetError::Spawn {
        detail: format!("cannot locate own binary: {e}"),
    })?;
    let cfg = net_config(o);
    let bound = BoundCoordinator::bind(h2, o.shards, cfg)?;
    bound.spawn(|rank, addr| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["shard-worker", "--file", file, "--connect", addr])
            .args(["--rank", &rank.to_string()])
            .args(["--shards", &o.shards.to_string()])
            .args(["--kernel", &o.kernel]);
        if let Some(ms) = o.io_timeout_ms {
            cmd.args(["--io-timeout-ms", &ms.to_string()]);
        }
        if let Some(dir) = &o.flight_dir {
            cmd.args(["--flight-dir", dir]);
        }
        cmd.spawn().map_err(|e| NetError::Spawn {
            detail: format!("rank {rank}: {e}"),
        })
    })
}

/// The serving workload of `serve`, generic over the storage scalar:
/// batched requests through `MatvecService` over the distributed operator,
/// each result checked bit-for-bit against the local serial apply.
fn serve_distributed<S: Scalar>(h2: Arc<H2MatrixS<S>>, o: &Opts, file: &str) {
    let fail = |e: NetError| -> ! {
        eprintln!("serve failed: {e}");
        exit(1);
    };
    let coord = match spawn_deployment(h2.clone(), o, file) {
        Ok(c) => c,
        Err(e) => fail(e),
    };
    println!(
        "deployment up: {} workers serving n={} (plan level {})",
        coord.shards(),
        coord.n(),
        coord.plan().level
    );
    for (r, h) in coord.health().into_iter().enumerate() {
        match h {
            Ok(rtt) => println!("rank {r}: alive, ping {:.1} us", rtt.as_secs_f64() * 1e6),
            Err(e) => fail(e),
        }
    }
    let n = coord.n();
    let op = Arc::new(coord);
    let k = o.batch;
    let svc: Arc<MatvecService<ShardCoordinator<S>, S>> =
        Arc::new(MatvecService::new(op.clone(), k));
    let mut scrape = start_scrape(o, &svc, false, None::<Arc<OperatorRegistry<S>>>);
    let mk = |s: usize| -> Vec<S> {
        h2_core::error_est::probe_vector(n, o.seed ^ (s as u64) << 8)
            .into_iter()
            .map(S::from_f64)
            .collect()
    };
    let t0 = Instant::now();
    let tickets: Vec<_> = (0..o.requests)
        .map(|s| svc.submit(mk(s)).expect("length checked at build"))
        .collect();
    let rep = svc.drain();
    for (s, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Ok(y) => {
                if y != H2Operator::matvec(h2.as_ref(), &mk(s)) {
                    eprintln!("request {s}: distributed result differs from the local apply");
                    exit(1);
                }
            }
            Err(e) => {
                eprintln!("request {s} failed: {e}");
                exit(1);
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let m = svc.metrics();
    let traffic = op.traffic();
    println!(
        "served {} requests in {} sweeps (batch cap {k}): {:.1} req/s, p99 {} us; \
         all bit-identical to the local operator",
        rep.requests,
        rep.sweeps,
        rep.requests as f64 / wall,
        m.p99_latency_us
    );
    println!(
        "coordinator traffic: sent {} B / {} msgs, recv {} B / {} msgs",
        traffic.sent_bytes, traffic.sent_messages, traffic.recv_bytes, traffic.recv_messages
    );
    // `--duration-s` keeps traffic flowing past the verified workload so a
    // scraper has something live to watch; results were already verified
    // bit-for-bit above, so these only check for transport errors.
    if o.duration_s > 0 {
        let deadline = Instant::now() + std::time::Duration::from_secs(o.duration_s);
        let mut extra = 0usize;
        while Instant::now() < deadline {
            let tickets: Vec<_> = (0..k)
                .map(|s| svc.submit(mk(extra + s)).expect("length checked at build"))
                .collect();
            svc.drain();
            for t in tickets {
                if let Err(e) = t.wait() {
                    eprintln!("sustained request failed: {e}");
                    exit(1);
                }
            }
            extra += k;
        }
        println!(
            "sustained traffic for {}s: {} further requests served",
            o.duration_s, extra
        );
    }
    if let Some(srv) = scrape.as_mut() {
        srv.stop();
    }
    if let Some(path) = &o.trace_out {
        let json = op.cluster_trace_json();
        match std::fs::write(path, &json) {
            Ok(()) => println!("trace: wrote {} ({} bytes)", path, json.len()),
            Err(e) => {
                eprintln!("serve failed: cannot write trace {path}: {e}");
                exit(1);
            }
        }
    }
    drop(scrape);
    drop(svc);
    let coord = Arc::try_unwrap(op).unwrap_or_else(|_| {
        eprintln!("serve failed: coordinator still shared at shutdown");
        exit(1);
    });
    match coord.shutdown() {
        Ok(()) => println!("all workers drained cleanly"),
        Err(e) => fail(e),
    }
}

// --------------------------------------------------- multi-tenant hosting

/// The `serve --tenants` workload at one storage width: host one operator
/// per tenant in a registry (zero-copy under `--mmap`), verify bitwise
/// identity against the owned decode, partition the cache budget by
/// `cache_share`, then serve a round-robin workload through a WDRR
/// `MatvecService` and report per-tenant quantiles and gauges.
fn serve_tenants<S: Scalar>(o: &Opts, file: &str, bytes: &[u8], table: TenantTable) {
    let kernel = make_kernel(&o.kernel);
    // The owned decode is the bitwise reference every hosted operator is
    // checked against, and the footprint baseline for the resident gauge.
    let owned = match codec::decode::<S>(bytes, kernel.clone()) {
        Ok(h2) => h2,
        Err(e) => {
            eprintln!("load failed: {e}");
            exit(1);
        }
    };
    let n = owned.n();
    let owned_total = owned.memory_report().total();
    let cache_total = o.cache_budget.resolve(owned.full_block_bytes());
    let budgets = split_budget(cache_total, &table.cache_shares());
    let budget_of = |tenant: usize| match budgets[tenant] {
        0 => CacheBudget::Off,
        b => CacheBudget::Bytes(b as u64),
    };

    let reg: Arc<OperatorRegistry<S>> = Arc::new(OperatorRegistry::new());
    let t = Instant::now();
    for (i, id, _) in table.iter() {
        let loaded = if o.mmap {
            reg.load_file_mmap_with_budget(id.as_str(), file, kernel.clone(), budget_of(i))
        } else {
            reg.load_file_with_budget(id.as_str(), file, kernel.clone(), budget_of(i))
        };
        if let Err(e) = loaded {
            eprintln!("tenant '{id}': load failed: {e}");
            exit(1);
        }
    }
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let rows = reg.resident_bytes();
    let resident: usize = rows.iter().map(|r| r.total_bytes).sum();
    let mapped: usize = rows.iter().map(|r| r.mapped_bytes).sum();
    println!(
        "hosted {} operators ({}) in {load_ms:.1} ms: resident {:.1} KiB, \
         mapped {:.1} KiB (owned footprint {:.1} KiB per operator)",
        table.len(),
        if o.mmap { "mmap" } else { "owned" },
        resident as f64 / 1024.0,
        mapped as f64 / 1024.0,
        owned_total as f64 / 1024.0
    );

    // Every hosted operator must apply bit-identically to the owned decode:
    // mapping and a cache budget move where a block comes from, never the
    // product (`set_cache_budget`).
    let probe: Vec<S> = h2_core::error_est::probe_vector(n, o.seed)
        .into_iter()
        .map(S::from_f64)
        .collect();
    let bits = |op: &H2MatrixS<S>| -> Vec<u64> {
        let y = op.matvec(&probe);
        y.iter().map(|v| v.to_f64().to_bits()).collect()
    };
    let want = bits(&owned);
    for (_, id, _) in table.iter() {
        let op = reg.get(id.as_str()).expect("just registered");
        if bits(&op) != want {
            eprintln!("tenant '{id}': hosted operator differs from the owned decode");
            exit(1);
        }
    }
    drop(owned);
    println!(
        "bitwise: all {} hosted operators identical to the owned decode",
        table.len()
    );
    if o.mmap {
        // Resident fraction per entry: resident / (resident + mapped) is
        // exactly resident/owned, since mapping moves payload bytes from
        // the heap to the pages without changing the logical total.
        let worst = rows
            .iter()
            .map(|r| r.total_bytes as f64 / (r.total_bytes + r.mapped_bytes) as f64)
            .fold(0.0f64, f64::max);
        println!(
            "mmap residency: worst resident fraction {:.2}%",
            worst * 100.0
        );
        if worst <= 0.05 {
            println!("TENANT_SERVE_MMAP_OK");
        } else {
            eprintln!(
                "mmap residency gate failed: resident fraction {:.2}% > 5%",
                worst * 100.0
            );
            exit(1);
        }
    }

    // One WDRR service arbitrates all tenants; every tenant hosts the same
    // file here, so a single fused sweep serves each drained batch.
    let op = reg.get(table.id(0).as_str()).expect("registered");
    let k = o.batch;
    let svc = Arc::new(MatvecService::with_tenants(
        op,
        k,
        table.clone(),
        QueueMode::Wdrr,
    ));
    if cache_total > 0 {
        svc.set_tenant_cache_budgets(budgets);
    }
    let mut scrape = start_scrape(o, &svc, true, Some(reg.clone()));
    for round in 0..o.requests {
        let tickets: Vec<_> = table
            .iter()
            .map(|(_, id, _)| {
                let b: Vec<S> = h2_core::error_est::probe_vector(n, o.seed ^ (round as u64) << 8)
                    .into_iter()
                    .map(S::from_f64)
                    .collect();
                (id.clone(), svc.submit_for(id.as_str(), b))
            })
            .collect();
        svc.drain();
        for (id, t) in tickets {
            let ticket = match t {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("tenant '{id}': submit failed: {e}");
                    exit(1);
                }
            };
            if let Err(e) = ticket.wait() {
                eprintln!("tenant '{id}': request failed: {e}");
                exit(1);
            }
        }
    }
    println!(
        "{:>16} {:>8} {:>12} {:>12}",
        "tenant", "served", "p50 us", "p99 us"
    );
    for (_, id, _) in table.iter() {
        println!(
            "{:>16} {:>8} {:>12} {:>12}",
            id.as_str(),
            svc.tenant_served(id.as_str()),
            svc.tenant_latency_quantile_us(id.as_str(), 0.50),
            svc.tenant_latency_quantile_us(id.as_str(), 0.99)
        );
    }
    let mut series = Exposition::new();
    svc.expose_tenants(&mut series);
    for line in series.finish().lines() {
        if line.starts_with("h2_tenant_cache_budget_bytes")
            || line.starts_with("h2_tenant_requests_total")
        {
            println!("{line}");
        }
    }
    if let Some(srv) = scrape.as_mut() {
        srv.stop();
    }
}

/// `serve --tenants`: parse the tenant policy file and host one operator
/// per tenant at the file's own storage precision.
fn cmd_serve_tenants(o: &Opts, tenants: &str) {
    let Some(file) = &o.file else {
        usage("serve --tenants needs --file FILE (persist one first with `h2serve save`)");
    };
    let text = match std::fs::read_to_string(tenants) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("could not read {tenants}: {e}");
            exit(1);
        }
    };
    let table = match TenantTable::parse(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bad tenant policy file {tenants}: {e}");
            exit(1);
        }
    };
    let bytes = match std::fs::read(file) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("could not read {file}: {e}");
            exit(1);
        }
    };
    match codec::stored_scalar(&bytes) {
        Ok("f32") => serve_tenants::<f32>(o, file, &bytes, table),
        Ok(_) => serve_tenants::<f64>(o, file, &bytes, table),
        Err(e) => {
            eprintln!("load failed: {e}");
            exit(1);
        }
    }
}

/// `serve`: bind a coordinator, spawn `--shards` worker processes from the
/// operator file, serve a verified workload, and drain the deployment.
/// With `--tenants FILE`, run the single-process multi-tenant hosting mode
/// instead (see [`cmd_serve_tenants`]).
fn cmd_serve(o: &Opts) {
    if let Some(tenants) = &o.tenants {
        return cmd_serve_tenants(o, tenants);
    }
    let Some(file) = &o.file else {
        usage("serve needs --file FILE (persist one first with `h2serve save`)");
    };
    if o.shards == 0 {
        usage("serve needs --shards N (N >= 1), or --tenants FILE for multi-tenant hosting");
    }
    let kernel = make_kernel(&o.kernel);
    let bytes = match std::fs::read(file) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("could not read {file}: {e}");
            exit(1);
        }
    };
    // The deployment runs at the file's storage precision end to end; the
    // workers load the same file, so the scalar always agrees.
    let result =
        match codec::stored_scalar(&bytes) {
            Ok("f32") => codec::decode::<f32>(&bytes, kernel)
                .map(|h2| serve_distributed(Arc::new(h2), o, file)),
            Ok(_) => codec::decode::<f64>(&bytes, kernel)
                .map(|h2| serve_distributed(Arc::new(h2), o, file)),
            Err(e) => Err(e),
        };
    if let Err(e) = result {
        eprintln!("load failed: {e}");
        exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage("missing subcommand");
    };
    let o = parse_opts(&args[1..]);
    match cmd.as_str() {
        "build" => cmd_build(&o),
        "save" => cmd_save(&o),
        "load" => cmd_load(&o),
        "metrics" => cmd_metrics(&o),
        "serve" => cmd_serve(&o),
        "shard-worker" => cmd_shard_worker(&o),
        "update" => cmd_update(&o),
        "--help" | "-h" => usage(""),
        c => usage(&format!("unknown subcommand '{c}'")),
    }
}
