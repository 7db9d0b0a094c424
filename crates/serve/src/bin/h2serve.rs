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
//!
//! build flags: --n N --dim D --tol T --mode normal|otf --kernel NAME
//!   --builder anchor|sketched --method dd|interp --leaf L --eta E
//!   --seed S --precision f64|f32|mixed --cache-budget off|BYTES|RATIO|full
//! ```
//!
//! - `build`: construct an operator, print its stats, time one matvec and
//!   sample its relative error against exact kernel rows.
//! - `save`: the same, then persist it; the header records the storage
//!   scalar and the builder.
//! - `load`: decode a file, time a matvec and sample its relative error.
//! - `metrics`: serve `--requests` probes and print the `/metrics` body.
//! - `serve --shards N`: spawn `N` `shard-worker` processes, serve probes
//!   checked bit-for-bit against the local operator, drain the workers.
//! - `serve --tenants FILE`: host one operator per tenant (`--mmap`:
//!   zero-copy), check each against the owned decode, serve through WDRR.
//! - `shard-worker`: the child half of `serve --shards`, one shard rank.
//! - `update`: alternate matvecs with insert/remove rounds on a versioned
//!   registry slot, checking the swap protocol each round.
//!
//! Every file command runs in the `--precision` mode: an `f32` file serves
//! as mixed unless `--precision f32`; an `f64` file only as `f64`.
//!
//! Exit status 2 is a usage error; 1 is a runtime error, printed as
//! `h2serve <cmd>: <error>`.

use h2_core::cache::split_budget;
use h2_core::H2Operator;
use h2_core::{BasisMethod, BuilderStrategy, CacheBudget, H2Config, H2MatrixS, MemoryMode};
use h2_dist::net::{run_worker, BoundCoordinator, NetConfig, NetError, ShardCoordinator};
use h2_kernels::{kernel_by_name, Kernel};
use h2_linalg::Scalar;
use h2_points::gen;
use h2_serve::{
    codec, DrainReport, LoadError, MatvecService, MetricsServer, OperatorRegistry, TenantTable,
};
use h2_telemetry::Exposition;
use std::process::exit;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// `--precision`: `f64`, `f32` or `mixed-f32`.
    precision: &'static str,
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
            precision: "f64",
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
         [--builder anchor|sketched] [--method dd|interp] \
         [--leaf L] [--eta E] [--seed S] \
         [--out FILE] [--file FILE] [--requests R] [--batches K] \
         [--precision f64|f32|mixed] [--cache-budget off|BYTES|RATIO|full] \
         [--shards N] [--rank R] [--connect ADDR] [--io-timeout-ms MS] \
         [--metrics-addr ADDR] [--trace FILE] [--flight-dir DIR] [--duration-s S] \
         [--updates U] [--points P] [--tenants FILE] [--mmap]"
    );
    exit(if msg.is_empty() { 0 } else { 2 });
}

/// `value` parsed as `flag`'s type, or a usage error naming the flag.
fn num<T: FromStr>(flag: &str, value: String) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad {flag}")))
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
            "--n" => o.n = num(a, val()),
            "--dim" => o.dim = num(a, val()),
            "--tol" => o.tol = num(a, val()),
            "--mode" => o.mode = MemoryMode::parse(&val()).unwrap_or_else(|| usage("bad --mode")),
            "--kernel" => o.kernel = val(),
            "--builder" => o.builder = val(),
            "--method" => o.method = val(),
            "--leaf" => o.leaf = num(a, val()),
            "--eta" => o.eta = num(a, val()),
            "--seed" => o.seed = num(a, val()),
            "--out" => o.out = Some(val()),
            "--file" => o.file = Some(val()),
            "--requests" => o.requests = num(a, val()),
            "--precision" => {
                o.precision = match val().as_str() {
                    "f64" | "double" => "f64",
                    "f32" | "single" => "f32",
                    "mixed" | "mixed-f32" => "mixed-f32",
                    _ => usage("bad --precision"),
                }
            }
            "--cache-budget" => {
                o.cache_budget =
                    CacheBudget::parse(&val()).unwrap_or_else(|| usage("bad --cache-budget"))
            }
            "--batches" => o.batch = num(a, val()),
            "--shards" => o.shards = num(a, val()),
            "--rank" => o.rank = num(a, val()),
            "--connect" => o.connect = Some(val()),
            "--io-timeout-ms" => o.io_timeout_ms = Some(num(a, val())),
            "--metrics-addr" => o.metrics_addr = Some(val()),
            "--trace" => o.trace_out = Some(val()),
            "--flight-dir" => o.flight_dir = Some(val()),
            "--duration-s" => o.duration_s = num(a, val()),
            "--updates" => o.updates = num(a, val()),
            "--points" => o.points = num(a, val()),
            "--tenants" => o.tenants = Some(val()),
            "--mmap" => o.mmap = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let positive = |x: f64| x > 0.0 && x.is_finite();
    for (ok, msg) in [
        (o.n > 0, "--n must be at least 1"),
        (o.dim > 0, "--dim must be at least 1"),
        (positive(o.tol), "--tol must be a positive number"),
        (positive(o.eta), "--eta must be a positive number"),
        (o.leaf > 0, "--leaf must be at least 1"),
        (o.batch > 0, "--batches must be at least 1"),
    ] {
        if !ok {
            usage(msg);
        }
    }
    o
}

/// `--file`, or a usage error: `cmd` needs an operator file.
fn file_of<'a>(o: &'a Opts, cmd: &str) -> &'a str {
    o.file
        .as_deref()
        .unwrap_or_else(|| usage(&format!("{cmd} needs --file FILE")))
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
        cache_budget: o.cache_budget,
    }
}

/// The probe vector of `seed` in the scalar `S`.
fn probe<S: Scalar>(n: usize, seed: u64) -> Vec<S> {
    h2_core::error_est::probe_vector(n, seed)
        .into_iter()
        .map(S::from_f64)
        .collect()
}

/// Prints the operator's stats and the precision mode `(S, A)` it runs in.
fn report<S: Scalar, A: Scalar>(h2: &H2MatrixS<S>) {
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
    let precision = match (S::NAME, A::NAME) {
        ("f32", "f64") => "mixed-f32",
        (s, _) => s,
    };
    println!("precision: {precision}");
    if let Some(c) = h2.cache_stats() {
        println!(
            "cache: budget {:.1} KiB, resident {:.1} KiB ({} blocks)",
            c.budget_bytes as f64 / 1024.0,
            c.resident_bytes as f64 / 1024.0,
            c.entries
        );
    }
}

/// Times one matvec accumulated in `A` and samples its relative error
/// against exact kernel rows.
fn check_and_time<S: Scalar, A: Scalar>(h2: &H2MatrixS<S>, seed: u64) {
    let b = probe::<A>(h2.n(), seed ^ 0xC0FFEE);
    let t = Instant::now();
    let y = h2.matvec(&b);
    let mv_ms = t.elapsed().as_secs_f64() * 1e3;
    let err = h2.estimate_rel_error(&b, &y, 12, seed);
    println!("matvec: {mv_ms:.2} ms, sampled relative error {err:.2e}");
}

/// A subcommand, its flags checked, with the operator file it reads.
#[derive(Clone, Copy)]
enum Cmd<'a> {
    Build,
    Save(&'a str),
    Load(&'a str, Instant),
    Metrics(Option<&'a str>),
    Serve(&'a str),
    ShardWorker(&'a str, &'a str),
    Update(&'a str),
}

impl<'a> Cmd<'a> {
    fn file(self) -> Option<&'a str> {
        match self {
            Cmd::Build | Cmd::Save(_) => None,
            Cmd::Metrics(file) => file,
            Cmd::Load(file, _)
            | Cmd::Serve(file)
            | Cmd::ShardWorker(file, _)
            | Cmd::Update(file) => Some(file),
        }
    }
}

/// The one precision rule: maps the operator's storage scalar and
/// `--precision` to `(S, A)` and runs `cmd` there. A file is read at the
/// scalar its header records; without one, `--precision f32`/`mixed` build
/// in `f32`. An `f32` operator runs pure `f32` under `--precision f32` and
/// mixed (`f64` accumulation) otherwise; an `f64` file under `f32`/`mixed`
/// is a precision mismatch, not a silent conversion.
fn dispatch(cmd: Cmd, o: &Opts) -> Result<(), String> {
    let kernel = make_kernel(&o.kernel);
    let file = cmd.file();
    let fail = |e: LoadError| format!("cannot load {}: {e}", file.unwrap_or_default());
    let stored = match file {
        Some(file) => codec::stored_scalar_file(file).map_err(fail)?,
        None if o.precision == "f64" => "f64",
        None => "f32",
    };
    // `serve` decodes the bitwise reference its hosted copies are checked
    // against; they, not the reference, get the cache budget.
    let budget = match cmd {
        Cmd::Serve(_) => CacheBudget::Off,
        _ => o.cache_budget,
    };
    match (stored, o.precision) {
        ("f64", "f64") => run::<f64, f64>(cmd, o, operator(o, kernel, file, budget).map_err(fail)?),
        ("f32", "f32") => run::<f32, f32>(cmd, o, operator(o, kernel, file, budget).map_err(fail)?),
        ("f32", _) => run::<f32, f64>(cmd, o, operator(o, kernel, file, budget).map_err(fail)?),
        (stored, requested) => Err(fail(LoadError::PrecisionMismatch { stored, requested })),
    }
}

/// The one builder/loader, at the storage scalar `S`: the `file` loaded
/// with the `--kernel` kernel and `budget` installed (files never persist
/// a cache), or without a file, an operator built from the build flags.
fn operator<S: Scalar>(
    o: &Opts,
    kernel: Arc<dyn Kernel>,
    file: Option<&str>,
    budget: CacheBudget,
) -> Result<H2MatrixS<S>, LoadError> {
    let Some(file) = file else {
        let pts = gen::uniform_cube(o.n, o.dim, o.seed);
        return Ok(H2MatrixS::build(&pts, kernel, &config_for(o)));
    };
    let mut h2 = codec::load(file, kernel)?;
    h2.set_cache_budget(budget);
    Ok(h2)
}

/// `cmd` on an operator stored in `S` whose products accumulate in `A`.
fn run<S: Scalar, A: Scalar>(cmd: Cmd, o: &Opts, h2: H2MatrixS<S>) -> Result<(), String>
where
    H2MatrixS<S>: H2Operator<A>,
{
    match cmd {
        Cmd::Build => {
            report::<S, A>(&h2);
            check_and_time::<S, A>(&h2, o.seed);
        }
        Cmd::Save(out) => {
            report::<S, A>(&h2);
            let t = Instant::now();
            // The file records the storage scalar; mixed mode stores f32 and
            // is re-selected with `--precision mixed` at load time.
            let bytes = codec::save(&h2, out).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!(
                "saved {out}: {:.1} KiB in {:.1} ms",
                bytes as f64 / 1024.0,
                t.elapsed().as_secs_f64() * 1e3
            );
        }
        Cmd::Load(file, t) => {
            println!("loaded {file} in {:.1} ms", t.elapsed().as_secs_f64() * 1e3);
            report::<S, A>(&h2);
            check_and_time::<S, A>(&h2, o.seed);
        }
        Cmd::Metrics(file) => metrics::<S, A>(h2, o, file)?,
        Cmd::Update(_) => update_workload::<S, A>(h2, o)?,
        Cmd::Serve(file) => match &o.tenants {
            Some(tenants) => serve_tenants::<S, A>(h2, o, file, tenants)?,
            None => serve_distributed::<S, A>(h2, o, file)?,
        },
        Cmd::ShardWorker(_, connect) => shard_worker(&h2, o, connect)?,
    }
    Ok(())
}

/// The one serving loop: submits every `(tenant, b)` request (`None` is
/// the default tenant), drains the service in fused sweeps, then waits for
/// each result; `check(i, y)` says whether request `i`'s result is right.
fn serve_round<'a, O: H2Operator<S>, S: Scalar>(
    svc: &MatvecService<O, S>,
    requests: impl Iterator<Item = (Option<&'a str>, Vec<S>)>,
    check: impl Fn(usize, Vec<S>) -> bool,
) -> Result<DrainReport, String> {
    let tickets = requests
        .map(|(tenant, b)| match tenant {
            Some(id) => svc.submit_for(id, b),
            None => svc.submit(b),
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("submit failed: {e}"))?;
    let rep = svc.drain();
    for (i, t) in tickets.into_iter().enumerate() {
        let y = t.wait().map_err(|e| format!("request {i} failed: {e}"))?;
        if !check(i, y) {
            return Err(format!("request {i}: result differs from the local apply"));
        }
    }
    Ok(rep)
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
/// returned server is dropped, so an operator can watch the deployment
/// while traffic flows.
fn start_scrape<O: H2Operator<S> + Send + Sync + 'static, S: Scalar, R: Scalar>(
    o: &Opts,
    svc: &Arc<MatvecService<O, S>>,
    tenants: bool,
    registry: Option<Arc<OperatorRegistry<R>>>,
) -> Result<Option<MetricsServer>, String> {
    let Some(addr) = &o.metrics_addr else {
        return Ok(None);
    };
    let svc = svc.clone();
    let render = move || metrics_body(&svc, tenants, registry.as_deref());
    let srv = MetricsServer::start(addr, render)
        .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
    println!("metrics: http://{}/metrics (and /healthz)", srv.addr());
    Ok(Some(srv))
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
fn metrics<S: Scalar, A: Scalar>(
    h2: H2MatrixS<S>,
    o: &Opts,
    file: Option<&str>,
) -> Result<(), String>
where
    H2MatrixS<S>: H2Operator<A>,
{
    let name = match file {
        Some(f) => std::path::Path::new(f)
            .file_stem()
            .map_or_else(|| f.to_string(), |s| s.to_string_lossy().into_owned()),
        None => format!("{}-n{}", o.kernel, o.n),
    };
    let op = Arc::new(h2);
    let svc = MatvecService::new(op.clone(), o.batch);
    let requests = (0..o.requests).map(|s| (None, probe::<A>(op.n(), o.seed ^ (s as u64) << 8)));
    serve_round(&svc, requests, |_, _| true)?;
    print!(
        "{}",
        metrics_body(&svc, false, Some(&registry_of(&name, &op)))
    );
    Ok(())
}

/// `update`: the operator in a versioned registry slot, registry-mediated
/// clone-apply-swap updates interleaved with matvecs accumulated in `A`,
/// verifying the swap protocol every round.
fn update_workload<S: Scalar, A: Scalar>(h2: H2MatrixS<S>, o: &Opts) -> Result<(), String> {
    let dim = h2.dim();
    let reg: OperatorRegistry<S> = OperatorRegistry::new();
    reg.insert("live", Arc::new(h2));
    let live = || reg.get("live").ok_or("'live' is not registered");
    let first = live()?;
    println!(
        "registered 'live': n={} dim={dim} scalar={} epoch={}",
        first.n(),
        S::NAME,
        first.epoch()
    );
    for round in 0..o.updates {
        // A handle taken before the swap: the in-flight side of the
        // protocol. It must finish on the epoch it started on.
        let inflight = live()?;
        let b = probe::<A>(inflight.n(), o.seed ^ (round as u64));
        let y_inflight = inflight.as_ref().matvec(&b);
        let fresh_pts = gen::uniform_cube(o.points, dim, o.seed + 1 + round as u64);
        let departing: Vec<usize> = (0..o.points.min(inflight.n() - 1)).collect();
        let t = Instant::now();
        let (swapped, (ins, rem)) = reg
            .update_with("live", |op| {
                let ins = op.insert_points(&fresh_pts)?;
                let rem = op.remove_points(&departing)?;
                Ok::<_, h2_core::UpdateError>((ins, rem))
            })
            .ok_or("'live' is not registered")?
            .map_err(|e| e.to_string())?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        // Post-swap submissions see the new operator; the in-flight handle
        // is bit-identical to its pre-swap result.
        if !Arc::ptr_eq(&live()?, &swapped) {
            return Err("post-swap lookup missed the new operator".into());
        }
        if inflight.as_ref().matvec(&b) != y_inflight {
            return Err("in-flight handle changed under a swap".into());
        }
        let b2 = probe::<A>(swapped.n(), o.seed ^ 0xD1CE);
        let y2 = swapped.as_ref().matvec(&b2);
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
    let final_op = live()?;
    println!(
        "final: n={} epoch={} registry updates={}",
        final_op.n(),
        final_op.epoch(),
        reg.update_count("live").ok_or("'live' is not registered")?
    );
    let mut gauges = Exposition::new();
    reg.expose(&mut gauges);
    for line in gauges.finish().lines() {
        if line.contains("_epoch{") || line.contains("_updates{") {
            println!("{line}");
        }
    }
    if let Some(out) = &o.out {
        let bytes =
            codec::save(final_op.as_ref(), out).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!(
            "saved {out}: {:.1} KiB at epoch {} (stored epoch {})",
            bytes as f64 / 1024.0,
            final_op.epoch(),
            codec::stored_epoch_file(out).map_err(|e| format!("cannot read {out}: {e}"))?
        );
    }
    Ok(())
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
        cfg.io_timeout = Duration::from_millis(ms.max(1));
    }
    cfg.trace = o.trace_out.is_some();
    cfg.flight_dir = o.flight_dir.as_ref().map(std::path::PathBuf::from);
    cfg
}

/// `shard-worker`: serve one shard rank of `h2` until the coordinator
/// drains us. The handshake's scalar byte rejects a coordinator running a
/// different width; the coordinator's plan sets the accumulator.
fn shard_worker<S: Scalar>(h2: &H2MatrixS<S>, o: &Opts, connect: &str) -> Result<(), String> {
    let r = run_worker(h2, o.rank, o.shards, connect, net_config(o)).map_err(|e| e.to_string())?;
    println!(
        "rank {} drained: {} sweeps, sent {} B / {} msgs, recv {} B / {} msgs",
        r.rank,
        r.sweeps,
        r.traffic.sent_bytes,
        r.traffic.sent_messages,
        r.traffic.recv_bytes,
        r.traffic.recv_messages
    );
    Ok(())
}

/// Spawns `shards` `shard-worker` children of this binary and returns the
/// running deployment, accumulating in `A`.
fn spawn_deployment<S: Scalar, A: Scalar>(
    h2: Arc<H2MatrixS<S>>,
    o: &Opts,
    file: &str,
) -> Result<ShardCoordinator<S, A>, NetError> {
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

/// `serve --shards` in `(S, A)`: batched requests through `MatvecService`
/// over the distributed operator, each result checked bit-for-bit against
/// the local serial apply of `h2` in `A`.
fn serve_distributed<S: Scalar, A: Scalar>(
    h2: H2MatrixS<S>,
    o: &Opts,
    file: &str,
) -> Result<(), String>
where
    H2MatrixS<S>: H2Operator<A>,
{
    let h2 = Arc::new(h2);
    let coord = spawn_deployment::<S, A>(h2.clone(), o, file).map_err(|e| e.to_string())?;
    println!(
        "deployment up: {} workers serving n={} (plan level {})",
        coord.shards(),
        coord.n(),
        coord.plan().level
    );
    for (r, h) in coord.health().into_iter().enumerate() {
        let rtt = h.map_err(|e| e.to_string())?;
        println!("rank {r}: alive, ping {:.1} us", rtt.as_secs_f64() * 1e6);
    }
    let n = coord.n();
    let op = Arc::new(coord);
    let k = o.batch;
    let svc: Arc<MatvecService<ShardCoordinator<S, A>, A>> =
        Arc::new(MatvecService::new(op.clone(), k));
    let scrape = start_scrape(o, &svc, false, None::<Arc<OperatorRegistry<S>>>)?;
    let mk = |s: usize| (None, probe::<A>(n, o.seed ^ (s as u64) << 8));
    let t0 = Instant::now();
    let rep = serve_round(&svc, (0..o.requests).map(mk), |s, y| {
        y == H2Operator::<A>::matvec(h2.as_ref(), &mk(s).1)
    })?;
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
        let deadline = Instant::now() + Duration::from_secs(o.duration_s);
        let mut extra = 0usize;
        while Instant::now() < deadline {
            serve_round(&svc, (extra..extra + k).map(mk), |_, _| true)?;
            extra += k;
        }
        println!(
            "sustained traffic for {}s: {} further requests served",
            o.duration_s, extra
        );
    }
    drop(scrape);
    if let Some(path) = &o.trace_out {
        let json = op.cluster_trace_json();
        std::fs::write(path, &json).map_err(|e| format!("cannot write trace {path}: {e}"))?;
        println!("trace: wrote {} ({} bytes)", path, json.len());
    }
    drop(svc);
    let coord = Arc::try_unwrap(op).map_err(|_| "coordinator still shared at shutdown")?;
    coord.shutdown().map_err(|e| e.to_string())?;
    println!("all workers drained cleanly");
    Ok(())
}

// --------------------------------------------------- multi-tenant hosting

/// `serve --tenants`: parse the tenant policy file,
/// host one operator per tenant in a registry (zero-copy under `--mmap`),
/// verify bitwise identity against the `owned` decode, partition the cache
/// budget by `cache_share`, then serve a round-robin workload through a
/// WDRR `MatvecService` and report per-tenant quantiles and gauges.
fn serve_tenants<S: Scalar, A: Scalar>(
    owned: H2MatrixS<S>,
    o: &Opts,
    file: &str,
    tenants: &str,
) -> Result<(), String>
where
    H2MatrixS<S>: H2Operator<A>,
{
    let text =
        std::fs::read_to_string(tenants).map_err(|e| format!("cannot read {tenants}: {e}"))?;
    let table =
        TenantTable::parse(&text).map_err(|e| format!("bad tenant policy file {tenants}: {e}"))?;
    let kernel = make_kernel(&o.kernel);
    // The owned decode is the bitwise reference every hosted operator is
    // checked against, and the footprint baseline for the resident gauge.
    let n = owned.n();
    let owned_total = owned.memory_report().total();
    let cache_total = o.cache_budget.resolve(owned.full_block_bytes());
    let budgets = split_budget(cache_total, &table.cache_shares());

    let reg: Arc<OperatorRegistry<S>> = Arc::new(OperatorRegistry::new());
    let t = Instant::now();
    let hosted = table
        .iter()
        .map(|(i, id, _)| {
            let budget = match budgets[i] {
                0 => CacheBudget::Off,
                b => CacheBudget::Bytes(b as u64),
            };
            let (id, kernel) = (id.as_str(), kernel.clone());
            if o.mmap {
                reg.load_file_mmap_with_budget(id, file, kernel, budget)
            } else {
                reg.load_file_with_budget(id, file, kernel, budget)
            }
            .map_err(|e| format!("tenant '{id}': load failed: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
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
    let x = probe::<A>(n, o.seed);
    let bits = |op: &H2MatrixS<S>| -> Vec<u64> {
        let y = op.matvec(&x);
        y.iter().map(|v| v.to_f64().to_bits()).collect()
    };
    let want = bits(&owned);
    for ((_, id, _), op) in table.iter().zip(&hosted) {
        if bits(op.as_ref()) != want {
            return Err(format!("tenant '{id}': differs from the owned decode"));
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
        let worst_pct = rows
            .iter()
            .map(|r| r.total_bytes as f64 / (r.total_bytes + r.mapped_bytes) as f64)
            .fold(0.0f64, f64::max)
            * 100.0;
        println!("mmap residency: worst resident fraction {worst_pct:.2}%");
        if worst_pct > 5.0 {
            return Err(format!("mmap residency gate failed: {worst_pct:.2}% > 5%"));
        }
        println!("TENANT_SERVE_MMAP_OK");
    }

    // One WDRR service arbitrates all tenants; every tenant hosts the same
    // file here, so a single fused sweep serves each drained batch.
    let op = hosted.into_iter().next().ok_or("no tenant to host")?;
    let svc = Arc::new(MatvecService::for_tenants(op, o.batch, table.clone()));
    if cache_total > 0 {
        svc.set_tenant_cache_budgets(budgets);
    }
    let _scrape = start_scrape(o, &svc, true, Some(reg.clone()))?;
    for round in 0..o.requests {
        let b = probe::<A>(n, o.seed ^ (round as u64) << 8);
        let requests = table
            .iter()
            .map(|(_, id, _)| (Some(id.as_str()), b.clone()));
        serve_round(&svc, requests, |_, _| true)?;
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
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        usage("missing subcommand");
    };
    let o = parse_opts(&args[1..]);
    let cmd = match name.as_str() {
        "build" => Cmd::Build,
        "save" => Cmd::Save(
            o.out
                .as_deref()
                .unwrap_or_else(|| usage("save needs --out FILE")),
        ),
        "load" => Cmd::Load(file_of(&o, "load"), Instant::now()),
        "metrics" => Cmd::Metrics(o.file.as_deref()),
        "serve" => {
            let file = file_of(&o, "serve");
            if o.tenants.is_none() && o.shards == 0 {
                usage(
                    "serve needs --shards N (N >= 1), or --tenants FILE for multi-tenant hosting",
                );
            }
            Cmd::Serve(file)
        }
        "shard-worker" => {
            let file = file_of(&o, "shard-worker");
            let Some(connect) = &o.connect else {
                usage("shard-worker needs --connect ADDR");
            };
            if o.shards == 0 {
                usage("shard-worker needs --shards N (N >= 1)");
            }
            Cmd::ShardWorker(file, connect)
        }
        "update" => Cmd::Update(file_of(&o, "update")),
        "--help" | "-h" => usage(""),
        c => usage(&format!("unknown subcommand '{c}'")),
    };
    if let Err(e) = dispatch(cmd, &o) {
        match cmd {
            Cmd::ShardWorker(..) => eprintln!("h2serve {name}: rank {}: {e}", o.rank),
            _ => eprintln!("h2serve {name}: {e}"),
        }
        exit(1);
    }
}
