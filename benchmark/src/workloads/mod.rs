//! The five workloads and the driver that runs any of them.
//!
//! Every workload is a closed loop with one caller: the next operation starts
//! when the previous one has returned, because every user of this system
//! (solver loop, serving client round, update stream) waits for its reply.

pub mod apply;
pub mod churn;
pub mod serve;

use crate::metrics::Metrics;
use crate::pace::{local_slowdowns, Bound, Pace};
use crate::stats::{median, summarize, tail_p90, Summary};
use crate::trace::Recorder;
use h2_cache::CacheStats;
use std::time::Instant;

/// Names in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = [
    "stored_f64",
    "otf_sphere_f64",
    "sketched_cached_panel",
    "serve_tenants_mmap",
    "churn",
];

/// The `--seconds` every workload's `OPS` was sized for (`run_seconds` in
/// `BENCHMARK.json`; `schema-check` holds the two together).
pub const NOMINAL_SECONDS: f64 = 15.0;
/// Set-ups per untraced run; `setup_s` and `build_s` are the medians.
const SETUP_REPS: usize = 5;
/// Probe passes before and after every set-up.
const SETUP_PROBES: usize = 3;
/// Operations run (untimed) at the end of every set-up.
pub const WARMUP_OPS: usize = 3;
/// Right-hand sides every workload cycles through.
pub const RING: usize = 8;
/// Operations of a traced run's counted pass. Counts (kernel evaluations,
/// cache misses, allocations, update path nodes) are taken over this
/// sequence, which does not scale with `--seconds`.
pub const COUNT_OPS: usize = 2 * RING;

pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Tiny sizes for the harness smoke; numbers are meaningless.
    pub quick: bool,
    /// Flip one bit of the first result before it is checked (proves the
    /// checks fail a run).
    pub perturb: bool,
    pub t_proc: Instant,
}

/// The ring of right-hand sides, a function of the seed only.
pub fn rhs_ring(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let base = seed.wrapping_mul(0x9E37_79B9);
    // `probe_vector` ignores the seed's lowest bit, hence the stride of 2.
    (0..RING as u64)
        .map(|k| h2_core::error_est::probe_vector(n, base.wrapping_add(2 * k)))
        .collect()
}

/// Flips the lowest mantissa bit of `v[0]` when `--perturb` is given.
pub fn maybe_perturb(p: &Params, v: &mut [f64]) {
    if p.perturb {
        v[0] = f64::from_bits(v[0].to_bits() ^ 1);
    }
}

pub struct StepOut {
    /// Right-hand sides applied.
    pub rhs: usize,
    pub attempted: usize,
    pub failed: usize,
}

#[derive(Default)]
pub struct Verdict {
    /// `estimate_rel_error` of the first operation's result.
    pub rel_err: f64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Verdict {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Operations of one timed window at `NOMINAL_SECONDS`. A count, not a
    /// duration: frozen when the window took about that long on the
    /// reference host, so that every run of every later commit does the same
    /// work and a faster program simply finishes it sooner.
    const OPS: usize;
    /// The host resource that bounds one operation, which picks the probe
    /// its times are corrected with (`pace.rs`).
    const BOUND: Bound;
    /// The most operations one operator may be put through.
    fn max_ops(_quick: bool) -> usize {
        usize::MAX
    }
    /// Frozen sizes, for the results file.
    fn sizes(quick: bool) -> Vec<(&'static str, f64)>;
    /// Everything before the first timed operation: points, build,
    /// save/load, shard plan, warm-up operations.
    fn setup(p: &Params, rec: &mut Recorder) -> Self;
    /// Wall time of the single operator build call inside `setup`.
    fn build_s(&self) -> f64;
    /// Logical operator bytes after warm-up (see README: `mem_mib`).
    fn mem_bytes(&self) -> usize;
    /// Operation `i`; pushes one latency (ms) per operation it contains.
    fn step(&mut self, i: usize, rec: &mut Recorder, lat_ms: &mut Vec<f64>) -> StepOut;
    /// Accuracy and cross-checks, run after the timed window and after the
    /// peak resident set was read, so reference operators do not count.
    fn verify(&mut self, p: &Params) -> Verdict;
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
    /// Layer metrics only this workload can produce (replays, counts). A
    /// cross-check that fails here adds a line to `failures`.
    fn layer_metrics(
        &mut self,
        p: &Params,
        rec: &mut Recorder,
        m: &mut Metrics,
        failures: &mut Vec<String>,
    );
    /// Hands back spans recorded on other threads and stops them.
    fn teardown(self, _rec: &mut Recorder) {}
    /// Removes what the run's set-ups left on disk; called once, last.
    fn cleanup(_p: &Params) {}
}

struct Window {
    /// Wall latencies, as `step` pushed them.
    lat_ms: Vec<f64>,
    /// `lat_ms.len()` after each step (a serving round pushes several).
    lat_end: Vec<usize>,
    /// Wall seconds of each step, the probe after it excluded.
    step_s: Vec<f64>,
    /// Slowdown read by the probe pass that followed each step.
    slowdown: Vec<f64>,
    rhs: usize,
    attempted: usize,
    failed: usize,
}

impl Window {
    fn steps(&self) -> usize {
        self.step_s.len()
    }

    /// Latencies (ms) and step lengths (s) at reference speed: each step's
    /// times divided by the slowdown its neighbouring probe passes read.
    fn paced(&self) -> (Vec<f64>, Vec<f64>) {
        let slow = local_slowdowns(&self.slowdown);
        let mut lat = Vec::with_capacity(self.lat_ms.len());
        let mut first = 0;
        for (&end, &k) in self.lat_end.iter().zip(&slow) {
            lat.extend(self.lat_ms[first..end].iter().map(|ms| ms / k));
            first = end;
        }
        let steps = self.step_s.iter().zip(&slow).map(|(s, k)| s / k);
        (lat, steps.collect())
    }
}

/// Runs operations `first..first + steps`, one probe pass after each.
fn window<W: Workload>(
    w: &mut W,
    first: usize,
    steps: usize,
    rec: &mut Recorder,
    pace: &mut Pace,
) -> Window {
    let mut out = Window {
        lat_ms: Vec::new(),
        lat_end: Vec::new(),
        step_s: Vec::new(),
        slowdown: Vec::new(),
        rhs: 0,
        attempted: 0,
        failed: 0,
    };
    for i in first..first + steps {
        rec.set_op(i as u64 + 1);
        let t = Instant::now();
        let s = rec.span("bench", "op", |rec| w.step(i, rec, &mut out.lat_ms));
        out.step_s.push(t.elapsed().as_secs_f64());
        out.lat_end.push(out.lat_ms.len());
        out.slowdown.push(pace.pass());
        out.rhs += s.rhs;
        out.attempted += s.attempted;
        out.failed += s.failed;
    }
    rec.set_op(0);
    out
}

/// One reported value with the sample summary it came from, if any.
pub struct Reported {
    pub name: &'static str,
    pub value: f64,
    /// The wall-clock value a time metric was corrected from.
    pub raw: Option<f64>,
    pub summary: Option<Summary>,
}

pub struct RunResult {
    pub workload: &'static str,
    pub sizes: Vec<(&'static str, f64)>,
    pub reported: Vec<Reported>,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub threads: usize,
    /// Median slowdown the probe read around the set-ups and inside the
    /// window: what the time metrics were divided by.
    pub slowdown: [(&'static str, f64); 2],
    /// Wall time (ms) of every operation of the timed window and the
    /// slowdown the probe pass after it read, in order: the run record keeps
    /// them so that a burst of the host can be told from the program after
    /// the fact.
    pub series: [Vec<f64>; 2],
    pub trace_json: Option<String>,
}

/// Operations of this run's timed window: `W::OPS` scaled by `--seconds`,
/// capped so that the whole run stays within `W::max_ops`.
fn window_ops<W: Workload>(p: &Params) -> usize {
    let scaled = (W::OPS as f64 * p.seconds / NOMINAL_SECONDS).round() as usize;
    let counted = if p.traced { COUNT_OPS } else { 0 };
    scaled.min(W::max_ops(p.quick) - counted).max(4)
}

/// Wall and reference-speed times of the set-ups of one run.
#[derive(Default)]
struct Setups {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    raw_setup_s: Vec<f64>,
    raw_build_s: Vec<f64>,
}

/// The seven end-to-end metrics: one window with tracing off.
fn end_to_end<W: Workload>(
    w: &mut W,
    p: &Params,
    setups: &Setups,
    rec: &mut Recorder,
    pace: &mut Pace,
) -> (Vec<Reported>, Window) {
    let mem_mib = w.mem_bytes() as f64 / (1024.0 * 1024.0);
    let win = window(w, 0, window_ops::<W>(p), rec, pace);
    let (paced, steps) = win.paced();
    let lat = summarize(&paced);
    let raw = summarize(&win.lat_ms);
    // Right-hand sides of one operation over the median length of one: a
    // total over the window's length would move with every burst of the host.
    let rhs_per_op = win.rhs as f64 / win.steps() as f64;
    let put = |name, value, raw, summary| Reported {
        name,
        value,
        raw,
        summary,
    };
    let reported = vec![
        put(
            "setup_s",
            median(&setups.setup_s),
            Some(median(&setups.raw_setup_s)),
            Some(summarize(&setups.setup_s)),
        ),
        put(
            "build_s",
            median(&setups.build_s),
            Some(median(&setups.raw_build_s)),
            Some(summarize(&setups.build_s)),
        ),
        put("op_p50_ms", lat.p50, Some(raw.p50), Some(lat)),
        put(
            "op_p90_ms",
            tail_p90(&paced),
            Some(tail_p90(&win.lat_ms)),
            Some(lat),
        ),
        put(
            "rhs_per_s",
            rhs_per_op / median(&steps),
            Some(rhs_per_op / median(&win.step_s)),
            None,
        ),
        put("mem_mib", mem_mib, None, None),
        // Read here, before `verify` builds any reference operator; the
        // probe's own buffer, resident since before the set-up, is left out.
        put(
            "peak_rss_mib",
            crate::host::peak_rss_mib() - pace.resident_bytes() as f64 / (1024.0 * 1024.0),
            None,
            None,
        ),
    ];
    (reported, win)
}

/// The traced run's operations: a counted pass, then the window split into
/// an untraced and a traced half. Returns `(attempted, failed)`.
fn traced_ops<W: Workload>(
    w: &mut W,
    p: &Params,
    rec: &mut Recorder,
    pace: &mut Pace,
    m: &mut Metrics,
) -> (usize, usize) {
    // The counted pass: a fixed operation sequence with every counter on.
    let evals0 = h2_telemetry::counter("kernel_evals").get();
    let cache0 = w.cache_stats().unwrap_or_default();
    crate::alloc::set_counting(true);
    let counted = window(w, 0, COUNT_OPS, rec, pace);
    let (allocs, alloc_bytes) = crate::alloc::counts();
    let cache1 = w.cache_stats().unwrap_or_default();
    let evals1 = h2_telemetry::counter("kernel_evals").get();
    // Then the window: first half with the recorder and the allocation
    // counters off, second half with both on. The ratio of the medians is
    // the tracing overhead, measured in one process on one operator, both
    // halves at reference speed.
    crate::alloc::set_counting(false);
    rec.set_enabled(false);
    let half = window_ops::<W>(p) / 2;
    let plain = window(w, counted.steps(), half, rec, pace);
    rec.set_enabled(true);
    crate::alloc::set_counting(true);
    let first = counted.steps() + plain.steps();
    let traced = window(w, first, half, rec, pace);
    crate::alloc::set_counting(false);

    let ops = counted.lat_ms.len().max(1) as f64;
    m.set("kernels.evals_per_op", (evals1 - evals0) as f64 / ops);
    m.set("core.allocs_per_op", allocs as f64 / ops);
    m.set("core.alloc_bytes_per_op", alloc_bytes as f64 / ops);
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    if hits + misses > 0 {
        m.set("cache.hit_rate", hits as f64 / (hits + misses) as f64);
    }
    m.set("cache.misses_per_op", misses as f64 / ops);
    m.set(
        "cache.evict_bytes_per_op",
        (cache1.evicted_bytes - cache0.evicted_bytes) as f64 / ops,
    );
    m.set(
        "cache.stale_purged_per_op",
        (cache1.stale_purged - cache0.stale_purged) as f64 / ops,
    );
    m.set(
        "cache.resident_mib",
        cache1.resident_bytes as f64 / (1024.0 * 1024.0),
    );
    m.set(
        "trace.overhead_frac",
        median(&traced.paced().0) / median(&plain.paced().0) - 1.0,
    );
    m.set("host.slowdown", median(&traced.slowdown));
    let applies = rec.durations_ms("apply");
    if !applies.is_empty() {
        m.set("core.apply_ms", median(&applies));
    }
    let by_layer = crate::trace::self_ms_by_layer(rec.spans(), |s| s.op > 0);
    let total: f64 = by_layer.iter().map(|(_, ms)| ms).sum();
    let harness = by_layer
        .iter()
        .find(|(l, _)| *l == "bench")
        .map_or(0.0, |(_, ms)| *ms);
    m.set(
        "trace.harness_self_frac",
        harness / total.max(f64::MIN_POSITIVE),
    );
    (
        counted.attempted + plain.attempted + traced.attempted,
        counted.failed + plain.failed + traced.failed,
    )
}

pub fn run<W: Workload>(p: &Params) -> RunResult {
    let mut rec = Recorder::new(p.traced, p.t_proc);
    let reps = if p.traced || p.quick { 1 } else { SETUP_REPS };
    // Probe passes before and after each set-up give its correction; their
    // time, and the probe's own allocation, are left out of `setup_s`.
    let started = p.t_proc.elapsed().as_secs_f64();
    let mut pace = Pace::new(W::BOUND);
    let mut before = pace.median_pass(SETUP_PROBES);
    let mut setups = Setups::default();
    let mut setup_slowdown = Vec::new();
    let mut state: Option<W> = None;
    for r in 0..reps {
        if let Some(old) = state.take() {
            old.teardown(&mut rec);
        }
        let t = Instant::now();
        let w = rec.span("bench", "setup", |rec| W::setup(p, rec));
        // The first set-up is timed from process start.
        let wall = t.elapsed().as_secs_f64() + if r == 0 { started } else { 0.0 };
        let after = pace.median_pass(SETUP_PROBES);
        let k = 0.5 * (before + after);
        setup_slowdown.push(k);
        before = after;
        setups.raw_setup_s.push(wall);
        setups.raw_build_s.push(w.build_s());
        setups.setup_s.push(wall / k);
        setups.build_s.push(w.build_s() / k);
        state = Some(w);
    }
    let mut w = state.expect("at least one set-up ran");

    let mut m = Metrics::default();
    let mut series = [Vec::new(), Vec::new()];
    let (mut reported, attempted, failed, op_slowdown) = if p.traced {
        let (attempted, failed) = traced_ops(&mut w, p, &mut rec, &mut pace, &mut m);
        let slowdown = m.get("host.slowdown").unwrap_or(1.0);
        (Vec::new(), attempted, failed, slowdown)
    } else {
        let (reported, win) = end_to_end(&mut w, p, &setups, &mut rec, &mut pace);
        let slowdown = median(&win.slowdown);
        series = [win.step_s.iter().map(|s| s * 1e3).collect(), win.slowdown];
        (reported, win.attempted, win.failed, slowdown)
    };

    let threads = crate::host::live_threads();
    let verdict = w.verify(p);
    let mut failures = verdict.failures;
    // One caller, plus the server thread a serving host cannot do without.
    let allowed = crate::host::nproc().max(2);
    if threads > allowed {
        failures.push(format!("{threads} live threads, at most {allowed} allowed"));
    }

    if p.traced {
        m.set("core.rel_err", verdict.rel_err);
        w.layer_metrics(p, &mut rec, &mut m, &mut failures);
        crate::probes::run_all(p.quick, &mut rec, &mut m);
    }
    w.teardown(&mut rec);
    W::cleanup(p);
    let mut trace_json = None;
    if p.traced {
        derive_ratios(&mut m);
        m.set("trace.spans", rec.spans().len() as f64);
        reported = crate::metrics::PER_LAYER
            .iter()
            .map(|d| Reported {
                name: d.name,
                value: m.get(d.name).unwrap_or(0.0),
                raw: None,
                summary: None,
            })
            .collect();
        trace_json = Some(rec.to_json());
    }

    RunResult {
        workload: W::NAME,
        sizes: W::sizes(p.quick),
        reported,
        attempted: attempted.max(1),
        failed: failed + failures.len(),
        failures,
        threads,
        slowdown: [("setup", median(&setup_slowdown)), ("ops", op_slowdown)],
        series,
        trace_json,
    }
}

/// Ratios of a layer rate to the host probe measured in the same run, and
/// the share of an apply the two replayed sweeps account for.
fn derive_ratios(m: &mut Metrics) {
    let ratio = |m: &Metrics, a: &str, b: &str| match (m.get(a), m.get(b)) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    };
    if let Some(r) = ratio(m, "linalg.gemv_gbps", "host.triad_gbps") {
        m.set("linalg.gemv_frac_triad", r);
    }
    if let Some(r) = ratio(m, "kernels.fused_evals_per_s", "host.scalar_evals_per_s") {
        m.set("kernels.fused_frac_scalar", r);
    }
    if let (Some(apply), Some(h), Some(nf)) = (
        m.get("core.apply_ms"),
        m.get("core.horizontal_ms"),
        m.get("core.nearfield_ms"),
    ) {
        m.set("core.tree_self_ms", apply - h - nf);
        m.set("core.sweep_cover_frac", (h + nf) / apply);
    }
}

pub fn run_named(name: &str, p: &Params) -> Option<RunResult> {
    Some(match name {
        "stored_f64" => run::<apply::Stored>(p),
        "otf_sphere_f64" => run::<apply::OtfSphere>(p),
        "sketched_cached_panel" => run::<apply::CachedPanel>(p),
        "serve_tenants_mmap" => run::<serve::ServeTenants>(p),
        "churn" => run::<churn::Churn>(p),
        _ => return None,
    })
}
