//! Workload-independent microprobes of the small layers: one public entry
//! point each, timed in a tight loop. They run in every traced run so that a
//! layer ratio is always taken against a probe measured in the same process.

use crate::metrics::Metrics;
use crate::trace::Recorder;
use h2_cache::{BlockCache, BlockKind};
use h2_linalg::Matrix;
use h2_tenant::{BatchScheduler, QueueMode, TenantTable};
use std::hint::black_box;
use std::time::Instant;

pub const TENANTS_TOML: &str = "[hog]\nweight = 1.0\n\n[light0]\nweight = 1.0\n\n\
                                [light1]\nweight = 1.0\n\n[light2]\nweight = 1.0\n";

/// `BlockCache::get_or_generate` on a resident key (hit) and on absent keys
/// (miss: generator call, admission, eviction once the budget is full). The
/// generator returns a zeroed 128x128 block, so a miss measures the cache
/// path and one 128 KiB allocation, not kernel evaluation.
fn cache_probe(quick: bool, m: &mut Metrics) {
    let cache = BlockCache::<f64>::new(16 << 20);
    assert!(cache.pin(BlockKind::Coupling, 0, 1, Matrix::zeros(64, 64)));
    let hits = if quick { 10_000 } else { 200_000 };
    let t = Instant::now();
    for _ in 0..hits {
        black_box(cache.get_or_generate(BlockKind::Coupling, 0, 1, || unreachable!()));
    }
    m.set("cache.hit_ns", t.elapsed().as_nanos() as f64 / hits as f64);

    let misses = if quick { 200 } else { 2000 };
    let t = Instant::now();
    for k in 0..misses {
        black_box(
            cache.get_or_generate(BlockKind::Nearfield, k, k + 1, || Matrix::zeros(128, 128)),
        );
    }
    m.set(
        "cache.miss_us",
        t.elapsed().as_nanos() as f64 / 1e3 / misses as f64,
    );
}

/// `BatchScheduler::push` / `next_batch(4)` with the benchmark's four tenants.
fn tenant_probe(quick: bool, m: &mut Metrics) {
    let table = TenantTable::parse(TENANTS_TOML).expect("static tenant table");
    let mut sched: BatchScheduler<u32> = BatchScheduler::new(table, QueueMode::Wdrr);
    let items = if quick { 10_000 } else { 100_000 };
    let t = Instant::now();
    for k in 0..items {
        sched.push(k % 4, k as u32).expect("unbounded queues admit");
    }
    m.set(
        "tenant.push_ns",
        t.elapsed().as_nanos() as f64 / items as f64,
    );
    let t = Instant::now();
    let mut batches = 0u64;
    while !sched.is_empty() {
        black_box(sched.next_batch(4));
        batches += 1;
    }
    m.set(
        "tenant.next_batch_ns",
        t.elapsed().as_nanos() as f64 / batches as f64,
    );
}

/// Cost of the program's own telemetry primitives (open+close one span, one
/// counter add), which every sweep phase pays.
fn telemetry_probe(quick: bool, m: &mut Metrics) {
    let spans = if quick { 5_000 } else { 100_000 };
    let t = Instant::now();
    for _ in 0..spans {
        drop(h2_telemetry::span("h2bench.probe"));
    }
    m.set(
        "telemetry.span_ns",
        t.elapsed().as_nanos() as f64 / spans as f64,
    );
    // Release the probe's span records; nothing else reads the registry.
    drop(h2_telemetry::take_spans());

    let adds = if quick { 100_000 } else { 2_000_000 };
    let t = Instant::now();
    for _ in 0..adds {
        h2_telemetry::counter_add!("h2bench.probe", 1);
    }
    m.set(
        "telemetry.counter_ns",
        t.elapsed().as_nanos() as f64 / adds as f64,
    );
}

pub fn run_all(quick: bool, rec: &mut Recorder, m: &mut Metrics) {
    rec.span("bench", "probe.host", |_| {
        // The triad is the reference for block-algebra byte rates; touching
        // its three arrays costs seconds, so it only runs where one was
        // measured.
        if m.get("linalg.gemv_gbps").is_some() {
            let triad = crate::host::triad(quick);
            m.set("host.triad_gbps", triad.gbps);
            m.set("host.triad_array_mib", triad.array_mib);
        }
        m.set(
            "host.scalar_evals_per_s",
            crate::host::scalar_evals_per_s(quick),
        );
        m.set("host.nproc", crate::host::nproc() as f64);
        m.set("host.llc_mib", crate::host::llc_mib());
    });
    rec.span("h2-cache", "probe.cache", |_| cache_probe(quick, m));
    rec.span("h2-tenant", "probe.sched", |_| tenant_probe(quick, m));
    rec.span("h2-telemetry", "probe.telemetry", |_| {
        telemetry_probe(quick, m)
    });
}
