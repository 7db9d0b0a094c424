//! **Serving study** — batch amortization of the fused multi-RHS sweep.
//!
//! The paper's on-the-fly mode trades ~10× memory for regenerating every
//! coupling/nearfield block inside each matvec (§III-A, §VI-B). The serving
//! layer exploits the flip side: `k` queued requests drained through one
//! fused `matmat` generate each block **once per batch** instead of once per
//! request. This harness drives `h2_serve::MatvecService` over both memory
//! modes and batch sizes k ∈ {1, 2, 4, 8, 16}, reporting wall-clock,
//! latency percentiles, throughput, and — because timings are noisy but
//! work counts are not — the deterministic kernel-evaluation counters from
//! `h2-core`'s telemetry-backed diagnostics (exact on any core count; the
//! drain below is single-threaded either way).
//!
//! Each memory mode is served in two precision modes — `f64` and
//! `mixed-f32` (f32 storage behind the f64 request interface) — so the JSON
//! rows expose how precision interacts with batch amortization.
//!
//! Two observability gates ride along. Every cell also retains the exact
//! per-request latency samples and asserts the bounded log-linear
//! histogram's p50/p99 land within one bucket width of the exact sorted
//! percentiles — the histograms are what production metrics report, so the
//! bench is where their error bound meets real timing data. A final study
//! serves a workload while a scraper hammers the live `GET /metrics`
//! endpoint and asserts the render cost stays under 1% of the serving
//! wall-clock.

use h2_bench::{json_record, write_json, Args, Table};
use h2_core::diagnostics::counters;
use h2_core::{AnyH2, BasisMethod, H2Config, H2Matrix, H2MatrixS, MemoryMode, MixedH2};
use h2_kernels::Coulomb;
use h2_points::gen;
use h2_serve::metrics::percentile;
use h2_serve::{MatvecService, MetricsServer};
use h2_telemetry::hist::bucket_width;
use std::io::{Read as _, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

json_record! {
    /// One measured (mode, precision, batch-size) cell.
    #[derive(Clone, Debug)]
    struct ServeRow {
        mode: String,
        precision: String,
        batch: usize,
        requests: usize,
        sweeps: u64,
        p50_latency_us: u64,
        p99_latency_us: u64,
        p50_queue_us: u64,
        p99_queue_us: u64,
        p50_compute_us: u64,
        p99_compute_us: u64,
        busy_ms: f64,
        throughput_rps: f64,
        coupling_blocks: u64,
        nearfield_blocks: u64,
        kernel_evals: u64,
    }
}

fn main() {
    let args = Args::parse();
    let n = if args.full { 60_000 } else { 12_000 };
    let n = args.sizes.as_ref().map_or(n, |s| s[0]);
    let tol = args.tol_or(1e-6);
    let requests = 64;
    let batches = [1usize, 2, 4, 8, 16];
    let pts = gen::uniform_cube(n, 3, args.seed);

    println!("Serve throughput: n={n}, cube, Coulomb, tol={tol:.0e}, {requests} requests\n");
    let mut rows: Vec<ServeRow> = Vec::new();
    let mut scrape_op: Option<Arc<AnyH2>> = None;
    for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(tol, 3),
            mode,
            ..H2Config::default()
        };
        let ops = [
            (
                "f64",
                Arc::new(AnyH2::F64(Arc::new(H2Matrix::build(
                    &pts,
                    Arc::new(Coulomb),
                    &cfg,
                )))),
            ),
            (
                "mixed-f32",
                Arc::new(AnyH2::Mixed(MixedH2::new(Arc::new(
                    H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &cfg),
                )))),
            ),
        ];
        for (precision, op) in ops {
            // The scrape-overhead study below reuses the on-the-fly f64
            // operator: regeneration-heavy sweeps give it a real serving
            // workload to hide scrapes behind.
            if matches!(mode, MemoryMode::OnTheFly) && precision == "f64" {
                scrape_op = Some(op.clone());
            }
            let mut t = Table::new(&[
                "batch k",
                "sweeps",
                "p50 us",
                "p99 us",
                "p99 queue us",
                "p99 compute us",
                "busy ms",
                "req/s",
                "blocks generated",
                "kernel evals",
            ]);
            for &k in &batches {
                let svc = MatvecService::new(op.clone(), k);
                svc.service_metrics().keep_exact_samples(true);
                let tickets: Vec<_> = (0..requests)
                    .map(|s| {
                        let b =
                            h2_core::error_est::probe_vector(op.n(), args.seed ^ (s as u64 + 1));
                        svc.submit(b).expect("sized to the operator")
                    })
                    .collect();
                let scope = counters::scope();
                let rep = svc.drain();
                let (cb, nb, evals) = (
                    scope.count("coupling_blocks"),
                    scope.count("nearfield_blocks"),
                    scope.count("kernel_evals"),
                );
                drop(scope);
                for ticket in tickets {
                    let _ = ticket.wait().expect("serving a local operator cannot fail");
                }
                let m = svc.metrics();
                // The histogram quantiles the snapshot reports must sit
                // within one bucket width of the exact sorted samples.
                let exact = svc
                    .service_metrics()
                    .exact_latencies_us()
                    .expect("exact retention was enabled");
                assert_eq!(exact.len(), requests);
                for (q, hist) in [(0.5, m.p50_latency_us), (0.99, m.p99_latency_us)] {
                    let e = percentile(&exact, q);
                    assert!(
                        hist >= e && hist - e < bucket_width(hist.max(e)),
                        "k={k} {precision} {}: histogram p{} = {hist} vs exact {e}",
                        mode.name(),
                        (q * 100.0) as u32
                    );
                }
                t.row(vec![
                    k.to_string(),
                    rep.sweeps.to_string(),
                    m.p50_latency_us.to_string(),
                    m.p99_latency_us.to_string(),
                    m.p99_queue_us.to_string(),
                    m.p99_compute_us.to_string(),
                    format!("{:.1}", m.busy_ms),
                    format!("{:.0}", m.throughput_rps),
                    (cb + nb).to_string(),
                    evals.to_string(),
                ]);
                rows.push(ServeRow {
                    mode: mode.name().to_string(),
                    precision: precision.to_string(),
                    batch: k,
                    requests,
                    sweeps: rep.sweeps as u64,
                    p50_latency_us: m.p50_latency_us,
                    p99_latency_us: m.p99_latency_us,
                    p50_queue_us: m.p50_queue_us,
                    p99_queue_us: m.p99_queue_us,
                    p50_compute_us: m.p50_compute_us,
                    p99_compute_us: m.p99_compute_us,
                    busy_ms: m.busy_ms,
                    throughput_rps: m.throughput_rps,
                    coupling_blocks: cb,
                    nearfield_blocks: nb,
                    kernel_evals: evals,
                });
            }
            println!("mode = {}, precision = {precision}", mode.name());
            t.print();
            println!();
        }
    }

    scrape_overhead_study(
        scrape_op.expect("on-the-fly f64 operator built above"),
        requests,
        args.seed,
    );

    write_json(&args.json, rows);
    println!("SERVE_THROUGHPUT_CHECK_OK");
}

/// Serves one workload while a scraper loops `GET /metrics` against the
/// live endpoint, then asserts the exposition render cost stayed under 1%
/// of the serving wall-clock. Render time is measured directly inside the
/// render closure — the number is the cost the observability plane adds,
/// independent of scheduler noise between runs.
fn scrape_overhead_study(op: Arc<AnyH2>, requests: usize, seed: u64) {
    let svc = Arc::new(MatvecService::new(op, 4));
    let render_ns = Arc::new(AtomicU64::new(0));
    let srv = {
        let svc = svc.clone();
        let render_ns = render_ns.clone();
        MetricsServer::start("127.0.0.1:0", move || {
            let t = Instant::now();
            let body = svc.metrics().prometheus_text();
            render_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            body
        })
        .expect("bind scrape endpoint")
    };
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = stop.clone();
        let addr = srv.addr();
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut s = std::net::TcpStream::connect(addr).expect("connect scrape endpoint");
                write!(s, "GET /metrics HTTP/1.0\r\n\r\n").expect("send scrape");
                let mut resp = String::new();
                s.read_to_string(&mut resp).expect("read scrape");
                assert!(resp.starts_with("HTTP/1.0 200 OK"), "scrape failed: {resp}");
                assert!(
                    resp.contains("h2_serve_latency_us_bucket"),
                    "exposition is missing the native histogram series"
                );
                scrapes += 1;
                // Even 100 scrapes/s is ~1000× denser than a real
                // Prometheus interval; no need to hammer the endpoint
                // back-to-back to make the overhead bound meaningful.
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            scrapes
        })
    };
    let t0 = Instant::now();
    let tickets: Vec<_> = (0..requests)
        .map(|s| {
            let b = h2_core::error_est::probe_vector(svc.operator().n(), seed ^ (s as u64 + 1));
            svc.submit(b).expect("sized to the operator")
        })
        .collect();
    svc.drain();
    for ticket in tickets {
        let _ = ticket.wait().expect("serving a local operator cannot fail");
    }
    let wall = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    drop(srv);
    let spent_ns = render_ns.load(Ordering::Relaxed);
    let overhead = spent_ns as f64 / wall.as_nanos().max(1) as f64;
    println!(
        "live scrape: {scrapes} scrapes during {:.1} ms of serving, \
         render cost {:.4}% of wall",
        wall.as_secs_f64() * 1e3,
        overhead * 100.0
    );
    assert!(scrapes > 0, "the scraper never completed a request");
    assert!(
        overhead < 0.01,
        "scrape render cost {:.3}% exceeds the 1% budget",
        overhead * 100.0
    );
}
