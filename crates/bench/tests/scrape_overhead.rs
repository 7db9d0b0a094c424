//! A scraper looping `GET /metrics` against a live service costs under 1%
//! of the serving wall-clock. `#[ignore]`d because it times a release
//! workload; `check.sh` runs it against the release build:
//!
//! ```text
//! cargo test --release -p h2-bench --test scrape_overhead -- --ignored
//! ```

use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
use h2_kernels::Coulomb;
use h2_points::gen;
use h2_serve::{MatvecService, MetricsServer};
use std::io::{Read as _, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[test]
#[ignore = "times a serving workload; run in release via check.sh"]
fn scrape_render_cost_stays_under_one_percent_of_serving() {
    // An on-the-fly operator: regeneration-heavy sweeps give the study a
    // real serving workload to hide scrapes behind.
    let (n, seed) = (2500, 1);
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-6, 3),
        mode: MemoryMode::OnTheFly,
        ..H2Config::default()
    };
    let pts = gen::uniform_cube(n, 3, seed);
    let op = Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg));
    scrape_overhead_study(op, 64, seed);
}

/// Serves one workload while a scraper loops `GET /metrics` against the
/// live endpoint, then asserts the exposition render cost stayed under 1%
/// of the serving wall-clock. Render time is measured directly inside the
/// render closure — the number is the cost the observability plane adds,
/// independent of scheduler noise between runs.
fn scrape_overhead_study(op: Arc<H2Matrix>, requests: usize, seed: u64) {
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
