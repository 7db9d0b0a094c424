//! **Multi-tenant QoS study** — light-tenant tail latency under a hog.
//!
//! One serving front end, many tenants: the paper's fused multi-RHS sweep
//! amortizes block regeneration across whoever is in the batch, but the
//! *scheduling* of who gets into the batch decides whose p99 survives a
//! noisy neighbor. This harness drives `h2_serve::MatvecService` with one
//! hog tenant (a deep backlog every round) and several light tenants (one
//! request per round) two ways:
//!
//! - **FIFO** — the pre-tenant behavior: the same traffic submitted to the
//!   tenant-less service (`MatvecService::new`, one queue), which is global
//!   arrival order. The hog's backlog sits in front of every light request,
//!   so light latency grows with the hog's queue depth. The light requests
//!   arrive last in every round, so the shared queue's p99 *is* theirs.
//! - **WDRR** — the weighted-deficit-round-robin scheduler from
//!   `h2-tenant`: every backlogged tenant gets its weight's share of each
//!   batch, so a light request rides in the *first* sweep regardless of
//!   how deep the hog's backlog is.
//!
//! The acceptance bound (ISSUE 10): with equal weights, each light
//! tenant's p99 under WDRR must stay within **3×** of its isolated
//! baseline (the same workload with no hog present), while FIFO must
//! *violate* that bound — if FIFO passed too, the scheduler would be
//! decorative. `--check` runs a small deterministic instance and gates
//! both sides; `--json` dumps per-(mode, tenant) rows plus the summary.

use h2_bench::{json_record, write_json, Args, Table};
use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
use h2_kernels::Coulomb;
use h2_points::gen;
use h2_serve::{MatvecService, QueueMode, TenantTable};
use std::sync::Arc;

/// Light tenants riding alongside the hog.
const LIGHTS: usize = 3;
/// Requests the hog floods per round (light tenants submit one each).
const HOG_BACKLOG: usize = 24;
/// Fused-sweep batch cap.
const BATCH: usize = 4;
/// The acceptance bound: light p99 / isolated p99 under WDRR.
const BOUND: f64 = 3.0;

json_record! {
    /// One measured (mode, tenant) cell.
    #[derive(Clone, Debug)]
    struct QosRow {
        mode: String,
        tenant: String,
        served: u64,
        p50_us: u64,
        p99_us: u64,
    }
}

json_record! {
    /// The headline summary the check gates on.
    #[derive(Clone, Debug)]
    struct QosSummary {
        n: usize,
        rounds: usize,
        hog_backlog: usize,
        batch: usize,
        isolated_p99_us: u64,
        fifo_light_p99_us: u64,
        wdrr_light_p99_us: u64,
        fifo_ratio: f64,
        wdrr_ratio: f64,
        bound: f64,
    }
}

json_record! {
    struct QosReport {
        summary: QosSummary,
        rows: Vec<QosRow>,
    }
}

fn probe(n: usize, seed: u64) -> Vec<f64> {
    h2_core::error_est::probe_vector(n, seed)
}

/// Runs `rounds` rounds of the skewed workload through `svc`: the hog
/// floods `HOG_BACKLOG` requests, then each light tenant submits one, then
/// the whole queue drains. Arrival order favors the hog on purpose — FIFO
/// must feel the backlog. With `tenants` off, every request goes to the
/// service's one default queue instead of its tenant's.
fn run_skewed(svc: &MatvecService<H2Matrix>, rounds: usize, seed: u64, tenants: bool) {
    let n = svc.operator().n();
    let submit = |tenant: &str, b: Vec<f64>| {
        let ticket = if tenants {
            svc.submit_for(tenant, b)
        } else {
            svc.submit(b)
        };
        ticket.expect("admitted")
    };
    for round in 0..rounds {
        let mut tickets = Vec::new();
        for r in 0..HOG_BACKLOG {
            let s = seed ^ ((round * HOG_BACKLOG + r) as u64) << 8;
            tickets.push(submit("hog", probe(n, s)));
        }
        for l in 0..LIGHTS {
            let s = seed ^ 0xBEEF ^ ((round * LIGHTS + l) as u64) << 8;
            tickets.push(submit(&format!("light{l}"), probe(n, s)));
        }
        svc.drain();
        for t in tickets {
            t.wait().expect("request served");
        }
    }
}

/// The light tenants' worst p99 across the table (the tail the bound
/// protects).
fn worst_light_p99(svc: &MatvecService<H2Matrix>) -> u64 {
    (0..LIGHTS)
        .map(|l| svc.tenant_latency_quantile_us(&format!("light{l}"), 0.99))
        .max()
        .expect("at least one light tenant")
}

fn main() {
    let args = Args::parse();
    let check = args.check;

    let n = if check {
        1500
    } else if args.full {
        20_000
    } else {
        4000
    };
    let n = args.sizes.as_ref().map_or(n, |s| s[0]);
    let tol = args.tol_or(1e-6);
    let rounds = if check { 6 } else { 10 };

    // On-the-fly mode: sweeps regenerate blocks, so batch membership is
    // real work and queue position is real latency.
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(tol, 3),
        mode: MemoryMode::OnTheFly,
        ..H2Config::default()
    };
    let pts = gen::uniform_cube(n, 3, args.seed);
    let op = Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg));
    println!(
        "Tenant QoS: n={n}, on-the-fly, Coulomb, tol={tol:.0e}; \
         1 hog ({HOG_BACKLOG}/round) + {LIGHTS} light (1/round), \
         batch cap {BATCH}, {rounds} rounds\n"
    );

    // Isolated baseline: one light tenant, no hog — the p99 it would see
    // with the front end to itself.
    let isolated = MatvecService::new(op.clone(), BATCH);
    for round in 0..rounds {
        let t = isolated
            .submit(probe(n, args.seed ^ (round as u64) << 8))
            .expect("admitted");
        isolated.drain();
        t.wait().expect("served");
    }
    let isolated_p99 = isolated.metrics().p99_latency_us.max(1);

    let table_spec: String = std::iter::once("[hog]\nweight = 1.0\n".to_string())
        .chain((0..LIGHTS).map(|l| format!("\n[light{l}]\nweight = 1.0\n")))
        .collect();
    let tenants = TenantTable::parse(&table_spec).expect("static tenant spec");

    let mut rows: Vec<QosRow> = Vec::new();
    let mut light_p99 = [0u64; 2];
    for (i, (name, fair)) in [("fifo", false), ("wdrr", true)].into_iter().enumerate() {
        let svc = if fair {
            MatvecService::with_tenants(op.clone(), BATCH, tenants.clone(), QueueMode::Wdrr)
        } else {
            MatvecService::new(op.clone(), BATCH)
        };
        run_skewed(&svc, rounds, args.seed, fair);
        let mut t = Table::new(&["tenant", "served", "p50 us", "p99 us", "vs isolated"]);
        for (_, id, _) in svc.tenant_table().iter() {
            let p99 = svc.tenant_latency_quantile_us(id.as_str(), 0.99);
            rows.push(QosRow {
                mode: name.to_string(),
                tenant: id.as_str().to_string(),
                served: svc.tenant_served(id.as_str()),
                p50_us: svc.tenant_latency_quantile_us(id.as_str(), 0.50),
                p99_us: p99,
            });
            t.row(vec![
                id.as_str().to_string(),
                svc.tenant_served(id.as_str()).to_string(),
                svc.tenant_latency_quantile_us(id.as_str(), 0.50)
                    .to_string(),
                p99.to_string(),
                format!("{:.2}x", p99 as f64 / isolated_p99 as f64),
            ]);
        }
        light_p99[i] = if fair {
            worst_light_p99(&svc)
        } else {
            svc.metrics().p99_latency_us
        };
        println!("mode = {name}  (isolated light p99 = {isolated_p99} us)");
        println!("{}", t.render());
    }

    let summary = QosSummary {
        n,
        rounds,
        hog_backlog: HOG_BACKLOG,
        batch: BATCH,
        isolated_p99_us: isolated_p99,
        fifo_light_p99_us: light_p99[0],
        wdrr_light_p99_us: light_p99[1],
        fifo_ratio: light_p99[0] as f64 / isolated_p99 as f64,
        wdrr_ratio: light_p99[1] as f64 / isolated_p99 as f64,
        bound: BOUND,
    };
    println!(
        "light-tenant p99: isolated {} us | fifo {} us ({:.2}x) | wdrr {} us ({:.2}x), bound {BOUND}x",
        summary.isolated_p99_us,
        summary.fifo_light_p99_us,
        summary.fifo_ratio,
        summary.wdrr_light_p99_us,
        summary.wdrr_ratio
    );

    if check {
        assert!(
            summary.wdrr_ratio <= BOUND,
            "WDRR light p99 {:.2}x exceeds the {BOUND}x bound",
            summary.wdrr_ratio
        );
        assert!(
            summary.fifo_ratio > BOUND,
            "FIFO light p99 {:.2}x unexpectedly within the {BOUND}x bound — \
             the hog workload is not saturating the queue",
            summary.fifo_ratio
        );
        println!("TENANT_QOS_CHECK_OK");
    }

    write_json(&args.json, QosReport { summary, rows });
}
