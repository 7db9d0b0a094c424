//! The `/metrics` body end to end: one golden for the whole composed body,
//! a format check every body must pass, hostile names through every source,
//! the per-scrape contract of a live endpoint, and (`#[ignore]`d; `check.sh`
//! runs it under a timeout like `multiprocess`) the live observability gate
//! against a real `h2serve serve` deployment:
//!
//! ```text
//! cargo test -p h2-serve --test observability -- --ignored --test-threads=1
//! ```

use h2_core::{BasisMethod, CacheStats, H2Config, H2Matrix, MemoryMode};
use h2_serve::{
    MatvecService, MetricsServer, MetricsSnapshot, OperatorRegistry, QueueMode, ServiceMetrics,
    TenantId, TenantTable,
};
use h2_telemetry::{Exposition, SpanRecord, TelemetrySnapshot};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One parsed sample line; label values are unescaped.
#[derive(Debug)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

impl Sample {
    fn label(&self, key: &str) -> Option<&str> {
        let found = self.labels.iter().find(|(k, _)| k == key);
        found.map(|(_, v)| v.as_str())
    }
}

/// Parses `name[{k="v",…}] value`; anything else panics.
fn parse_sample(line: &str) -> Sample {
    let split = line.find(['{', ' ']).expect("sample has a value");
    let (name, mut rest) = line.split_at(split);
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    assert!(!name.is_empty() && name.chars().all(word), "{line:?}");
    let mut labels = Vec::new();
    if let Some(body) = rest.strip_prefix('{') {
        let (mut key, mut val, mut quoted) = (String::new(), String::new(), false);
        let mut chars = body.char_indices();
        let end = loop {
            let (i, c) = chars.next().expect("labels are closed");
            match (quoted, c) {
                (false, '}') => break i,
                (false, ',') => {}
                (false, '=') => quoted = chars.next().is_some_and(|(_, c)| c == '"'),
                (false, c) => key.push(c),
                (true, '\\') => val.push(match chars.next().map(|(_, c)| c) {
                    Some('n') => '\n',
                    Some(c @ ('\\' | '"')) => c,
                    other => panic!("unknown escape {other:?}: {line:?}"),
                }),
                (true, '"') => {
                    labels.push((std::mem::take(&mut key), std::mem::take(&mut val)));
                    quoted = false;
                }
                (true, c) => val.push(c),
            }
        };
        rest = &body[end + 1..];
    }
    let value = rest.strip_prefix(' ').and_then(|v| v.parse().ok());
    Sample {
        name: name.to_string(),
        labels,
        value: value.unwrap_or_else(|| panic!("no numeric value: {line:?}")),
    }
}

/// Holds a body to the text format as this stack uses it and returns its
/// samples: every non-comment line is `name[{labels}] value` with a numeric
/// value; every sample belongs to a family declared by exactly one `# TYPE`
/// line above it (so no two sources declare the same family); a histogram's
/// `_bucket` counts never decrease and its `+Inf` bucket equals `_count`.
fn validate(body: &str) -> Vec<Sample> {
    assert!(body.is_empty() || body.ends_with('\n'), "unterminated body");
    let mut kinds: HashMap<&str, &str> = HashMap::new();
    let mut samples = Vec::new();
    for line in body.lines() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (name, kind) = decl.split_once(' ').expect("TYPE line has a kind");
            assert!(["counter", "gauge", "histogram"].contains(&kind), "{line}");
            assert!(kinds.insert(name, kind).is_none(), "declared twice: {name}");
            continue;
        }
        let s = parse_sample(line);
        let stem = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| s.name.strip_suffix(suffix))
            .filter(|stem| kinds.get(stem) == Some(&"histogram"));
        let kind = kinds.get(stem.unwrap_or(&s.name));
        let kind = kind.unwrap_or_else(|| panic!("no # TYPE line above: {line}"));
        assert_eq!(*kind == "histogram", stem.is_some(), "{line}");
        samples.push(s);
    }
    for (family, _) in kinds.iter().filter(|(_, kind)| **kind == "histogram") {
        let of = |suffix: &str| {
            let series = format!("{family}{suffix}");
            samples.iter().filter(move |s| s.name == series)
        };
        let buckets: Vec<&Sample> = of("_bucket").collect();
        let rising = buckets.windows(2).all(|w| w[0].value <= w[1].value);
        assert!(rising, "{family}: bucket counts decrease");
        let inf = buckets.last().expect("a histogram has a +Inf bucket");
        let count = of("_count").next().expect("a histogram has a _count");
        assert_eq!((inf.label("le"), inf.value), (Some("+Inf"), count.value));
    }
    samples
}

fn tiny() -> Arc<H2Matrix> {
    let pts = h2_points::gen::uniform_cube(200, 2, 1);
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-4, 2),
        mode: MemoryMode::OnTheFly,
        leaf_size: 32,
        eta: 0.7,
        ..H2Config::default()
    };
    Arc::new(H2Matrix::build(&pts, Arc::new(h2_kernels::Coulomb), &cfg))
}

type SpanSpec<'a> = (&'static str, Option<&'a str>, u64);

fn telemetry(counters: &[(&str, u64)], spans: &[SpanSpec]) -> TelemetrySnapshot {
    let span = |&(name, label, dur_ns): &SpanSpec| SpanRecord {
        name: name.into(),
        label: label.map(str::to_string),
        tid: 1,
        start_ns: 0,
        dur_ns,
        depth: 1,
        trace: 0,
    };
    TelemetrySnapshot {
        counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        spans: spans.iter().map(span).collect(),
    }
}

/// The whole body in the order `h2serve`'s `metrics_body` composes it:
/// service → tenants → registry → telemetry.
fn compose(
    service: &MetricsSnapshot,
    tenants: &MatvecService,
    registry: &OperatorRegistry,
    telemetry: &TelemetrySnapshot,
) -> String {
    let mut out = Exposition::new();
    service.expose(&mut out);
    tenants.expose_tenants(&mut out);
    registry.expose(&mut out);
    telemetry.expose(&mut out);
    out.finish()
}

/// The one golden: fixed recorded sweeps with cache stats attached, a
/// three-tenant table with a partitioned cache budget and queued/rejected
/// submissions, a registry holding one named operator, and a hand-built
/// telemetry snapshot, against the bytes the five pre-writer renderers
/// produced for the same state (captured at `6f68b5d`).
#[test]
fn whole_metrics_body_matches_the_golden_fixture() {
    let us = Duration::from_micros;
    let m = ServiceMetrics::new();
    m.record_sweep(3, us(2000), &[us(100), us(200), us(300)]);
    m.record_sweep(1, us(1000), &[us(400)]);
    m.record_sweep(3, us(2500), &[us(5), us(70_000), us(300)]);
    let mut service = m.snapshot();
    service.cache = Some(CacheStats {
        hits: 90,
        misses: 10,
        evicted_bytes: 0,
        stale_purged: 3,
        entries: 10,
        resident_bytes: 2048,
        budget_bytes: 8192,
    });

    let table = TenantTable::parse(
        "[alpha]\nweight = 4.0\ncache_share = 2.0\n[beta]\nmax_queue = 1\n\
         [gamma]\nweight = 0.5\nadmission = \"closed\"\n",
    )
    .unwrap();
    let op = tiny();
    let rhs = || vec![1.0; op.n()];
    let svc = MatvecService::with_tenants(op.clone(), 4, table.clone(), QueueMode::Wdrr);
    svc.submit_for("alpha", rhs()).unwrap();
    svc.submit_for("alpha", rhs()).unwrap();
    svc.submit_for("beta", rhs()).unwrap();
    assert!(svc.submit_for("beta", rhs()).is_err(), "beta's cap is 1");
    assert!(svc.submit_for("gamma", rhs()).is_err(), "gamma is closed");
    svc.set_tenant_cache_budgets(h2_cache::split_budget(1000, &table.cache_shares()));

    let reg = OperatorRegistry::new();
    reg.insert("cube", op.clone());
    let telemetry = telemetry(
        &[
            ("kernel_evals", 42),
            ("dist.bytes_sent", 7),
            ("cache.hit", 5),
        ],
        &[
            ("matvec.upward", None, 1_500_000_000),
            ("matvec.upward", None, 500_000_000),
            ("dist.upward", Some("rank=0"), 1_000),
        ],
    );

    let body = compose(&service, &svc, &reg, &telemetry);
    // The operator's footprint is the builder's business, not this test's.
    let resident = op.memory_report().total().to_string();
    let golden = include_str!("fixtures/metrics_body.prom").replace("{resident}", &resident);
    assert_eq!(body, golden);
    validate(&body);
    // Each kept one-line wrapper is its source's slice of the same body.
    assert!(body.starts_with(&service.prometheus_text()));
    assert!(body.ends_with(&telemetry.prometheus_text()));
}

#[test]
fn the_empty_body_is_still_well_formed() {
    let svc = MatvecService::new(tiny(), 4);
    let (idle, none) = (
        ServiceMetrics::new().snapshot(),
        TelemetrySnapshot::default(),
    );
    let body = compose(&idle, &svc, &OperatorRegistry::new(), &none);
    let zero = |s: &Sample| s.value == 0.0 || s.name == "h2_tenant_weight";
    assert!(validate(&body).iter().all(zero));
    // Families without entries still declare themselves.
    assert!(body.contains("# TYPE h2_registry_operator_epoch gauge\n"));
    assert!(body.contains("# TYPE h2_serve_batch_sweeps_total counter\n"));
}

/// An operator, a tenant and a span label named to break out of a label
/// (quote, brace), defuse a naive escaper (backslash) and forge a sample
/// line (newline) stay inside their labels in every source of the body.
#[test]
fn hostile_names_cannot_forge_samples_in_any_source() {
    let hostile = "a\"b\\c\n} 1\nforged_metric 42";
    // Tenant names are validated at the policy boundary (no whitespace), so
    // the newline cannot even get in; quote, backslash and brace can.
    assert!(TenantId::new(hostile).is_err());
    let hostile_tenant = "a\"b\\c}";
    let table = TenantTable::parse(&format!("[{hostile_tenant}]\n")).unwrap();
    let op = tiny();
    let svc = MatvecService::with_tenants(op.clone(), 4, table, QueueMode::Wdrr);
    let reg = OperatorRegistry::new();
    reg.insert(hostile, op);
    let spans = [("evil\"span", Some(hostile), 1_000)];
    let telemetry = telemetry(&[("evil\n# TYPE x counter\nx", 1)], &spans);
    let body = compose(&svc.metrics(), &svc, &reg, &telemetry);
    assert!(!body.contains("\nforged_metric"), "forged a line:\n{body}");
    let samples = validate(&body);
    // Every label value round-trips to exactly the name that went in.
    let labelled = |key: &str, want: &str| {
        let values: Vec<&str> = samples.iter().filter_map(|s| s.label(key)).collect();
        assert!(values.iter().all(|v| *v == want), "{key}: {values:?}");
        values.len()
    };
    assert_eq!(labelled("operator", hostile), 6);
    assert_eq!(labelled("tenant", hostile_tenant), 9);
    assert_eq!(labelled("label", hostile), 2);
    assert_eq!(labelled("span", "evil\"span"), 2);
    // A hostile counter *name* is sanitised into one well-formed family.
    let sanitised = |s: &Sample| s.name == "h2_evil___TYPE_x_counter_x";
    assert!(samples.iter().any(sanitised));
}

fn http_get(addr: &str, path: &str) -> String {
    let mut s = std::net::TcpStream::connect(addr).expect("connect to the endpoint");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    let (head, body) = resp.split_once("\r\n\r\n").expect("head/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    body.to_string()
}

/// Regression for the `serve --tenants` scrape, which rendered the registry
/// once before the server started and served that text forever: a live
/// endpoint built the way `h2serve` builds it (sources shared by `Arc`,
/// exposed inside the render closure) reports registry gauges as of each
/// scrape.
#[test]
fn a_live_endpoint_reads_the_registry_per_scrape() {
    let op = tiny();
    let reg = Arc::new(OperatorRegistry::new());
    reg.insert("live", op.clone());
    let svc = Arc::new(MatvecService::new(op, 4));
    let render = {
        let reg = reg.clone();
        move || compose(&svc.metrics(), &svc, &reg, &TelemetrySnapshot::default())
    };
    let srv = MetricsServer::start("127.0.0.1:0", render).unwrap();
    let scrape = |series: &str| {
        let samples = validate(&http_get(&srv.addr().to_string(), "/metrics"));
        let found = samples.iter().find(|s| s.name == series);
        found.unwrap_or_else(|| panic!("no {series}")).value
    };
    let resident = scrape("h2_registry_operator_resident_bytes");
    assert_eq!(scrape("h2_registry_operator_epoch"), 0.0);
    let extra = h2_points::PointSet::new(2, vec![0.41, 0.43, 0.51, 0.53]);
    reg.update_with("live", |op| op.insert_points(&extra))
        .expect("registered")
        .expect("insert succeeds");
    assert_eq!(scrape("h2_registry_operator_epoch"), 1.0);
    assert_eq!(scrape("h2_registry_operator_updates"), 1.0);
    assert!(scrape("h2_registry_operator_resident_bytes") > resident);
}

/// A real 2-shard deployment with the whole observability plane on: scrape
/// `/healthz` and `/metrics` while traffic flows (the endpoint binds port 0
/// and prints the address it got), then check the merged cluster trace and
/// the per-worker flight-recorder dumps it leaves behind.
#[test]
#[ignore = "spawns a multi-process deployment; run via check.sh"]
fn live_scrape_cluster_trace_and_flight_recorder() {
    let h2serve = || Command::new(env!("CARGO_BIN_EXE_h2serve"));
    let dir = std::env::temp_dir().join(format!("h2-observability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (file, trace) = (dir.join("op.h2"), dir.join("trace.json"));
    let saved = h2serve()
        .args(["save", "--n", "800", "--dim", "2", "--leaf", "64", "--out"])
        .arg(&file)
        .stdout(Stdio::null())
        .status();
    assert!(saved.expect("run h2serve save").success());
    let mut child = h2serve()
        .args([
            "serve",
            "--shards",
            "2",
            "--requests",
            "8",
            "--batches",
            "4",
        ])
        .args(["--metrics-addr", "127.0.0.1:0", "--duration-s", "4"])
        .args([
            "--file",
            file.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .args(["--flight-dir", dir.to_str().unwrap()])
        .stdout(Stdio::piped())
        .spawn()
        .expect("run h2serve serve");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut stdout = lines.by_ref().map(|l| l.expect("h2serve stdout"));
    let addr = stdout
        .find_map(|l| {
            l.strip_prefix("metrics: http://")?
                .split('/')
                .next()
                .map(String::from)
        })
        .expect("h2serve printed its scrape address");

    assert_eq!(http_get(&addr, "/healthz"), "ok\n");
    // Traffic outlives the verified workload by --duration-s: scrape until
    // served requests show up, then hold that body to the format.
    let deadline = Instant::now() + Duration::from_secs(30);
    let served = |s: &Sample| s.name == "h2_serve_requests_total" && s.value > 0.0;
    let samples = loop {
        let samples = validate(&http_get(&addr, "/metrics"));
        if samples.iter().any(served) {
            break samples;
        }
        assert!(Instant::now() < deadline, "no request served within 30 s");
        std::thread::sleep(Duration::from_millis(50));
    };
    let net = |s: &Sample| s.name.starts_with("h2_net_bytes_") && s.value > 0.0;
    assert!(samples.iter().any(net), "no net bytes flowing");
    let bucket = |s: &Sample| s.name == "h2_serve_latency_us_bucket" && s.value > 0.0;
    assert!(
        samples.iter().any(bucket),
        "no occupied native-histogram bucket"
    );

    let rest: Vec<String> = stdout.collect();
    assert!(child.wait().expect("h2serve exits").success(), "{rest:?}");
    let drained = |l: &String| l.contains("all workers drained cleanly");
    assert!(rest.iter().any(drained), "{rest:?}");

    let text = std::fs::read_to_string(&trace).expect("cluster trace written");
    let json: serde_json::Value = serde_json::from_str(&text).expect("trace parses");
    let events = json["traceEvents"].as_array().expect("traceEvents");
    let phase = |ph: &'static str| events.iter().filter(move |e| e["ph"].as_str() == Some(ph));
    let mut pids: Vec<u64> = phase("X").filter_map(|e| e["pid"].as_u64()).collect();
    pids.sort_unstable();
    pids.dedup();
    assert!(
        pids.len() >= 3,
        "spans from fewer than 3 processes: {pids:?}"
    );
    let names: Vec<&str> = phase("M")
        .filter_map(|e| e["args"]["name"].as_str())
        .collect();
    for process in ["rank0", "rank1", "coordinator"] {
        assert!(names.contains(&process), "{process} missing in {names:?}");
    }
    assert!(dir.join("h2-flight-rank0.json").is_file());
    assert!(dir.join("h2-flight-rank1.json").is_file());
    std::fs::remove_dir_all(&dir).ok();
}
