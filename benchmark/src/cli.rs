//! Command line of both binaries.
//!
//! ```text
//! h2bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--perturb]
//! h2bench merge --out FILE [--git REV] RUN.json...
//! h2bench compare A.json B.json
//! h2bench schema-check BENCHMARK.json
//! ```

use crate::metrics::{self, MetricDef};
use crate::workloads::{self, Params, RunResult};
use std::fmt::Write as _;
use std::time::Instant;

pub const OUT_DIR: &str = "benchmark/out";

pub fn main() -> i32 {
    let t_proc = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("merge") => crate::results::merge(&args[1..]),
        Some("compare") => crate::results::compare(&args[1..]),
        Some("schema-check") => schema_check(&args[1..]),
        _ => run_workload(&args, t_proc),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("h2bench: {msg}");
            2
        }
    }
}

pub(crate) fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1).map(String::as_str)
}

fn run_workload(args: &[String], t_proc: Instant) -> Result<i32, String> {
    let parse = |flag: &str, default: f64| -> Result<f64, String> {
        let Some(raw) = value_of(args, flag) else {
            return Ok(default);
        };
        raw.parse::<f64>()
            .map_err(|_| format!("{flag} wants a number, got {raw:?}"))
    };
    let name = value_of(args, "--workload").ok_or("--workload NAME is required")?;
    let trace = parse("--trace", 0.0)?;
    let seconds = parse("--seconds", workloads::NOMINAL_SECONDS)?;
    if !(trace == 0.0 || trace == 1.0) || !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--trace is 0 or 1 and --seconds is in (0, 60]".into());
    }
    let p = Params {
        seed: parse("--seed", 1.0)? as u64,
        seconds,
        traced: trace == 1.0,
        quick: args.iter().any(|a| a == "--quick"),
        perturb: args.iter().any(|a| a == "--perturb"),
        t_proc,
    };
    // The counting allocator belongs to traced runs and to nothing else.
    if p.traced != crate::alloc::installed() {
        return Err(format!(
            "--trace {} needs the {} binary (benchmark/run.sh picks it)",
            trace,
            if p.traced {
                "h2bench-traced"
            } else {
                "h2bench"
            }
        ));
    }
    let result = workloads::run_named(name, &p)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {:?}", workloads::NAMES))?;

    for r in &result.reported {
        let unit = metrics::def(r.name).map_or("", |d| d.unit);
        let samples = r.summary.map_or(String::new(), |s| format!(" n={}", s.n));
        let wall = r.raw.map_or(String::new(), |w| format!(" wall={w}"));
        println!(
            "{} {} {} {unit}{samples}{wall}",
            result.workload, r.name, r.value
        );
    }
    for (what, slowdown) in result.slowdown {
        println!("{} probe.{what} {slowdown} slowdown", result.workload);
    }
    for f in &result.failures {
        eprintln!("{}: FAILED CHECK: {f}", result.workload);
    }
    let correct = result.failed == 0 && result.reported.iter().all(|r| r.value.is_finite());

    if let Err(e) = write_files(&result, &p, correct) {
        eprintln!("h2bench: could not write under {OUT_DIR}: {e}");
    }
    println!("{}", driver_line(&result, correct));
    Ok(if correct { 0 } else { 1 })
}

/// JSON has no NaN or infinity; a non-finite value already failed the run.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The one-line result object the driver reads.
fn driver_line(r: &RunResult, correct: bool) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.attempted, r.failed
    );
    for (i, m) in r.reported.iter().enumerate() {
        let unit = metrics::def(m.name).map_or("", |d| d.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.name,
            num(m.value)
        );
    }
    s.push_str("}}");
    s
}

/// The per-run record `merge` collects, and the trace of a traced run.
fn write_files(r: &RunResult, p: &Params, correct: bool) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let mut s = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"quick\": {}, \"seconds\": {}, \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"threads\": {},\n \"sizes\": {{",
        r.workload,
        p.seed,
        p.traced as u8,
        p.quick,
        num(p.seconds),
        r.attempted,
        r.failed,
        r.threads
    );
    for (i, (k, v)) in r.sizes.iter().enumerate() {
        let _ = write!(s, "{}\"{k}\": {}", if i == 0 { "" } else { ", " }, num(*v));
    }
    s.push_str("},\n \"slowdown\": {");
    for (i, (what, slowdown)) in r.slowdown.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{what}\": {}", num(*slowdown));
    }
    s.push_str("},\n \"metrics\": {\n");
    for (i, m) in r.reported.iter().enumerate() {
        let unit = metrics::def(m.name).map_or("", |d| d.unit);
        let _ = write!(
            s,
            "  \"{}\": {{\"value\": {}, \"unit\": \"{unit}\"",
            m.name,
            num(m.value)
        );
        if let Some(w) = m.raw {
            let _ = write!(s, ", \"wall\": {}", num(w));
        }
        if let Some(q) = m.summary {
            let _ = write!(
                s,
                ", \"n\": {}, \"p25\": {}, \"p75\": {}",
                q.n,
                num(q.p25),
                num(q.p75)
            );
        }
        s.push_str(if i + 1 == r.reported.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    s.push_str(" }");
    for (name, v) in ["step_ms", "step_slowdown"].iter().zip(&r.series) {
        if !v.is_empty() {
            let list: Vec<String> = v.iter().map(|x| format!("{x:.3}")).collect();
            let _ = write!(s, ",\n \"{name}\": [{}]", list.join(", "));
        }
    }
    s.push_str("}\n");
    let stem = format!(
        "{OUT_DIR}/run_{}_t{}_s{}",
        r.workload, p.traced as u8, p.seed
    );
    std::fs::write(format!("{stem}.json"), s)?;
    if let Some(trace) = &r.trace_json {
        std::fs::write(format!("{OUT_DIR}/trace_{}.json", r.workload), trace)?;
    }
    Ok(())
}

/// Checks that `BENCHMARK.json` declares exactly the workloads and metrics
/// this binary reports, with the same units, directions and bounds.
fn schema_check(args: &[String]) -> Result<i32, String> {
    let path = args
        .first()
        .ok_or("schema-check wants the path of BENCHMARK.json")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut problems = Vec::new();

    if doc["run_seconds"] != workloads::NOMINAL_SECONDS {
        problems.push(format!(
            "run_seconds {:?} != the {} s the op counts were sized for",
            doc["run_seconds"],
            workloads::NOMINAL_SECONDS
        ));
    }
    let declared: Vec<&str> = doc["workloads"]
        .as_array()
        .map(|a| a.iter().filter_map(|w| w["name"].as_str()).collect())
        .unwrap_or_default();
    if declared != workloads::NAMES {
        problems.push(format!("workloads {declared:?} != {:?}", workloads::NAMES));
    }
    let mut check = |key: &str, defs: &[MetricDef]| {
        let listed = doc[key].as_array().cloned().unwrap_or_default();
        if listed.len() != defs.len() {
            problems.push(format!(
                "{key}: {} listed, {} reported",
                listed.len(),
                defs.len()
            ));
        }
        for d in defs {
            match listed.iter().find(|m| m["name"] == d.name) {
                None => problems.push(format!("{key}: {} is missing", d.name)),
                Some(m) => {
                    let same = m["unit"] == d.unit
                        && m["better"] == d.better
                        && d.bound.map_or(m["bound"].is_null(), |b| m["bound"] == b);
                    if !same {
                        problems.push(format!("{key}: {} differs from the binary", d.name));
                    }
                }
            }
        }
    };
    check("end_to_end", metrics::END_TO_END);
    check("per_layer", metrics::PER_LAYER);
    for p in &problems {
        eprintln!("schema-check: {p}");
    }
    if problems.is_empty() {
        println!("schema-check: BENCHMARK.json matches the binary");
    }
    Ok(problems.len().min(1) as i32)
}
