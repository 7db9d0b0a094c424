//! `merge` (per-run records -> one results file) and `compare` (two results
//! files -> one verdict per metric and workload).

use crate::metrics::{self, MetricDef};
use crate::stats::quartiles;
use serde_json::Value;
use std::fmt::Write as _;

/// Counts that must repeat exactly between two sets run with the same seeds.
const EXACT: &[&str] = &[
    "kernels.evals_per_op",
    "cache.misses_per_op",
    "dist.wire_bytes_per_op",
    "dist.msgs_per_op",
    "dist.setup_bytes",
    "core.update_path_nodes",
    "sketch.samples",
    "sketch.retries",
    "mem_mib",
];

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn fields(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(f) => f,
        _ => &[],
    }
}

/// Re-renders a parsed JSON number/bool/string leaf.
fn leaf(v: &Value) -> String {
    match v {
        Value::Number(x) => format!("{x}"),
        Value::Bool(b) => format!("{b}"),
        Value::String(s) => format!("\"{s}\""),
        _ => "null".into(),
    }
}

/// Collects per-run records into one file: per workload its frozen sizes and,
/// per metric, one entry per run (seed, value, sample count and quartiles).
pub fn merge(args: &[String]) -> Result<i32, String> {
    let out = crate::cli::value_of(args, "--out").ok_or("merge wants --out FILE")?;
    let git = crate::cli::value_of(args, "--git").unwrap_or("unknown");
    let runs: Vec<Value> = args
        .iter()
        .filter(|a| a.ends_with(".json") && *a != out)
        .map(|p| load(p))
        .collect::<Result<_, _>>()?;
    if runs.is_empty() {
        return Err("merge: no run records given".into());
    }

    let mut s = format!(
        "{{\"schema\": 1,\n \"host\": {{\"nproc\": {}, \"llc_mib\": {}, \"git\": \"{git}\"}},\n \
         \"workloads\": {{\n",
        crate::host::nproc(),
        crate::host::llc_mib()
    );
    let mut first_w = true;
    for w in crate::workloads::NAMES {
        let mine: Vec<&Value> = runs.iter().filter(|r| r["workload"] == w).collect();
        let Some(any) = mine.first() else { continue };
        let _ = write!(
            s,
            "{}  \"{w}\": {{\"sizes\": {{",
            if first_w { "" } else { ",\n" }
        );
        first_w = false;
        for (i, (k, v)) in fields(&any["sizes"]).iter().enumerate() {
            let _ = write!(s, "{}\"{k}\": {}", if i == 0 { "" } else { ", " }, leaf(v));
        }
        s.push_str("}, \"metrics\": {");
        let mut first_m = true;
        for d in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            let entries: Vec<String> = mine
                .iter()
                .filter_map(|r| {
                    let m = r["metrics"].get(d.name)?;
                    let mut e = format!("{{\"seed\": {}", leaf(&r["seed"]));
                    for (k, v) in fields(m).iter().filter(|(k, _)| k != "unit") {
                        let _ = write!(e, ", \"{k}\": {}", leaf(v));
                    }
                    e.push('}');
                    Some(e)
                })
                .collect();
            if entries.is_empty() {
                continue;
            }
            let _ = write!(
                s,
                "{}\n    \"{}\": {{\"unit\": \"{}\", \"runs\": [{}]}}",
                if first_m { "" } else { "," },
                d.name,
                d.unit,
                entries.join(", ")
            );
            first_m = false;
        }
        s.push_str("\n  }}");
    }
    s.push_str("\n }}\n");
    std::fs::write(out, s).map_err(|e| format!("{out}: {e}"))?;
    println!("merged {} run records into {out}", runs.len());
    Ok(0)
}

fn values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc["workloads"][workload]["metrics"][metric]["runs"]
        .as_array()
        .map(|runs| runs.iter().filter_map(|r| r["value"].as_f64()).collect())
        .unwrap_or_default()
}

struct Side {
    median: f64,
    /// Interquartile range as a share of the median; `None` below two runs.
    spread: Option<f64>,
}

fn side(v: &[f64]) -> Option<Side> {
    if v.is_empty() {
        return None;
    }
    let median = crate::stats::median(v);
    let spread = quartiles(v).map(|[q1, _, q3]| (q3 - q1) / median.abs());
    Some(Side { median, spread })
}

/// One row of `compare`.
pub struct Row {
    pub word: &'static str,
    /// Signed share of A's median, positive = B is worse.
    pub worse_by: f64,
    /// The wider of the two sides' spreads (0 when neither has two runs).
    pub spread: f64,
}

/// The verdict for one end-to-end metric on one workload: A = parent,
/// B = change.
///
/// `improved` is `worse` with the sides swapped (A worse than B by more than
/// the bound, as a share of B's median), so a difference that reads
/// `unchanged` one way never reads as a gain the other way. `unresolved` means the runs
/// cannot tell: a side has fewer than two runs, or its spread is wider than
/// the bound. `missing` means B lacks a pair A has. A gain smaller than the
/// bound is claimed with alternating pairs (README, claim rules), not here.
pub fn verdict(d: &MetricDef, a: &[f64], b: &[f64]) -> Option<Row> {
    let bound = d.bound?;
    let a = side(a)?;
    let Some(b) = side(b) else {
        return Some(Row {
            word: "missing",
            worse_by: 0.0,
            spread: 0.0,
        });
    };
    // How much worse `change` is than `parent`, as a share of the parent.
    let worse = |parent: f64, change: f64| match d.better {
        "lower" => (change - parent) / parent,
        _ => (parent - change) / parent,
    };
    let worse_by = worse(a.median, b.median);
    let (word, spread) = match (a.spread, b.spread) {
        (Some(sa), Some(sb)) => {
            let spread = sa.max(sb);
            let word = if spread > bound {
                "unresolved"
            } else if worse_by > bound {
                "worse"
            } else if worse(b.median, a.median) > bound {
                "improved"
            } else {
                "unchanged"
            };
            (word, spread)
        }
        (sa, sb) => ("unresolved", sa.or(sb).unwrap_or(0.0)),
    };
    Some(Row {
        word,
        worse_by,
        spread,
    })
}

/// Applies each end-to-end metric's bound to two result files (A = parent,
/// B = change) and checks that the exact counts repeat. Exit code 1 when any
/// row is worse, unresolved, missing or differing.
pub fn compare(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err("compare wants two result files".into());
    };
    let (a, b) = (load(a)?, load(b)?);
    let mut bad = 0;
    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "metric", "workload", "A median", "B median", "worse%", "spread%", "bound%"
    );
    for w in crate::workloads::NAMES {
        for d in metrics::END_TO_END {
            let (va, vb) = (values(&a, w, d.name), values(&b, w, d.name));
            let Some(row) = verdict(d, &va, &vb) else {
                continue;
            };
            bad += matches!(row.word, "worse" | "unresolved" | "missing") as i32;
            let b_median = if vb.is_empty() {
                f64::NAN
            } else {
                crate::stats::median(&vb)
            };
            println!(
                "{:<14} {:<22} {:>12.5} {:>12.5} {:>8.2} {:>8.2} {:>6.1}  {}",
                d.name,
                w,
                crate::stats::median(&va),
                b_median,
                row.worse_by * 100.0,
                row.spread * 100.0,
                d.bound.unwrap_or(0.0) * 100.0,
                row.word
            );
        }
    }
    for w in crate::workloads::NAMES {
        for name in EXACT {
            let (va, vb) = (values(&a, w, name), values(&b, w, name));
            // A count that is zero on both sides says nothing; skip the row.
            if va.is_empty() || va.iter().chain(&vb).all(|&v| v == 0.0) {
                continue;
            }
            let word = match () {
                _ if vb.is_empty() => "missing",
                _ if va == vb => "exact",
                _ => "differs",
            };
            bad += (word != "exact") as i32;
            println!("{name:<30} {w:<22} {word}");
        }
    }
    Ok(bad.min(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p50() -> &'static MetricDef {
        metrics::def("op_p50_ms").unwrap() // lower is better
    }

    fn word(d: &MetricDef, a: &[f64], b: &[f64]) -> &'static str {
        verdict(d, a, b).unwrap().word
    }

    #[test]
    fn verdicts() {
        let d = p50();
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let same = [10.2, 10.1, 10.0, 10.1, 10.15];
        assert_eq!(word(d, &a, &same), "unchanged");
        let slow: Vec<f64> = a.iter().map(|x| x * 1.4).collect();
        assert_eq!(word(d, &a, &slow), "worse");
        let fast: Vec<f64> = a.iter().map(|x| x * 0.6).collect();
        assert_eq!(word(d, &a, &fast), "improved");
        // Quartiles 5 and 15 around a median of 10: wider than any bound.
        let noisy = [4.0, 16.0, 10.0, 5.0, 15.0];
        assert_eq!(word(d, &a, &noisy), "unresolved");
        // Higher-is-better metrics flip the sign.
        let r = metrics::def("rhs_per_s").unwrap();
        assert_eq!(word(r, &a, &slow), "improved");
        // One run a side cannot resolve anything; an absent side is missing.
        assert_eq!(word(d, &[10.0], &[5.0]), "unresolved");
        assert_eq!(word(d, &a, &[]), "missing");
    }

    /// Swapping the sides must never turn `unchanged` into a gain: whatever
    /// the difference, the two directions read either `unchanged` both ways
    /// or `improved` one way and `worse` the other.
    #[test]
    fn verdict_is_symmetric() {
        let d = p50();
        let bound = d.bound.unwrap();
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        for step in 0..=40 {
            let shift = bound * step as f64 / 20.0;
            let b: Vec<f64> = a.iter().map(|x| x * (1.0 - shift)).collect();
            let pair = (word(d, &a, &b), word(d, &b, &a));
            assert!(
                pair == ("unchanged", "unchanged") || pair == ("improved", "worse"),
                "shift {shift}: {pair:?}"
            );
        }
        let b: Vec<f64> = a.iter().map(|x| x * (1.0 - 0.5 * bound)).collect();
        assert_eq!(word(d, &a, &b), "unchanged");
        let b: Vec<f64> = a.iter().map(|x| x * (1.0 - 1.5 * bound)).collect();
        assert_eq!(word(d, &a, &b), "improved");
    }

    /// The two committed sets come from one commit: comparing them, either
    /// way round, must credit no gain and report no loss.
    #[test]
    fn committed_baselines_show_no_change() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines");
        let a = load(&format!("{dir}/BENCH_11.a.json")).unwrap();
        let b = load(&format!("{dir}/BENCH_11.b.json")).unwrap();
        for (a, b) in [(&a, &b), (&b, &a)] {
            for w in crate::workloads::NAMES {
                for d in metrics::END_TO_END {
                    let (va, vb) = (values(a, w, d.name), values(b, w, d.name));
                    assert!(va.len() >= 10, "{w} {}: {} runs", d.name, va.len());
                    let row = verdict(d, &va, &vb).unwrap();
                    assert_eq!(row.word, "unchanged", "{w} {}", d.name);
                }
            }
        }
    }
}
