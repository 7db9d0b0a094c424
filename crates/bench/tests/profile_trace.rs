//! `paper profile --trace FILE` leaves a chrome://tracing file that parses
//! and holds events, and its `--json` summary shows the fused two-direction
//! apply paying: at `k = 1` on `f64`, `matmat_bi_acc` takes at most 0.9× the
//! two one-column applies. `#[ignore]`d because it runs the bench binary;
//! `check.sh` runs it against the release build:
//!
//! ```text
//! cargo test --release -p h2-bench --test profile_trace -- --ignored
//! ```

use std::process::{Command, Stdio};

#[test]
#[ignore = "runs paper profile; run via check.sh"]
fn profile_trace_parses_and_is_not_empty() {
    let tmp = |what: &str| {
        std::env::temp_dir().join(format!("h2-profile-{what}-{}.json", std::process::id()))
    };
    let (trace, summary) = (tmp("trace"), tmp("summary"));
    let status = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["profile", "--sizes", "1500", "--trace"])
        .arg(&trace)
        .arg("--json")
        .arg(&summary)
        .stdout(Stdio::null())
        .status()
        .expect("run paper profile");
    assert!(status.success());
    let read = |path| {
        let text = std::fs::read_to_string(path).expect("profile output written");
        std::fs::remove_file(path).ok();
        serde_json::from_str(&text).expect("profile output parses")
    };
    let json = read(&trace);
    let events = json["traceEvents"].as_array().expect("traceEvents");
    assert!(!events.is_empty(), "empty trace");

    let rows = read(&summary)["panel_apply"].clone();
    let rows = rows.as_array().expect("panel_apply");
    let row = rows
        .iter()
        .find(|r| r["scalars"].as_str() == Some("f64/f64") && r["k"].as_u64() == Some(1))
        .expect("an f64/f64 k=1 panel_apply row");
    let ns = |key: &str| row[key].as_f64().expect("a number");
    let (bi, two) = (ns("bi_ns"), ns("matvec_ns") + ns("matvec_t_ns"));
    assert!(bi <= 0.9 * two, "f64/f64 k=1: bi_ns {bi} > 0.9 × {two}");
}
