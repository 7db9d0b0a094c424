//! `profile --trace FILE` leaves a chrome://tracing file that parses and
//! holds events. `#[ignore]`d because it runs the bench binary; `check.sh`
//! runs it against the release build:
//!
//! ```text
//! cargo test --release -p h2-bench --test profile_trace -- --ignored
//! ```

use std::process::{Command, Stdio};

#[test]
#[ignore = "runs the profile bench binary; run via check.sh"]
fn profile_trace_parses_and_is_not_empty() {
    let trace = std::env::temp_dir().join(format!("h2-profile-trace-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_profile"))
        .args(["--sizes", "1500", "--trace"])
        .arg(&trace)
        .stdout(Stdio::null())
        .status()
        .expect("run profile");
    assert!(status.success());
    let text = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_file(&trace).ok();
    let json: serde_json::Value = serde_json::from_str(&text).expect("trace parses");
    let events = json["traceEvents"].as_array().expect("traceEvents");
    assert!(!events.is_empty(), "empty trace");
}
