//! `paper` rejects an argument it cannot run with: a usage error and exit
//! code 2 before any work, never a panic. A flag an experiment cannot
//! honour (`--threads` off `fig7`, `--trace` or `--builder` off `profile`)
//! is one.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("run paper");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let what = format!("paper {args:?}: stdout {stdout:?}, stderr {stderr:?}");
    assert_eq!(out.status.code(), Some(2), "{what}");
    assert!(stderr.contains("usage: <bin>"), "{what}");
    assert!(!format!("{stdout}{stderr}").contains("panicked"), "{what}");
    assert!(stdout.is_empty(), "no work before the usage error: {what}");
}

#[test]
fn zero_sizes_threads_and_bad_tol_exit_2_without_a_panic() {
    for args in [
        ["table1", "--sizes", "0"],
        ["fig8", "--sizes", "0"],
        ["fig7", "--threads", "0"],
        ["table1", "--tol", "nan"],
        ["table1", "--tol", "-1"],
    ] {
        assert_usage_error(&args);
    }
}

#[test]
fn unknown_experiment_unwritable_json_and_unrunnable_flags_exit_2_before_work() {
    assert_usage_error(&["fig10"]);
    assert_usage_error(&["table1", "--json", "/nonexistent/dir/t.json"]);
    assert_usage_error(&["fig7", "--check", "--threads", "1,4"]);
    assert_usage_error(&["table1", "--sizes", "1000,2000"]);
}

#[test]
fn a_flag_the_experiment_cannot_honour_exits_2_before_work() {
    let trace = std::env::temp_dir().join(format!("paper_cli_trace_{}.json", std::process::id()));
    let trace = trace.to_str().unwrap();
    assert_usage_error(&["dist", "--trace", trace]);
    assert_usage_error(&["dist", "--builder", "sketched"]);
    assert_usage_error(&["profile", "--threads", "2"]);
    assert_usage_error(&["dist", "--threads", "1,2"]);
    assert_usage_error(&["profile", "--check"]);
    assert_usage_error(&["profile", "--builder", "x"]);
    assert_usage_error(&["profile", "--trace", "/nonexistent/dir/t.json"]);
    assert!(
        !std::path::Path::new(trace).exists(),
        "no --trace file left behind"
    );
}

#[test]
fn a_usage_error_keeps_an_existing_json_file_and_creates_no_new_one() {
    let dir = std::env::temp_dir();
    let kept = dir.join(format!("paper_cli_kept_{}.json", std::process::id()));
    let fresh = dir.join(format!("paper_cli_fresh_{}.json", std::process::id()));
    std::fs::write(&kept, "[1]").unwrap();
    for path in [&kept, &fresh] {
        let path = path.to_str().unwrap();
        assert_usage_error(&["table1", "--sizes", "1000,2000", "--json", path]);
        assert_usage_error(&["all", "--check", "--json", path]);
    }
    let body = std::fs::read_to_string(&kept).unwrap();
    std::fs::remove_file(&kept).unwrap();
    assert_eq!(body, "[1]", "a usage error must not truncate --json");
    assert!(!fresh.exists(), "a usage error must not create --json");
}
