//! `h2serve`'s command-line contract: the subcommands run end to end on a
//! tiny operator; an argument value it cannot build with, or a missing
//! `--file`, is a usage error with exit code 2; an operator file it cannot
//! read or decode is a runtime error with exit code 1, reported on stderr as
//! `h2serve <cmd>: <error>`. Never a panic.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Exit code, stdout and stderr of one `h2serve` run.
fn h2serve(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_h2serve"))
        .args(args)
        .output()
        .expect("run h2serve");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A scratch directory unique to this process and test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("h2-cli-args-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Saves an n = 300 operator to `dir/op.h2` and returns its path.
fn save_tiny(dir: &Path) -> String {
    let file = dir.join("op.h2").to_string_lossy().into_owned();
    let (code, stdout, stderr) = h2serve(&["save", "--n", "300", "--out", &file]);
    assert_eq!(code, Some(0), "save: stdout {stdout:?}, stderr {stderr:?}");
    assert!(stdout.contains(&format!("saved {file}: ")), "{stdout}");
    file
}

#[test]
fn bad_values_are_usage_errors_not_panics() {
    let cases = [
        ("--dim", "0", "--dim must be"),
        ("--eta", "0", "--eta must be"),
        ("--eta", "-1", "--eta must be"),
        ("--eta", "nan", "--eta must be"),
        ("--tol", "0", "--tol must be"),
        ("--tol", "-1", "--tol must be"),
        ("--tol", "nan", "--tol must be"),
        ("--method", "proxy", "unknown method 'proxy'"),
        ("--builder", "x", "unknown builder 'x'"),
        ("--kernel", "x", "unknown kernel 'x'"),
        ("--mode", "x", "bad --mode"),
        ("--precision", "f16", "bad --precision"),
        ("--cache-budget", "x", "bad --cache-budget"),
    ];
    for (flag, value, error) in cases {
        let (code, stdout, stderr) = h2serve(&["build", "--n", "200", flag, value]);
        let what = format!("{flag} {value}: stdout {stdout:?}, stderr {stderr:?}");
        assert_eq!(code, Some(2), "{what}");
        assert!(stderr.contains(&format!("error: {error}")), "{what}");
        assert!(stderr.contains("usage: h2serve"), "{what}");
        assert!(!format!("{stdout}{stderr}").contains("panicked"), "{what}");
    }
}

#[test]
fn build_save_load_and_metrics_run_on_a_tiny_operator() {
    let (code, stdout, stderr) = h2serve(&["build", "--n", "300"]);
    assert_eq!(code, Some(0), "build: {stderr}");
    assert!(stdout.contains("operator: n=300 dim=3 mode=on-the-fly kernel=coulomb scalar=f64"));
    assert!(stdout.contains("matvec: "), "{stdout}");

    let dir = scratch("run");
    let file = save_tiny(&dir);
    let (code, stdout, stderr) = h2serve(&["load", "--file", &file]);
    assert_eq!(code, Some(0), "load: {stderr}");
    assert!(stdout.contains(&format!("loaded {file} in ")), "{stdout}");
    assert!(stdout.contains("operator: n=300 "), "{stdout}");
    assert!(stdout.contains("matvec: "), "{stdout}");

    let (code, stdout, stderr) = h2serve(&["metrics", "--file", &file, "--requests", "4"]);
    assert_eq!(code, Some(0), "metrics: {stderr}");
    assert!(stdout.contains("# TYPE h2_serve_requests_total counter\n"));
    assert!(stdout.contains("h2_serve_requests_total 4\n"), "{stdout}");
    assert!(stdout.contains("operator=\"op\""), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every subcommand that reads an operator file, as arguments before
/// `--file` (`serve --tenants` gets a valid policy file).
fn file_commands(dir: &Path) -> Vec<(&'static str, Vec<String>)> {
    let tenants = dir.join("tenants.toml").to_string_lossy().into_owned();
    std::fs::write(&tenants, "[alpha]\n\n[beta]\nweight = 2.0\n").expect("tenant file");
    let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    vec![
        ("load", args(&["load"])),
        ("metrics", args(&["metrics", "--requests", "2"])),
        ("update", args(&["update", "--updates", "1"])),
        ("serve", args(&["serve", "--shards", "1"])),
        ("serve", args(&["serve", "--tenants", &tenants])),
        (
            "shard-worker",
            args(&["shard-worker", "--shards", "1", "--connect", "127.0.0.1:1"]),
        ),
    ]
}

#[test]
fn a_missing_file_flag_is_a_usage_error() {
    let dir = scratch("missing-flag");
    for (cmd, args) in file_commands(&dir) {
        if cmd == "metrics" {
            continue; // without --file, metrics builds from the build flags
        }
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let (code, stdout, stderr) = h2serve(&args);
        let what = format!("{args:?}: stdout {stdout:?}, stderr {stderr:?}");
        assert_eq!(code, Some(2), "{what}");
        assert!(stderr.contains("usage: h2serve"), "{what}");
        assert!(!format!("{stdout}{stderr}").contains("panicked"), "{what}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_missing_or_truncated_file_is_a_runtime_error_not_a_panic() {
    let dir = scratch("bad-file");
    let file = save_tiny(&dir);
    let bytes = std::fs::read(&file).expect("saved file");
    let truncated = dir.join("truncated.h2").to_string_lossy().into_owned();
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).expect("truncated copy");
    let missing = dir.join("missing.h2").to_string_lossy().into_owned();
    for (cmd, args) in file_commands(&dir) {
        for bad in [&missing, &truncated] {
            let mut args: Vec<&str> = args.iter().map(String::as_str).collect();
            args.extend(["--file", bad]);
            let (code, stdout, stderr) = h2serve(&args);
            let what = format!("{args:?}: stdout {stdout:?}, stderr {stderr:?}");
            assert_eq!(code, Some(1), "{what}");
            assert!(stderr.starts_with(&format!("h2serve {cmd}: ")), "{what}");
            assert!(!format!("{stdout}{stderr}").contains("panicked"), "{what}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
