//! `h2serve` rejects an argument value it cannot build with: a usage error
//! and exit code 2, never a panic.

use std::process::Command;

#[test]
fn bad_values_are_usage_errors_not_panics() {
    let cases = [
        ("--dim", "0"),
        ("--eta", "0"),
        ("--eta", "-1"),
        ("--eta", "nan"),
        ("--tol", "0"),
        ("--tol", "-1"),
        ("--tol", "nan"),
    ];
    for (flag, value) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_h2serve"))
            .args(["build", "--n", "200", flag, value])
            .output()
            .expect("run h2serve");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        let what = format!("{flag} {value}: stdout {stdout:?}, stderr {stderr:?}");
        assert_eq!(out.status.code(), Some(2), "{what}");
        assert!(stderr.contains(&format!("error: {flag} must be")), "{what}");
        assert!(stderr.contains("usage: h2serve"), "{what}");
        assert!(!format!("{stdout}{stderr}").contains("panicked"), "{what}");
    }
}
