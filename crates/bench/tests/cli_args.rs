//! The paper-figure binaries reject an argument they cannot run with: a
//! usage error and exit code 2 before any work, never a panic.

use std::process::Command;

#[test]
fn zero_sizes_threads_and_bad_tol_exit_2_without_a_panic() {
    let cases = [
        (env!("CARGO_BIN_EXE_table1"), ["--sizes", "0"]),
        (env!("CARGO_BIN_EXE_fig8_accuracy"), ["--sizes", "0"]),
        (env!("CARGO_BIN_EXE_fig7_threads"), ["--threads", "0"]),
        (env!("CARGO_BIN_EXE_table1"), ["--tol", "nan"]),
        (env!("CARGO_BIN_EXE_table1"), ["--tol", "-1"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).output().expect("run binary");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        let what = format!("{bin} {args:?}: stdout {stdout:?}, stderr {stderr:?}");
        assert_eq!(out.status.code(), Some(2), "{what}");
        assert!(stderr.contains("usage: <bin>"), "{what}");
        assert!(!format!("{stdout}{stderr}").contains("panicked"), "{what}");
    }
}
