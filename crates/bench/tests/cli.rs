//! `fig4`'s command line: a malformed one prints usage and exits with
//! status 2 before any simulation, never with a panic.

use std::process::Command;

#[test]
fn malformed_command_lines_exit_2_with_usage() {
    let cases: &[&[&str]] = &[
        &["--quick", "--json"],
        &["--app"],
        &["--sizes"],
        &["--sizes", "1,x"],
        &["--sizes", ""],
        &["--trace"],
        &["--mem"],
        &["--mem", "lots"],
        &["--fuel", "-1"],
        &["--job-timeout-ms"],
        &["--chaos-seed", "x"],
        &["--chaos-seed"],
        &["--quick", "--frobnicate"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_fig4")).args(*args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: fig4"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before it failed: {:?}", out.stdout);
    }
}
