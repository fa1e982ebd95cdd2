//! `fig4`'s command line: a malformed one prints usage and exits with
//! status 2 before any simulation, never with a panic; the degraded
//! configurations it exposes (a device arena of nothing, an injected hang)
//! still finish with the CUDA baseline's checksum.

use std::process::{Command, Output};

fn fig4(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig4")).args(args).output().unwrap()
}

/// The `# checksum <app> n=<n> <variant> <hex>` lines' hex values, in
/// order.
fn checksums(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("# checksum "))
        .filter_map(|l| l.split_whitespace().last())
        .collect()
}

/// Run `args`, require exit 0, and require one CUDA and one OMPi checksum,
/// equal to each other.
fn assert_equal_checksums(args: &[&str]) {
    let out = fig4(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}:\n{stdout}\n{stderr}");
    let sums = checksums(&stdout);
    assert_eq!(sums.len(), 2, "{args:?}: one CUDA and one OMPi checksum:\n{stdout}");
    assert_eq!(sums[0], sums[1], "{args:?}: CUDA and OMPi outputs differ:\n{stdout}");
}

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
        &["--faults", "chaos:x"],
        &["--faults", "launch@"],
        &["--faults", "dev1:launch@1x*"],
        &["--faults"],
        &["--flight-dump"],
        &["--quick", "--frobnicate"],
    ];
    for args in cases {
        let out = fig4(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: fig4"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before it failed: {:?}", out.stdout);
    }
}

/// A malformed plan is refused up front, and the message names the rule.
#[test]
fn malformed_fault_plan_names_the_rule() {
    let out = fig4(&["--app", "bicg", "--sizes", "64", "--faults", "launch@"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--faults") && stderr.contains("`launch@`"), "{stderr}");
}

/// A device arena too small for anything (0 bytes, rounded up to 16)
/// degrades to the host instead of faulting: the OMPi variant's regions
/// run their fallback bodies and compute the baseline's answer.
#[test]
fn zero_device_memory_degrades_to_the_host() {
    assert_equal_checksums(&["--app", "bicg", "--sizes", "64", "--mem", "0"]);
}

/// `--faults` reaches the OMPi variant only: its first launch hangs, the
/// watchdog fires, and the device is reset and the region replayed. The
/// CUDA baseline has no recovery runtime and stays unfaulted (a plan that
/// reached it would end its run with a failed `cudaFree`).
#[test]
fn injected_hang_recovers_on_the_ompi_variant_only() {
    let trace = std::env::temp_dir().join(format!("fig4-cli-hang-{}.json", std::process::id()));
    let trace_arg = trace.to_str().unwrap();
    let args = ["--app", "bicg", "--sizes", "64", "--faults", "hang@launch", "--trace", trace_arg];
    assert_equal_checksums(&args);
    let text = std::fs::read_to_string(&trace).unwrap();
    let _ = std::fs::remove_file(&trace);
    assert!(text.contains("\"recovery.reset\""), "no recovery.reset in the trace");
}
