//! Command-line error handling of the harness binaries: malformed input
//! must produce a usage error and exit status 2, never a panic (101).

use std::process::{Command, Output};

fn inspect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_inspect"))
        .args(args)
        .output()
        .expect("the inspect binary runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(stderr.contains("usage: inspect"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no table on a usage error");
}

#[test]
fn inspect_rejects_a_non_integer_capacity() {
    assert_usage_error(&inspect(&["14", "abc"]), "capacity `abc` is not an integer");
}

#[test]
fn inspect_rejects_a_zero_capacity() {
    assert_usage_error(&inspect(&["0"]), "capacities must be positive");
}
