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

/// Oversized device descriptions are rejected against
/// `qccd_device::MAX_DEVICE_NODES` before anything is allocated for
/// them: exit status 2 with an error naming the limit, never an abort
/// (134) from a multi-gigabyte allocation.
#[test]
fn run_rejects_oversized_devices_with_the_limit() {
    let spec = |device: &str| {
        format!(
            r#"{{"name": "big", "projection": "cells", "circuits": ["bv"],
                "devices": [{device}], "configs": [{{}}], "models": ["default"]}}"#
        )
    };
    let cases = [
        (
            "--spec",
            spec(r#"{"linear": {"traps": 4294967295, "capacity": 20}}"#),
        ),
        (
            "--spec",
            spec(r#"{"grid": {"rows": 65536, "cols": 65536, "capacity": 20}}"#),
        ),
        (
            "--device",
            r#"{"name": "big", "traps": 4294967295, "capacity": 20, "edges": [["t0", "t1"]]}"#
                .to_owned(),
        ),
        (
            "--device",
            r#"{"name": "big", "traps": 2, "capacity": 20,
                "edges": [["t0", "j4294967294"], ["t1", "j0"]]}"#
                .to_owned(),
        ),
    ];
    let dir = std::env::temp_dir().join(format!("qccd-cli-oversized-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (k, (flag, text)) in cases.iter().enumerate() {
        let path = dir.join(format!("case{k}.json"));
        std::fs::write(&path, text).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_run"))
            .arg(flag)
            .arg(&path)
            .output()
            .expect("the run binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "case {k}: {stderr}");
        assert!(
            stderr.contains("device size limit of 4096"),
            "case {k}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
