//! Command-line error handling of the harness binaries: malformed input
//! must produce a usage error and exit status 2, never a panic (101).

use std::ffi::OsStr;
use std::process::{Command, Output};

fn inspect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_inspect"))
        .args(args)
        .output()
        .expect("the inspect binary runs")
}

fn run<S: AsRef<OsStr>>(args: &[S]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run"))
        .args(args)
        .output()
        .expect("the run binary runs")
}

fn assert_usage_error(out: &Output, bin: &str, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {bin}")),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no table on a usage error");
}

#[test]
fn inspect_rejects_a_non_integer_capacity() {
    assert_usage_error(
        &inspect(&["14", "abc"]),
        "inspect",
        "capacity `abc` is not an integer",
    );
}

#[test]
fn inspect_rejects_a_zero_capacity() {
    assert_usage_error(&inspect(&["0"]), "inspect", "capacities must be positive");
}

#[test]
fn run_requires_a_spec() {
    assert_usage_error(&run::<&str>(&[]), "run", "requires --spec");
}

/// Oversized device descriptions are rejected against the device
/// limits (`qccd_device::MAX_DEVICE_NODES`, `MAX_TRAP_CAPACITY`,
/// `MAX_SEGMENT_LENGTH`) before anything is allocated or summed for
/// them: exit status 2 with an error naming the limit, never an abort
/// (134) from a multi-gigabyte allocation or a panic (101) from a `u32`
/// overflow.
#[test]
fn run_rejects_oversized_devices_with_the_limit() {
    let dir = std::env::temp_dir().join(format!("qccd-cli-oversized-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = |device: &str| {
        format!(
            r#"{{"name": "big", "projection": "cells", "circuits": ["bv"],
                "devices": [{device}], "configs": [{{}}], "models": ["default"]}}"#
        )
    };
    // A device description goes in its own file, named by a
    // `{"file": …}` device entry.
    let file_device = |k: usize, text: &str| {
        let path = dir.join(format!("device{k}.json"));
        std::fs::write(&path, text).unwrap();
        spec(&format!(r#"{{"file": {:?}}}"#, path.display().to_string()))
    };
    let nodes = "device size limit of 4096 (MAX_DEVICE_NODES)";
    let cases = [
        (
            spec(r#"{"linear": {"traps": 4294967295, "capacity": 20}}"#),
            nodes,
        ),
        (
            spec(r#"{"grid": {"rows": 65536, "cols": 65536, "capacity": 20}}"#),
            nodes,
        ),
        (
            file_device(
                2,
                r#"{"name": "big", "traps": 4294967295, "capacity": 20, "edges": [["t0", "t1"]]}"#,
            ),
            nodes,
        ),
        (
            file_device(
                3,
                r#"{"name": "big", "traps": 2, "capacity": 20,
                    "edges": [["t0", "j4294967294"], ["t1", "j0"]]}"#,
            ),
            nodes,
        ),
        // These three overflowed a `u32` sum: the total capacity, a
        // leg's length, and the total capacity of a swept preset.
        (
            file_device(
                4,
                r#"{"name": "big", "traps": 2, "capacity": 4294967295, "edges": [["t0", "t1"]]}"#,
            ),
            "limit of 1048575 (MAX_TRAP_CAPACITY)",
        ),
        (
            file_device(
                5,
                r#"{"name": "big", "traps": 2, "capacity": 20,
                    "edges": [["t0", "j0", 4294967295], ["t1", "j0", 4294967295]]}"#,
            ),
            "limit of 524287 (MAX_SEGMENT_LENGTH)",
        ),
        (
            spec(r#"{"preset": "l6"}"#)
                .replace("\"devices\"", "\"capacities\": [4294967295], \"devices\""),
            "limit of 1048575 (MAX_TRAP_CAPACITY)",
        ),
    ];
    for (k, (text, needle)) in cases.iter().enumerate() {
        let path = dir.join(format!("case{k}.json"));
        std::fs::write(&path, text).unwrap();
        let out = run(&[OsStr::new("--spec"), path.as_os_str()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "case {k}: {stderr}");
        assert!(stderr.contains(needle), "case {k}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
