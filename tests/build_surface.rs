//! Smoke coverage for the workspace's build surface: the examples and
//! harness binaries must keep compiling, so doc snippets and README
//! instructions can't silently rot.
//!
//! The actual compilation happens via a nested `cargo build`; under
//! `cargo test` this is incremental (the outer invocation already
//! built most targets) and runs offline against the path-only
//! dependency graph.

use std::process::Command;

/// The examples the README's quickstart and study sections reference.
const EXAMPLES: [&str; 7] = [
    "custom_device",
    "experiment_engine",
    "microarch_study",
    "qasm_roundtrip",
    "quickstart",
    "topology_comparison",
    "trap_sizing",
];

/// The binaries in `qccd-bench`: `run` produces every paper artifact.
const BENCH_BINS: [&str; 2] = ["inspect", "run"];

fn cargo() -> Command {
    // Use the same cargo that is running this test.
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd
}

#[test]
fn all_examples_and_bench_binaries_compile() {
    let mut cmd = cargo();
    cmd.args([
        "build",
        "--workspace",
        "--examples",
        "--bins",
        "--offline",
        "--quiet",
    ]);
    let status = cmd.status().expect("cargo is runnable");
    assert!(
        status.success(),
        "`cargo build --workspace --examples --bins` failed; \
         an example or harness binary no longer compiles"
    );
}

#[test]
fn lint_binary_passes_on_the_workspace() {
    // The same invocation CI's "Static analysis" step runs: the
    // committed tree must stay lint-clean through the real binary (the
    // crate's own tests cover the library entry points).
    let out = cargo()
        .args(["run", "-p", "qccd-lint", "--offline", "--quiet"])
        .output()
        .expect("cargo run -p qccd-lint runs");
    assert!(
        out.status.success(),
        "qccd-lint found diagnostics:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn target_inventory_is_complete() {
    // `cargo metadata` enumerates every auto-discovered target without
    // compiling; this catches renamed/removed files that would silently
    // shrink the build surface the docs promise.
    let out = cargo()
        .args([
            "metadata",
            "--no-deps",
            "--format-version",
            "1",
            "--offline",
        ])
        .output()
        .expect("cargo metadata runs");
    assert!(out.status.success(), "cargo metadata failed");
    let metadata = String::from_utf8(out.stdout).expect("metadata is UTF-8");

    for example in EXAMPLES {
        let needle = format!("examples/{example}.rs");
        assert!(
            metadata.contains(&needle),
            "example target `{example}` missing from cargo metadata"
        );
    }
    for bin in BENCH_BINS {
        let needle = format!("bin/{bin}.rs");
        assert!(
            metadata.contains(&needle),
            "qccd-bench binary `{bin}` missing from cargo metadata"
        );
    }
    // The static-analysis pass CI runs (`cargo run -p qccd-lint`).
    assert!(
        metadata.contains("lint/src/main.rs"),
        "qccd-lint binary missing from cargo metadata"
    );
    for bench in ["toolflow", "compiler", "engine", "flat_structures", "lint"] {
        let needle = format!("benches/{bench}.rs");
        assert!(
            metadata.contains(&needle),
            "criterion bench `{bench}` missing from cargo metadata"
        );
    }
}
