//! Criterion benchmarks of the `qccd-lint` two-phase analyzer over
//! the live workspace: the full pass (lex, token rules, call graph,
//! taint rules, suppressions) and the phase-2 graph build alone. The
//! budget recorded in `BENCH_sim.json` is the whole-workspace pass
//! staying well under the ~2 s a pre-commit hook tolerates.

use criterion::{criterion_group, criterion_main, Criterion};
use qccd_lint::{lint_workspace, lint_workspace_graph};
use std::path::Path;

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> &'static Path {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/bench sits two levels under the workspace root");
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    root
}

/// Full two-phase lint of every workspace source file, including file
/// I/O — exactly what `cargo run -p qccd-lint` pays.
fn bench_lint_workspace(c: &mut Criterion) {
    let root = workspace_root();
    c.bench_function("lint/workspace_two_phase", |b| {
        b.iter(|| {
            let report = lint_workspace(root).expect("workspace readable");
            assert!(
                report.diagnostics.is_empty(),
                "live tree must stay lint-clean"
            );
            report
        });
    });
}

/// Phase 2 alone: lex every file and build the resolved call graph
/// (the marginal cost ISSUE 10 added on top of the token rules).
fn bench_graph_build(c: &mut Criterion) {
    let root = workspace_root();
    c.bench_function("lint/workspace_graph_build", |b| {
        b.iter(|| {
            let graph = lint_workspace_graph(root).expect("workspace readable");
            assert!(!graph.fns.is_empty());
            graph
        });
    });
}

criterion_group!(benches, bench_lint_workspace, bench_graph_build);
criterion_main!(benches);
