//! Meta-test: the live workspace is lint-clean.
//!
//! No diagnostic may fire on the tree as committed. Because every rule
//! is fatal, this single assertion also proves every inline `allow`
//! carries its mandatory reason (`bad-suppression`) and that no allow
//! has gone stale (`unused-suppression`).

use std::path::Path;

use qccd_lint::lint_workspace;

fn repo_root() -> &'static Path {
    // crates/lint/ -> workspace root.
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn live_workspace_is_deny_clean_with_reasoned_allows() {
    let report = lint_workspace(repo_root()).expect("workspace walk");
    assert!(
        report.files.len() > 80,
        "walker found implausibly few files ({}) — skip list too broad?",
        report.files.len()
    );
    let diags: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        report.diagnostics.is_empty(),
        "diagnostics in the live workspace:\n{}",
        diags.join("\n")
    );
}

#[test]
fn walker_skips_fixtures_and_vendor() {
    let report = lint_workspace(repo_root()).expect("workspace walk");
    assert!(
        report.files.iter().any(|f| f == "crates/lint/src/lib.rs"),
        "the linter lints itself"
    );
    assert!(
        !report.files.iter().any(|f| f.contains("/fixtures/")),
        "fixture violations must not leak into the live pass"
    );
    assert!(
        !report.files.iter().any(|f| f.starts_with("vendor/")),
        "vendored stand-ins are not ours to lint"
    );
    assert!(
        !report.files.iter().any(|f| f.starts_with("target/")),
        "build outputs are not linted"
    );
}
