//! `qccd-lint` — workspace determinism & hot-path static analysis.
//!
//! Every guarantee this reproduction makes — goldens pinned
//! byte-for-byte, `incremental_memo` proving warm ≡ cold — rests on one
//! invariant: **no nondeterminism may reach an output path**. This
//! crate makes that invariant machine-checked. It is a token-level
//! analyzer (the container is offline, so no `syn`; the lexer is
//! hand-rolled in the style of `qccd_circuit`'s QASM tokenizer) with a
//! small rule engine, one tier (any diagnostic fails CI), stable
//! `file:line:col [rule-id]` diagnostics, and inline suppression
//! comments:
//!
//! ```text
//! // qccd-lint: allow(<rule>[, <rule>…]) — <reason>
//! ```
//!
//! The reason is mandatory — an allow without one is itself a
//! diagnostic (`bad-suppression`). A suppression applies to the rest
//! of its own line, or, when the comment stands alone, to the
//! next line of code.
//!
//! ```
//! let diags = qccd_lint::lint_file("crates/sim/src/hot.rs", "use std::collections::HashMap;\n");
//! assert_eq!(diags.len(), 1);
//! assert!(diags[0]
//!     .render()
//!     .starts_with("crates/sim/src/hot.rs:1:23 [hash-iteration]"));
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod lexer;
mod rules;
mod suppress;
mod taint;
mod walk;

pub use rules::{RuleInfo, AMBIENT_ALLOWLIST, RULES};
pub use walk::{crate_deps, lint_workspace, lint_workspace_graph, load_sources, workspace_files};

/// A single finding, addressed by file, 1-based line and column.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in characters).
    pub col: u32,
    /// Rule identifier (an entry of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Renders the stable single-line form:
    /// `file:line:col [rule-id] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{} [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Result of linting a whole workspace.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Workspace-relative paths of every file linted, sorted.
    pub files: Vec<String>,
    /// All diagnostics, sorted by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
}

/// What kind of target a source file belongs to; several rules only
/// apply to library code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`src/` outside `bin/`).
    Lib,
    /// Binary source (`src/bin/` or a `main.rs`).
    Bin,
    /// `examples/` target.
    Example,
    /// `benches/` target.
    Bench,
    /// Integration-test file under a `tests/` directory.
    TestDir,
}

/// Classifies a workspace-relative path (with `/` separators).
pub fn classify(path: &str) -> FileKind {
    let comps: Vec<&str> = path.split('/').collect();
    if comps.contains(&"tests") {
        FileKind::TestDir
    } else if comps.contains(&"benches") {
        FileKind::Bench
    } else if comps.contains(&"examples") {
        FileKind::Example
    } else if comps.contains(&"bin") || comps.last() == Some(&"main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// One in-memory source file handed to [`lint_sources`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// File contents.
    pub source: String,
    /// Crate identifier (underscore form) the file belongs to.
    pub crate_name: String,
}

/// The crate identifier a workspace-relative path implies when no
/// manifest is consulted: `crates/<dir>/…` maps to `<dir>` with `-`
/// normalized to `_`; anything else belongs to the root package.
pub fn crate_name_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some((dir, _)) = rest.split_once('/') {
            let ident = dir.replace('-', "_");
            return if ident == "core" {
                // The core crate's package is plain `qccd`.
                "qccd".to_owned()
            } else {
                format!("qccd_{ident}")
            };
        }
    }
    "qccd_suite".to_owned()
}

/// Lints a set of source files as one workspace: phase 1 runs the
/// token rules per file, phase 2 builds the module/call graph across
/// all of them and runs the taint rules (golden-path purity,
/// sort-stability, engine-panic). Suppressions apply to both phases.
///
/// `deps` is the crate dependency table bounding call resolution
/// (see [`graph::CallGraph::build`]); pass `&[]` to leave resolution
/// unconstrained.
pub fn lint_sources(files: &[SourceFile], deps: &[(String, Vec<String>)]) -> LintReport {
    let lexed: Vec<lexer::Lexed> = files.iter().map(|f| lexer::lex(&f.source)).collect();
    let masks: Vec<Vec<bool>> = lexed.iter().map(|l| rules::test_mask(&l.tokens)).collect();

    // Phase 1: per-file token rules.
    let mut per_file: Vec<Vec<Diagnostic>> = Vec::with_capacity(files.len());
    for (f, (l, m)) in files.iter().zip(lexed.iter().zip(masks.iter())) {
        let ctx = rules::FileCtx {
            path: &f.path,
            kind: classify(&f.path),
            tokens: &l.tokens,
            in_test: m,
        };
        per_file.push(rules::run_all(&ctx));
    }

    // Phase 2: cross-file taint rules over the resolved call graph.
    let gfiles: Vec<graph::GraphFile> = files
        .iter()
        .zip(lexed.iter().zip(masks.iter()))
        .map(|(f, (l, m))| graph::GraphFile {
            path: &f.path,
            crate_name: &f.crate_name,
            kind: classify(&f.path),
            tokens: &l.tokens,
            mask: m,
        })
        .collect();
    let call_graph = graph::CallGraph::build(&gfiles, deps);
    for d in taint::run(&call_graph) {
        if let Some(k) = files.iter().position(|f| f.path == d.file) {
            per_file[k].push(d);
        }
    }

    // Suppressions see each file's full two-phase stream.
    let mut diagnostics = Vec::new();
    for (f, (l, raw)) in files.iter().zip(lexed.iter().zip(per_file)) {
        let (mut sups, bad) = suppress::parse(&f.path, &l.comments, &l.tokens);
        let mut diags = suppress::apply(raw, &mut sups);
        diags.extend(bad);
        diags.extend(suppress::unused(&f.path, &sups));
        diagnostics.extend(diags);
    }
    diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    let mut file_names: Vec<String> = files.iter().map(|f| f.path.clone()).collect();
    file_names.sort();
    LintReport {
        files: file_names,
        diagnostics,
    }
}

/// Lints one source file under the given workspace-relative `path`.
///
/// This is [`lint_sources`] over a single-file workspace: the token
/// rules run as before, and the taint rules see whatever call graph
/// one file can carry (fixture tests exercise them by placing sink
/// and helper in the same file). The path only has to *look* right:
/// fixture tests lint in-memory sources under virtual paths like
/// `crates/sim/src/fixture.rs` to exercise path-scoped rules.
pub fn lint_file(path: &str, source: &str) -> Vec<Diagnostic> {
    let files = [SourceFile {
        path: path.to_owned(),
        source: source.to_owned(),
        crate_name: crate_name_of(path),
    }];
    lint_sources(&files, &[]).diagnostics
}
