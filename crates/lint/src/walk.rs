//! Workspace discovery: which files get linted, and which crates each
//! package may call into.
//!
//! Everything here is deterministic by construction — `read_dir`
//! order is OS-dependent, so file lists are sorted before use. A lint
//! pass that polices determinism has no business emitting
//! diagnostics in directory-entry order.

use std::fs;
use std::io;
use std::path::Path;

use crate::{graph, lint_sources, rules, LintReport, SourceFile};

/// Directories never descended into: build outputs, vendored
/// stand-ins (not ours to lint), VCS/CI metadata, and lint fixtures
/// (which contain deliberate violations).
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures"];

/// Collects every lintable `.rs` file under `root`, as sorted
/// workspace-relative paths with `/` separators.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    collect(root, String::new(), &mut files)?;
    files.sort();
    Ok(files)
}

fn collect(dir: &Path, rel: String, files: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        let child_rel = if rel.is_empty() {
            name.to_owned()
        } else {
            format!("{rel}/{name}")
        };
        let path = entry.path();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name) {
                continue;
            }
            collect(&path, child_rel, files)?;
        } else if name.ends_with(".rs") {
            files.push(child_rel);
        }
    }
    Ok(())
}

/// Crate-level dependency table: package ident → direct dependency
/// idents (`[dependencies]`, `[dev-dependencies]` and
/// `[build-dependencies]` keys, `-` normalized to `_`), for the root
/// package and everything under `crates/`. The call graph uses it to
/// refuse edges into crates the caller cannot even name.
pub fn crate_deps(root: &Path) -> io::Result<Vec<(String, Vec<String>)>> {
    let mut out = Vec::new();
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<_> = fs::read_dir(&crates_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        dirs.sort();
        manifests.extend(dirs.into_iter().map(|d| d.join("Cargo.toml")));
    }
    for manifest in manifests {
        let Some(name) = package_name(&manifest)? else {
            continue;
        };
        // package_name checked the file exists.
        let text = fs::read_to_string(&manifest)?;
        let mut deps = Vec::new();
        let mut in_deps = false;
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_deps = matches!(
                    line,
                    "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]"
                );
                continue;
            }
            if in_deps {
                if let Some(key) = line.split(['=', '.']).next() {
                    let key = key.trim().trim_matches('"');
                    if !key.is_empty() && !key.starts_with('#') {
                        deps.push(key.replace('-', "_"));
                    }
                }
            }
        }
        deps.sort();
        deps.dedup();
        out.push((name, deps));
    }
    out.sort();
    Ok(out)
}

/// Reads the `[package] name` out of a manifest, `-` normalized to
/// `_` (the identifier form imports use). Missing files yield `None`.
fn package_name(manifest: &Path) -> io::Result<Option<String>> {
    let text = match fs::read_to_string(manifest) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    let value = rest.trim().trim_matches('"');
                    return Ok(Some(value.replace('-', "_")));
                }
            }
        }
    }
    Ok(None)
}

/// Reads every lintable source file under `root` into memory, with
/// its crate identifier resolved from the owning manifest (so the
/// call graph qualifies names the way imports actually spell them).
pub fn load_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let root_name = package_name(&root.join("Cargo.toml"))?.unwrap_or_else(|| "crate".to_owned());
    // dir under crates/ → package ident, resolved lazily per directory.
    let mut dir_names: Vec<(String, String)> = Vec::new();
    let files = workspace_files(root)?;
    let mut out = Vec::with_capacity(files.len());
    for rel in files {
        let crate_name = match rel
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once('/'))
        {
            Some((dir, _)) => match dir_names.iter().find(|(d, _)| d == dir) {
                Some((_, name)) => name.clone(),
                None => {
                    let manifest = root.join("crates").join(dir).join("Cargo.toml");
                    let name = package_name(&manifest)?.unwrap_or_else(|| dir.replace('-', "_"));
                    dir_names.push((dir.to_owned(), name.clone()));
                    name
                }
            },
            None => root_name.clone(),
        };
        let source = fs::read_to_string(root.join(&rel))?;
        out.push(SourceFile {
            path: rel,
            source,
            crate_name,
        });
    }
    Ok(out)
}

/// Lints every source file in the workspace at `root` — both phases.
///
/// Diagnostics come back sorted by (file, line, col, rule); the file
/// list is sorted too, so two runs over the same tree are
/// byte-identical.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let sources = load_sources(root)?;
    let deps = crate_deps(root)?;
    Ok(lint_sources(&sources, &deps))
}

/// Builds (only) the resolved workspace call graph at `root` — the
/// `--graph-json` debugging surface.
pub fn lint_workspace_graph(root: &Path) -> io::Result<graph::CallGraph> {
    let sources = load_sources(root)?;
    let lexed: Vec<_> = sources
        .iter()
        .map(|f| crate::lexer::lex(&f.source))
        .collect();
    let masks: Vec<_> = lexed.iter().map(|l| rules::test_mask(&l.tokens)).collect();
    let gfiles: Vec<graph::GraphFile> = sources
        .iter()
        .zip(lexed.iter().zip(masks.iter()))
        .map(|(f, (l, m))| graph::GraphFile {
            path: &f.path,
            crate_name: &f.crate_name,
            kind: crate::classify(&f.path),
            tokens: &l.tokens,
            mask: m,
        })
        .collect();
    Ok(graph::CallGraph::build(&gfiles, &crate_deps(root)?))
}
