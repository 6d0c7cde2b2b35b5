//! `qccd-lint` binary: walk the workspace, print diagnostics, exit
//! nonzero on any hit.
//!
//! ```text
//! cargo run -p qccd-lint            # human-readable, from the repo root
//! cargo run -p qccd-lint -- --json  # machine-readable
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use qccd_lint::LintReport;

const USAGE: &str = "\
usage: qccd-lint [--root DIR] [--json] [--graph-json]

Walks the Rust workspace at DIR (default: current directory), runs the
determinism & hot-path rules — phase 1 token rules per file, phase 2
taint rules over the workspace call graph — and prints
`file:line:col [rule-id]` diagnostics. Exit status is 1 if any
diagnostic fired, 0 otherwise. Suppress a finding inline with
`// qccd-lint: allow(<rule>) — <reason>` (the reason is mandatory).

    --graph-json  dump the resolved call graph as JSON and exit";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut graph_json = false;
    // A Bin target is exempt from `ambient-nondeterminism`: argv is
    // the program's input, not simulation state.
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--graph-json" => graph_json = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("qccd-lint: --root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("qccd-lint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "qccd-lint: no Cargo.toml under {} — run from the workspace root or pass --root",
            root.display()
        );
        return ExitCode::from(2);
    }

    if graph_json {
        match qccd_lint::lint_workspace_graph(&root) {
            Ok(graph) => {
                println!("{}", graph.to_json());
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("qccd-lint: walking {} failed: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    }

    let report = match qccd_lint::lint_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("qccd-lint: walking {} failed: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", render_json(&report));
    } else {
        for d in &report.diagnostics {
            println!("{}", d.render());
        }
    }
    eprintln!(
        "qccd-lint: {} files, {} diagnostics",
        report.files.len(),
        report.diagnostics.len()
    );
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Hand-rolled JSON (the linter is dependency-free by design; see the
/// crate manifest).
fn render_json(report: &LintReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files\": {},\n", report.files.len()));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \
             \"message\": \"{}\"}}",
            escape(&d.file),
            d.line,
            d.col,
            d.rule,
            escape(&d.message)
        ));
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
