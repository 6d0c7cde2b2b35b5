//! Phase-2 taint/reachability rules over the [`CallGraph`].
//!
//! The sinks are where artifact bytes are born: `ArtifactSink::emit`
//! impls (CSV rows, golden JSON) and `canonical_float` (the one
//! formatter every float passes through before it reaches a golden).
//! Three rules walk the graph around them:
//!
//! * **golden-path-purity** — no print macros or ambient state
//!   in any library function *reachable from* a sink: anything the
//!   emit path can run may interleave bytes or smuggle wall-clock
//!   state into artifact content.
//! * **sort-stability** — no order-unstable or
//!   `partial_cmp`-keyed sorts in any library function that *feeds*
//!   a sink: ties would be platform-dependent exactly where ordering
//!   becomes output bytes.
//! * **engine-panic** — no `.unwrap()`/`.expect()` in library
//!   functions reachable from `crates/core/src/engine` entry points:
//!   a panic on an engine thread aborts the whole sweep, so a panic
//!   there is a correctness bug, not a style nit.
//!
//! Every diagnostic carries a taint trace (the BFS witness chain) so
//! the reader can see *why* the site is on the golden path, not just
//! that it is.

use crate::graph::CallGraph;
use crate::{Diagnostic, FileKind};

/// Directory whose library functions count as engine entry points for
/// the `engine-panic` rule.
const ENGINE_DIR: &str = "crates/core/src/engine/";

/// Runs all graph-backed rules, returning unsorted diagnostics (the
/// caller merges them into the per-file phase-1 stream).
pub(crate) fn run(graph: &CallGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let sinks = sink_nodes(graph);
    golden_path_purity(graph, &sinks, &mut out);
    sort_stability(graph, &sinks, &mut out);
    engine_panic(graph, &mut out);
    out
}

/// Artifact-byte sinks: non-test `ArtifactSink` impl methods and the
/// `canonical_float` formatter.
pub(crate) fn sink_nodes(graph: &CallGraph) -> Vec<usize> {
    graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            !f.is_test
                && (f.impl_trait.as_deref() == Some("ArtifactSink")
                    || (f.name == "canonical_float" && f.kind == FileKind::Lib))
        })
        .map(|(i, _)| i)
        .collect()
}

/// Renders a BFS witness chain as a ` → `-joined trace.
fn arrows(chain: &[String]) -> String {
    chain.join(" → ")
}

fn golden_path_purity(graph: &CallGraph, sinks: &[usize], out: &mut Vec<Diagnostic>) {
    let (reached, via) = CallGraph::reach(sinks, &graph.callees);
    for &i in &reached {
        let f = &graph.fns[i];
        if f.kind != FileKind::Lib || f.is_test {
            continue;
        }
        let trace = arrows(&graph.trace(&via, i));
        for eff in f.prints.iter().chain(f.ambients.iter()) {
            out.push(Diagnostic {
                file: f.file.clone(),
                line: eff.pos.line,
                col: eff.pos.col,
                rule: "golden-path-purity",
                message: format!(
                    "`{}` on the golden path: artifact sink reaches it via {trace}; \
                     emit paths must stay pure — no prints or ambient state may \
                     interleave with artifact bytes",
                    eff.what
                ),
            });
        }
    }
}

fn sort_stability(graph: &CallGraph, sinks: &[usize], out: &mut Vec<Diagnostic>) {
    // Walk the *callers* edges: everything that can feed bytes into a
    // sink, however indirectly.
    let (reached, via) = CallGraph::reach(sinks, &graph.callers);
    for &i in &reached {
        let f = &graph.fns[i];
        if f.kind != FileKind::Lib || f.is_test {
            continue;
        }
        // The witness chain runs sink ← … ← f; flip it so the trace
        // reads in dataflow direction.
        let mut chain = graph.trace(&via, i);
        chain.reverse();
        let trace = arrows(&chain);
        for eff in &f.sorts {
            out.push(Diagnostic {
                file: f.file.clone(),
                line: eff.pos.line,
                col: eff.pos.col,
                rule: "sort-stability",
                message: format!(
                    "`{}` feeds an artifact sink via {trace}; ties are \
                     platform-dependent exactly where ordering becomes output \
                     bytes — use a stable sort with a total key",
                    eff.what
                ),
            });
        }
    }
}

fn engine_panic(graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    let roots: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.is_test && f.kind == FileKind::Lib && f.file.starts_with(ENGINE_DIR))
        .map(|(i, _)| i)
        .collect();
    let (reached, via) = CallGraph::reach(&roots, &graph.callees);
    for &i in &reached {
        let f = &graph.fns[i];
        if f.kind != FileKind::Lib || f.is_test {
            continue;
        }
        let trace = arrows(&graph.trace(&via, i));
        for eff in &f.panics {
            out.push(Diagnostic {
                file: f.file.clone(),
                line: eff.pos.line,
                col: eff.pos.col,
                rule: "engine-panic",
                message: format!(
                    "`{}` is reachable from the engine via {trace}; a panic on an \
                     engine thread aborts the whole sweep — propagate the error",
                    eff.what
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphFile;
    use crate::lexer::lex;
    use crate::{classify, rules};

    fn diags_of(files: &[(&str, &str, &str)]) -> Vec<String> {
        let lexed: Vec<_> = files.iter().map(|(_, _, src)| lex(src)).collect();
        let masks: Vec<_> = lexed.iter().map(|l| rules::test_mask(&l.tokens)).collect();
        let gfiles: Vec<GraphFile> = files
            .iter()
            .zip(lexed.iter())
            .zip(masks.iter())
            .map(|(((path, crate_name, _), l), m)| GraphFile {
                path,
                crate_name,
                kind: classify(path),
                tokens: &l.tokens,
                mask: m,
            })
            .collect();
        let mut out = run(&CallGraph::build(&gfiles, &[]));
        out.sort_by(|a, b| {
            (a.file.clone(), a.line, a.col, a.rule).cmp(&(b.file.clone(), b.line, b.col, b.rule))
        });
        out.iter().map(Diagnostic::render).collect()
    }

    #[test]
    fn purity_flags_prints_reachable_from_a_sink() {
        let diags = diags_of(&[(
            "crates/core/src/engine/sink.rs",
            "qccd",
            "impl ArtifactSink for CsvSink {\n    fn emit(&mut self) { fmt_row(); }\n}\nfn fmt_row() {\n    println!(\"row\");\n}\nfn unrelated() {\n    println!(\"free\");\n}",
        )]);
        assert_eq!(
            diags,
            vec![
                "crates/core/src/engine/sink.rs:5:5 [golden-path-purity] `println!` on \
                 the golden path: artifact sink reaches it via \
                 qccd::engine::sink::CsvSink::emit → qccd::engine::sink::fmt_row; emit \
                 paths must stay pure — no prints or ambient state may interleave with \
                 artifact bytes"
                    .to_owned(),
            ]
        );
    }

    #[test]
    fn sort_stability_walks_callers_into_the_sink() {
        let diags = diags_of(&[
            (
                "crates/sim/src/report.rs",
                "qccd_sim",
                "pub fn canonical_float(x: f64) -> f64 { x }",
            ),
            (
                "crates/sim/src/table.rs",
                "qccd_sim",
                "fn rows(v: &mut Vec<f64>) {\n    v.sort_unstable_by(|a, b| a.total_cmp(b));\n    for x in v { qccd_sim::canonical_float(*x); }\n}",
            ),
        ]);
        assert_eq!(
            diags,
            vec![
                "crates/sim/src/table.rs:2:7 [sort-stability] `.sort_unstable_by()` \
                 feeds an artifact sink via qccd_sim::table::rows → \
                 qccd_sim::report::canonical_float; ties are platform-dependent exactly \
                 where ordering becomes output bytes — use a stable sort with a total \
                 key"
                .to_owned(),
            ]
        );
    }

    #[test]
    fn engine_panic_escalates_only_reachable_sites() {
        let diags = diags_of(&[
            (
                "crates/core/src/engine/mod.rs",
                "qccd",
                "pub fn run() { qccd_compiler::compile(); }",
            ),
            (
                "crates/compiler/src/lib.rs",
                "qccd_compiler",
                "pub fn compile() { stage().expect(\"stage ran\"); }\nfn stage() -> Result<(), ()> { Ok(()) }\npub fn offline() { probe().unwrap(); }\nfn probe() -> Option<()> { None }",
            ),
        ]);
        assert_eq!(
            diags,
            vec![
                "crates/compiler/src/lib.rs:1:28 [engine-panic] `.expect()` is \
                 reachable from the engine via qccd::engine::run → \
                 qccd_compiler::compile; a panic on an engine thread aborts the whole \
                 sweep — propagate the error"
                    .to_owned(),
            ]
        );
    }

    #[test]
    fn test_functions_are_invisible_to_all_three_rules() {
        let diags = diags_of(&[(
            "crates/core/src/engine/sink.rs",
            "qccd",
            "impl ArtifactSink for JsonSink {\n    fn emit(&mut self) {}\n}\n#[cfg(test)]\nmod tests {\n    fn t(v: &mut Vec<f64>) {\n        println!(\"x\");\n        v.sort_unstable_by(|a, b| a.total_cmp(b));\n        y.unwrap();\n    }\n}",
        )]);
        assert_eq!(diags, Vec::<String>::new());
    }
}
