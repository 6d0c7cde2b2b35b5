//! Randomized pins for the phase-2 graph builder (vendored proptest):
//! any token stream — keyword soup, unbalanced braces, truncated
//! items — must build without panicking, and the resulting graph (and
//! full two-phase report) must be byte-identical however the input
//! files are ordered. Each case draws a seed for a deterministic
//! xorshift walk, so failures replay.

use proptest::prelude::*;
use qccd_lint::graph::{CallGraph, GraphFile};
use qccd_lint::lexer::lex;
use qccd_lint::{classify, lint_sources, SourceFile};

/// Deterministic xorshift64 — cheap token-stream driver.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn pick(state: &mut u64, n: usize) -> usize {
    (xorshift(state) % n as u64) as usize
}

/// Words the generator draws from: every keyword the scanner treats
/// specially, the effect/sink identifiers the taint rules look for,
/// and some plain names.
const WORDS: &[&str] = &[
    "fn",
    "mod",
    "impl",
    "trait",
    "use",
    "for",
    "where",
    "struct",
    "enum",
    "pub",
    "let",
    "match",
    "if",
    "else",
    "self",
    "Self",
    "crate",
    "super",
    "as",
    "dyn",
    "move",
    "unwrap",
    "expect",
    "sort_unstable_by",
    "sort_by",
    "partial_cmp",
    "println",
    "eprintln",
    "dbg",
    "tests",
    "foo",
    "bar",
    "baz",
    "qux",
    "Sink",
    "ArtifactSink",
    "canonical_float",
    "Instant",
    "now",
    "SystemTime",
    "thread_rng",
];

/// Punctuation the generator interleaves — deliberately including the
/// delimiters the scanner tracks, unbalanced as often as not.
const PUNCT: &[&str] = &[
    "{", "}", "(", ")", "<", ">", "::", ";", ",", ".", "!", "&", "->", "#", "[", "]", "=", "'",
];

/// A random pseudo-Rust source of up to ~200 tokens.
fn random_source(seed: &mut u64) -> String {
    let len = 20 + pick(seed, 180);
    let mut out = String::new();
    for _ in 0..len {
        match pick(seed, 10) {
            0..=5 => {
                out.push_str(WORDS[pick(seed, WORDS.len())]);
                out.push(' ');
            }
            6..=8 => {
                out.push_str(PUNCT[pick(seed, PUNCT.len())]);
                out.push(' ');
            }
            _ => out.push('\n'),
        }
    }
    out
}

const PATHS: &[(&str, &str)] = &[
    ("crates/a/src/x.rs", "qccd_a"),
    ("crates/a/src/util/mod.rs", "qccd_a"),
    ("crates/core/src/engine/z.rs", "qccd"),
    ("crates/sim/src/report.rs", "qccd_sim"),
];

fn build_in_order(sources: &[String], order: &[usize]) -> String {
    let lexed: Vec<_> = order.iter().map(|&i| lex(&sources[i])).collect();
    let masks: Vec<Vec<bool>> = lexed.iter().map(|l| vec![false; l.tokens.len()]).collect();
    let gfiles: Vec<GraphFile> = order
        .iter()
        .zip(lexed.iter().zip(masks.iter()))
        .map(|(&i, (l, m))| GraphFile {
            path: PATHS[i].0,
            crate_name: PATHS[i].1,
            kind: classify(PATHS[i].0),
            tokens: &l.tokens,
            mask: m,
        })
        .collect();
    CallGraph::build(&gfiles, &[]).to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The graph builder is total: random token soup never panics, and
    /// whatever it recovers renders to JSON.
    #[test]
    fn graph_build_never_panics_on_random_token_soup(seed in 0u64..u64::MAX) {
        let mut s = seed | 1;
        let sources: Vec<String> = (0..PATHS.len()).map(|_| random_source(&mut s)).collect();
        let json = build_in_order(&sources, &[0, 1, 2, 3]);
        prop_assert!(json.contains("\"functions\""));
    }

    /// Input file order is irrelevant: the builder sorts by path before
    /// assigning indices, so every permutation yields identical JSON.
    #[test]
    fn graph_build_is_deterministic_under_file_order_shuffle(seed in 0u64..u64::MAX) {
        let mut s = seed | 1;
        let sources: Vec<String> = (0..PATHS.len()).map(|_| random_source(&mut s)).collect();
        let a = build_in_order(&sources, &[0, 1, 2, 3]);
        let b = build_in_order(&sources, &[3, 1, 0, 2]);
        let c = build_in_order(&sources, &[2, 3, 1, 0]);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    /// The full two-phase pass is total and order-independent too: the
    /// taint rules and suppression machinery on top of the graph keep
    /// the report byte-stable under file-order shuffle.
    #[test]
    fn two_phase_report_is_stable_under_file_order_shuffle(seed in 0u64..u64::MAX) {
        let mut s = seed | 1;
        let files: Vec<SourceFile> = (0..PATHS.len())
            .map(|i| SourceFile {
                path: PATHS[i].0.to_owned(),
                source: random_source(&mut s),
                crate_name: PATHS[i].1.to_owned(),
            })
            .collect();
        let shuffled = vec![files[2].clone(), files[0].clone(), files[3].clone(), files[1].clone()];
        let a = lint_sources(&files, &[]);
        let b = lint_sources(&shuffled, &[]);
        prop_assert_eq!(a.diagnostics, b.diagnostics);
        prop_assert_eq!(a.files, b.files);
    }
}
