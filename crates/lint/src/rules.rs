//! The rule engine: each rule is a scan over the token stream of one
//! file, scoped by path and target kind (see `FileCtx`).
//!
//! Rules are derived from invariants the code base established by
//! hand: flat data layouts on hot loops, atomic cache writes and
//! content-keyed determinism.

use crate::lexer::{Token, TokenKind};
use crate::{Diagnostic, FileKind};

/// Registry entry describing one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule identifier used in diagnostics and `allow(…)`.
    pub id: &'static str,
    /// One-line summary (also the README rule table).
    pub summary: &'static str,
}

/// All rules, in documentation order. Every one is fatal: any
/// diagnostic fails the lint pass.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "hash-iteration",
        summary: "no HashMap/HashSet/BTreeMap/BTreeSet in device/compiler/sim sources",
    },
    RuleInfo {
        id: "ambient-nondeterminism",
        summary: "no Instant::now/SystemTime::now/thread_rng/from_entropy/std::env in library code",
    },
    RuleInfo {
        id: "atomic-write",
        summary: "no raw fs::write/File::create in crates/core/src/engine/",
    },
    RuleInfo {
        id: "bad-suppression",
        summary: "qccd-lint allow comments must name known rules and carry a reason",
    },
    RuleInfo {
        id: "unused-suppression",
        summary: "allow comments that matched no diagnostic",
    },
    // Phase-2 rules (see `graph`/`taint`): these walk the workspace
    // call graph, so they only fire from `lint_sources`-based entry
    // points, never from a single-file token scan alone.
    RuleInfo {
        id: "golden-path-purity",
        summary: "no print macros or ambient state reachable from an artifact sink",
    },
    RuleInfo {
        id: "sort-stability",
        summary: "no unstable or partial_cmp-keyed sorts feeding an artifact sink",
    },
    RuleInfo {
        id: "engine-panic",
        summary: ".unwrap()/.expect() in library code reachable from the engine",
    },
];

/// Files exempt from `ambient-nondeterminism`: the cache temp-file
/// token (`SystemTime` + pid) in the engine cache is the one
/// legitimate ambient read — it names temp files, never cache content.
pub const AMBIENT_ALLOWLIST: &[&str] = &["crates/core/src/engine/cache.rs"];

/// Everything a rule needs to know about the file being scanned.
pub(crate) struct FileCtx<'a> {
    pub path: &'a str,
    pub kind: FileKind,
    pub tokens: &'a [Token],
    pub in_test: &'a [bool],
}

impl FileCtx<'_> {
    fn diag(&self, i: usize, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: self.path.to_owned(),
            line: self.tokens[i].line,
            col: self.tokens[i].col,
            rule,
            message,
        }
    }
}

/// Runs every path-scoped rule over one file.
pub(crate) fn run_all(ctx: &FileCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    hash_iteration(ctx, &mut out);
    ambient_nondeterminism(ctx, &mut out);
    atomic_write(ctx, &mut out);
    out
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    tokens.get(i).and_then(|t| t.kind.ident())
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i), Some(Token { kind: TokenKind::Punct(p), .. }) if *p == c)
}

/// If tokens `i..` spell `:: <ident>`, returns that identifier.
fn path_seg_after(tokens: &[Token], i: usize) -> Option<&str> {
    if punct_at(tokens, i, ':') && punct_at(tokens, i + 1, ':') {
        ident_at(tokens, i + 2)
    } else {
        None
    }
}

const HOT_CRATES: &[&str] = &[
    "crates/device/src/",
    "crates/compiler/src/",
    "crates/sim/src/",
];

fn hash_iteration(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    // Same scope as the grep CI step this rule supersedes (the three
    // hot crates' src/ trees, test modules included), plus the two
    // set types the grep never covered.
    if !HOT_CRATES.iter().any(|p| ctx.path.starts_with(p)) {
        return;
    }
    const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "BTreeMap", "BTreeSet"];
    for (i, t) in ctx.tokens.iter().enumerate() {
        if let Some(id) = t.kind.ident() {
            if HASH_TYPES.contains(&id) {
                out.push(ctx.diag(
                    i,
                    "hash-iteration",
                    format!(
                        "`{id}` in a hot-path crate: device/compiler/sim keep dense flat \
                         layouts (Vec, FixedBitSet) so iteration order can never reach an \
                         output path"
                    ),
                ));
            }
        }
    }
}

fn ambient_nondeterminism(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if ctx.kind != FileKind::Lib || AMBIENT_ALLOWLIST.contains(&ctx.path) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        if ctx.in_test[i] {
            continue;
        }
        let what = match ident_at(ctx.tokens, i) {
            Some("Instant") if path_seg_after(ctx.tokens, i + 1) == Some("now") => "Instant::now",
            Some("SystemTime") if path_seg_after(ctx.tokens, i + 1) == Some("now") => {
                "SystemTime::now"
            }
            Some("thread_rng") => "thread_rng",
            Some("from_entropy") => "from_entropy",
            Some("std") if path_seg_after(ctx.tokens, i + 1) == Some("env") => "std::env",
            _ => continue,
        };
        out.push(ctx.diag(
            i,
            "ambient-nondeterminism",
            format!(
                "ambient nondeterminism: `{what}` can leak wall-clock/environment state \
                 into an output path; thread inputs through explicitly (allowlisted site: \
                 crates/core/src/engine/cache.rs)"
            ),
        ));
    }
}

fn atomic_write(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !ctx.path.starts_with("crates/core/src/engine/") {
        return;
    }
    for i in 0..ctx.tokens.len() {
        if ctx.in_test[i] {
            continue;
        }
        let what = match ident_at(ctx.tokens, i) {
            Some("fs") if path_seg_after(ctx.tokens, i + 1) == Some("write") => "fs::write",
            Some("File") if path_seg_after(ctx.tokens, i + 1) == Some("create") => "File::create",
            _ => continue,
        };
        out.push(ctx.diag(
            i,
            "atomic-write",
            format!(
                "raw `{what}` in the engine: a concurrent reader can observe a truncated \
                 entry — route writes through the temp-file + rename helpers in \
                 engine/cache.rs"
            ),
        ));
    }
}

/// Marks every token under a `#[test]` / `#[cfg(test)]`-gated item.
///
/// Attribute detection is token-level: an attribute whose contents
/// mention `test` without `not` gates the following item (attributes
/// stack), and the item extends to the first `;`/`,` at depth zero or
/// to the close of its first brace group.
pub(crate) fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if punct_at(tokens, i, '#') && punct_at(tokens, i + 1, '[') {
            let (close, is_test) = scan_attr(tokens, i + 1);
            if is_test {
                let mut j = close + 1;
                while punct_at(tokens, j, '#') && punct_at(tokens, j + 1, '[') {
                    j = scan_attr(tokens, j + 1).0 + 1;
                }
                let end = item_end(tokens, j).min(tokens.len() - 1);
                for flag in &mut mask[i..=end] {
                    *flag = true;
                }
                i = end + 1;
            } else {
                i = close + 1;
            }
        } else {
            i += 1;
        }
    }
    mask
}

/// Scans an attribute starting at its `[`; returns the index of the
/// matching `]` and whether the attribute gates test code.
fn scan_attr(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut has_test = false;
    let mut has_not = false;
    let mut k = open;
    while k < tokens.len() {
        match &tokens[k].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Ident(s) => {
                if s == "test" {
                    has_test = true;
                }
                if s == "not" {
                    has_not = true;
                }
            }
            _ => {}
        }
        k += 1;
    }
    (k.min(tokens.len().saturating_sub(1)), has_test && !has_not)
}

/// Index of the last token of the item starting at `j`.
fn item_end(tokens: &[Token], j: usize) -> usize {
    let mut depth = 0i32;
    let mut opened_brace = false;
    let mut k = j;
    while k < tokens.len() {
        match &tokens[k].kind {
            TokenKind::Punct(c @ ('(' | '[' | '{')) => {
                if depth == 0 && *c == '{' {
                    opened_brace = true;
                }
                depth += 1;
            }
            TokenKind::Punct(c @ (')' | ']' | '}')) => {
                if depth == 0 {
                    // Stepped out of the enclosing scope (e.g. an
                    // attributed field at the end of a struct body).
                    return k;
                }
                depth -= 1;
                if depth == 0 && *c == '}' && opened_brace {
                    return k;
                }
            }
            TokenKind::Punct(';' | ',') if depth == 0 => return k,
            _ => {}
        }
        k += 1;
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { inner(); }\n}\nfn after() {}";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let at = |name: &str| {
            lexed
                .tokens
                .iter()
                .position(|t| t.kind.ident() == Some(name))
                .unwrap()
        };
        assert!(!mask[at("live")]);
        assert!(mask[at("inner")]);
        assert!(!mask[at("after")]);
    }

    #[test]
    fn test_mask_respects_cfg_not_test() {
        let src = "#[cfg(not(test))]\nfn live() { body(); }\nfn next() {}";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        assert!(mask.iter().all(|m| !m));
    }

    #[test]
    fn test_mask_handles_attributed_fields() {
        // An attributed field ends at `,` / `}`, not at some later `;`.
        let src =
            "struct S {\n    #[cfg(test)]\n    probe: u32,\n    live: u32,\n}\nfn tail() { x(); }";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let at = |name: &str| {
            lexed
                .tokens
                .iter()
                .position(|t| t.kind.ident() == Some(name))
                .unwrap()
        };
        assert!(mask[at("probe")]);
        assert!(!mask[at("live")]);
        assert!(!mask[at("tail")]);
    }

    #[test]
    fn test_attr_functions_are_masked() {
        let src = "#[test]\nfn check() { assert!(x.unwrap() > 0); }\nfn live() {}";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let unwrap_at = lexed
            .tokens
            .iter()
            .position(|t| t.kind.ident() == Some("unwrap"))
            .unwrap();
        assert!(mask[unwrap_at]);
    }
}
