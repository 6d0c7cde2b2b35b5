//! Inline suppression comments:
//! `// qccd-lint: allow(<rule>[, <rule>…]) — <reason>`.
//!
//! The reason is mandatory: every exemption from a determinism rule
//! must say *why* the site is safe, so the meta-test can assert the
//! live workspace carries no bare allows. A suppression placed after
//! code applies to its own line; a suppression on a line of its own
//! applies to the next line of code. Matching any diagnostic marks the
//! suppression used; unused ones are flagged so stale allows cannot
//! linger after the code they excused is gone.

use crate::lexer::{Comment, Token};
use crate::rules::RULES;
use crate::Diagnostic;

const MARKER: &str = "qccd-lint:";

/// A parsed, well-formed suppression.
pub(crate) struct Suppression {
    rules: Vec<String>,
    target_line: u32,
    line: u32,
    col: u32,
    used: bool,
}

/// Parses every `qccd-lint:` comment. Returns the well-formed
/// suppressions plus `bad-suppression` diagnostics for
/// malformed ones (unknown rule, missing reason, bad shape).
pub(crate) fn parse(
    path: &str,
    comments: &[Comment],
    tokens: &[Token],
) -> (Vec<Suppression>, Vec<Diagnostic>) {
    let mut sups = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        // Only a comment that *starts* with the marker is a
        // suppression; doc comments that merely mention the syntax
        // (their text begins with the extra `/` or `!`) are prose.
        let trimmed = c.text.trim_start();
        if !trimmed.starts_with(MARKER) {
            continue;
        }
        let mut fail = |message: String| {
            bad.push(Diagnostic {
                file: path.to_owned(),
                line: c.line,
                col: c.col,
                rule: "bad-suppression",
                message,
            });
        };
        let rest = trimmed[MARKER.len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            fail(
                "malformed `qccd-lint:` comment: expected \
                 `// qccd-lint: allow(<rule>) — <reason>`"
                    .to_owned(),
            );
            continue;
        };
        let rest = rest.trim_start();
        let Some((inside, after)) = rest.strip_prefix('(').and_then(|r| r.split_once(')')) else {
            fail(
                "malformed `qccd-lint:` comment: expected \
                 `// qccd-lint: allow(<rule>) — <reason>`"
                    .to_owned(),
            );
            continue;
        };
        let rules: Vec<String> = inside
            .split(',')
            .map(|r| r.trim().to_owned())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            fail(
                "suppression allows no rule: `allow(<rule>)` needs at least one rule id".to_owned(),
            );
            continue;
        }
        if let Some(unknown) = rules.iter().find(|r| !RULES.iter().any(|k| k.id == **r)) {
            fail(format!("suppression names unknown rule `{unknown}`"));
            continue;
        }
        // The reason must follow a separator (em/en dash, hyphen, or
        // colon) and be non-empty.
        let after = after.trim_start();
        let reason = after
            .strip_prefix('—')
            .or_else(|| after.strip_prefix('–'))
            .or_else(|| after.strip_prefix('-'))
            .or_else(|| after.strip_prefix(':'))
            .map(str::trim)
            .unwrap_or("");
        if reason.is_empty() {
            fail(
                "suppression is missing its mandatory reason: \
                 `// qccd-lint: allow(<rule>) — <reason>`"
                    .to_owned(),
            );
            continue;
        }
        sups.push(Suppression {
            rules,
            target_line: target_line(c, tokens),
            line: c.line,
            col: c.col,
            used: false,
        });
    }
    (sups, bad)
}

/// The line a suppression governs: its own line when code precedes the
/// comment, otherwise the next line that has code.
fn target_line(c: &Comment, tokens: &[Token]) -> u32 {
    let code_before = tokens.iter().any(|t| t.line == c.line && t.col < c.col);
    if code_before {
        return c.line;
    }
    tokens
        .iter()
        .filter(|t| t.line > c.line)
        .map(|t| t.line)
        .min()
        .unwrap_or(c.line)
}

/// Filters out diagnostics matched by a suppression, marking matches.
pub(crate) fn apply(diags: Vec<Diagnostic>, sups: &mut [Suppression]) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| {
            for s in sups.iter_mut() {
                if s.target_line == d.line && s.rules.iter().any(|r| r == d.rule) {
                    s.used = true;
                    return false;
                }
            }
            true
        })
        .collect()
}

/// Diagnostics for suppressions that matched nothing.
pub(crate) fn unused(path: &str, sups: &[Suppression]) -> Vec<Diagnostic> {
    sups.iter()
        .filter(|s| !s.used)
        .map(|s| Diagnostic {
            file: path.to_owned(),
            line: s.line,
            col: s.col,
            rule: "unused-suppression",
            message: format!(
                "suppression for `{}` matched no diagnostic on line {}; remove it",
                s.rules.join(", "),
                s.target_line
            ),
        })
        .collect()
}
