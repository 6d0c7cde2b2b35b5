//! Phase 2 of the analyzer: a workspace module/call graph built from
//! the token streams phase 1 already produced.
//!
//! Rules like *golden-path purity* are cross-file properties — whether
//! a `println!` can interleave with artifact bytes depends on
//! reachability into the sinks, not on which file it sits in. This
//! module recovers just enough structure to answer reachability
//! questions, with the same constraints as the lexer: offline (no
//! `syn`), infallible (a file that does not parse still contributes
//! the functions it can), and deterministic (files are sorted, edges
//! are sorted, resolution never consults iteration order of a hash
//! table).
//!
//! What is recovered, token-level:
//!
//! * the **module tree** — from the workspace-relative file path
//!   (`crates/core/src/engine/sink.rs` → `qccd::engine::sink`) plus
//!   inline `mod x { … }` blocks;
//! * **function definitions** — `fn name`, qualified by the enclosing
//!   module path and `impl Type [for Trait]` / `trait Name` blocks
//!   (the trait name is how `ArtifactSink` impls are recognized);
//! * **call sites** — bare calls `f(…)`, qualified calls
//!   `path::to::f(…)`, method calls `.f(…)` and macro invocations
//!   `f!(…)`, attributed to the innermost enclosing function;
//! * **`use` declarations** — so a bare call to an imported name
//!   resolves through its import path.
//!
//! Name resolution is *suffix-qualified*: a call's qualifier segments
//! must appear, in order, among the candidate definition's qualified
//! path segments. This tolerates re-exports (`qccd_sim::canonical_float`
//! matches the definition `qccd_sim::report::canonical_float`) while
//! still separating same-named functions in different crates. Bare
//! calls prefer same-module, then same-crate candidates; method calls
//! (no receiver types at token level) link to every function of that
//! name defined in an `impl` or `trait` block — a deliberate
//! over-approximation, so reachability never under-reports.

use crate::lexer::{Token, TokenKind};
use crate::FileKind;

/// One source file handed to the graph builder.
pub struct GraphFile<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// Crate identifier (underscore form) the file belongs to.
    pub crate_name: &'a str,
    /// Target kind (several taint rules only flag library code).
    pub kind: FileKind,
    /// Phase-1 token stream.
    pub tokens: &'a [Token],
    /// Phase-1 test mask (`#[cfg(test)]` / `#[test]` coverage).
    pub mask: &'a [bool],
}

/// A source position attached to a graph fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// An effect observed inside one function body.
#[derive(Debug, Clone)]
pub struct Effect {
    /// What fired (e.g. `println!`, `SystemTime::now`, `.expect()`).
    pub what: String,
    /// Where it fired.
    pub pos: Pos,
}

/// A call site inside one function body, before resolution.
#[derive(Debug, Clone)]
struct Call {
    /// Path segments as written (`a::b::f` → `["a","b","f"]`); method
    /// calls carry just the method name.
    segs: Vec<String>,
    /// Whether the call was `.name(…)` (receiver type unknown).
    method: bool,
}

/// A function definition recovered from the token stream.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Bare function name.
    pub name: String,
    /// Fully qualified segments: crate, modules, impl/trait type, name.
    pub qual: Vec<String>,
    /// How many leading `qual` segments are the module path (crate +
    /// modules); anything between that and the name is impl/trait
    /// context, which is how methods are told from free functions.
    pub mod_depth: usize,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Position of the `fn` name token.
    pub pos: Pos,
    /// Target kind of the defining file.
    pub kind: FileKind,
    /// Whether the definition sits under `#[cfg(test)]` / `#[test]`.
    pub is_test: bool,
    /// The trait implemented, for functions inside `impl T for U`.
    pub impl_trait: Option<String>,
    /// Print-macro uses in the body (`println!` and friends).
    pub prints: Vec<Effect>,
    /// Ambient-state reads in the body (`SystemTime::now`, …).
    pub ambients: Vec<Effect>,
    /// Order-unstable or `partial_cmp`-keyed sorts in the body.
    pub sorts: Vec<Effect>,
    /// `.unwrap()` / `.expect()` sites in the body.
    pub panics: Vec<Effect>,
    /// Unresolved call sites (resolved into [`CallGraph::callees`]).
    calls: Vec<Call>,
}

impl FnNode {
    /// `crate::module::Type::name` display form used in diagnostics.
    pub fn display(&self) -> String {
        self.qual.join("::")
    }
}

/// The resolved workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// All recovered functions, ordered by (file, position).
    pub fns: Vec<FnNode>,
    /// Resolved callee adjacency: `callees[i]` are indices the body of
    /// `fns[i]` may call, sorted and deduplicated.
    pub callees: Vec<Vec<usize>>,
    /// Reverse adjacency: `callers[i]` are indices that may call
    /// `fns[i]`, sorted and deduplicated.
    pub callers: Vec<Vec<usize>>,
}

/// Identifiers that look like calls (`if (…)`) but are control flow or
/// declarations, never function names.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "fn", "as", "in", "let", "mut", "ref", "move",
    "return", "break", "continue", "unsafe", "where", "impl", "use", "mod", "pub", "struct",
    "enum", "trait", "type", "const", "static", "dyn", "box", "await", "async", "extern", "crate",
    "super", "self", "Self",
];

/// Print macros denied on the golden path (stderr included: interleaved
/// diagnostics make artifact runs non-reproducible to diff).
const PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// What `mod`/`impl`/`trait`/`fn` introduction is waiting for its `{`.
enum Pending {
    Mod(String),
    Impl { ty: String, tr: Option<String> },
    Trait(String),
    Fn { name: String, tok: usize },
}

/// One open brace scope.
enum Scope {
    Mod(String),
    Impl { ty: String, tr: Option<String> },
    Trait(String),
    Fn(usize),
    Block,
}

impl CallGraph {
    /// Builds the graph. Input order does not matter: files are sorted
    /// by path before any index is assigned.
    ///
    /// `deps` is the crate-level dependency table (package ident →
    /// direct dependency idents): a call in crate A only resolves to a
    /// definition in crate B when A depends on B (or A = B). Crates
    /// absent from the table are unconstrained — an empty table turns
    /// the filter off, which is what single-file linting uses.
    pub fn build(files: &[GraphFile], deps: &[(String, Vec<String>)]) -> CallGraph {
        let mut deps = deps.to_vec();
        deps.sort();
        let mut order: Vec<usize> = (0..files.len()).collect();
        order.sort_by(|&a, &b| files[a].path.cmp(files[b].path));

        let mut fns: Vec<FnNode> = Vec::new();
        let mut use_maps: Vec<Vec<(String, Vec<String>)>> = Vec::new();
        let mut fn_file: Vec<usize> = Vec::new(); // fn idx → use-map idx
        for (slot, &fi) in order.iter().enumerate() {
            let file = &files[fi];
            let before = fns.len();
            let uses = scan_file(file, &mut fns);
            use_maps.push(uses);
            fn_file.extend(std::iter::repeat_n(slot, fns.len() - before));
        }

        // Name index: bare name → candidate fn indices (sorted by
        // definition order, which is (file, position) order).
        let mut by_name: Vec<(&str, Vec<usize>)> = Vec::new();
        {
            let mut pairs: Vec<(&str, usize)> = fns
                .iter()
                .enumerate()
                .map(|(i, f)| (f.name.as_str(), i))
                .collect();
            pairs.sort();
            for (name, idx) in pairs {
                match by_name.last_mut() {
                    Some((n, v)) if *n == name => v.push(idx),
                    _ => by_name.push((name, vec![idx])),
                }
            }
        }
        let candidates = |name: &str| -> &[usize] {
            match by_name.binary_search_by(|(n, _)| n.cmp(&name)) {
                Ok(i) => &by_name[i].1,
                Err(_) => &[],
            }
        };

        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for i in 0..fns.len() {
            let uses = &use_maps[fn_file[i]];
            let mut out = Vec::new();
            for call in &fns[i].calls {
                let Some(name) = call.segs.last() else {
                    continue;
                };
                resolve(&fns, i, call, candidates(name), uses, &deps, &mut out);
            }
            out.sort_unstable();
            out.dedup();
            callees[i] = out;
        }
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (i, outs) in callees.iter().enumerate() {
            for &j in outs {
                callers[j].push(i);
            }
        }
        for v in &mut callers {
            v.sort_unstable();
            v.dedup();
        }
        CallGraph {
            fns,
            callees,
            callers,
        }
    }

    /// Renders the graph as stable, hand-escaped JSON (the linter is
    /// dependency-free): a sorted `functions` array and a sorted
    /// `edges` array of resolved caller → callee pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"functions\": [");
        for (i, f) in self.fns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"qual\": \"{}\", \"file\": \"{}\", \"line\": {}, \"test\": {}}}",
                esc(&f.display()),
                esc(&f.file),
                f.pos.line,
                f.is_test
            ));
        }
        if !self.fns.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"edges\": [");
        let mut edges: Vec<(String, String)> = Vec::new();
        for (i, outs) in self.callees.iter().enumerate() {
            for &j in outs {
                edges.push((self.fns[i].display(), self.fns[j].display()));
            }
        }
        edges.sort();
        edges.dedup();
        for (k, (from, to)) in edges.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"from\": \"{}\", \"to\": \"{}\"}}",
                esc(from),
                esc(to)
            ));
        }
        if !edges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }

    /// Indices of every function reachable from `roots` by following
    /// `adj` (use [`CallGraph::callees`] for "what runs under these
    /// roots", [`CallGraph::callers`] for "what feeds these roots"),
    /// with a witness predecessor per discovered node for traces.
    /// Roots are included. Deterministic: plain BFS over sorted
    /// adjacency from sorted roots.
    pub fn reach(roots: &[usize], adj: &[Vec<usize>]) -> (Vec<usize>, Vec<Option<usize>>) {
        let mut seen = vec![false; adj.len()];
        let mut via: Vec<Option<usize>> = vec![None; adj.len()];
        let mut queue: std::collections::VecDeque<usize> = Default::default();
        let mut sorted_roots = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        for &r in &sorted_roots {
            if !seen[r] {
                seen[r] = true;
                queue.push_back(r);
            }
        }
        let mut out = Vec::new();
        while let Some(u) = queue.pop_front() {
            out.push(u);
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    via[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        out.sort_unstable();
        (out, via)
    }

    /// The witness chain root → … → `node` recovered from a
    /// [`CallGraph::reach`] predecessor table, as display names.
    pub fn trace(&self, via: &[Option<usize>], node: usize) -> Vec<String> {
        let mut chain = vec![node];
        let mut cur = node;
        while let Some(prev) = via[cur] {
            chain.push(prev);
            cur = prev;
        }
        chain.reverse();
        chain.into_iter().map(|i| self.fns[i].display()).collect()
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Whether a call in `caller_crate` may land in `callee_crate` given
/// the dependency table (sorted by crate). Unknown crates are
/// unconstrained.
fn crate_allowed(deps: &[(String, Vec<String>)], caller_crate: &str, callee_crate: &str) -> bool {
    if caller_crate == callee_crate {
        return true;
    }
    match deps.binary_search_by(|(c, _)| c.as_str().cmp(caller_crate)) {
        Ok(i) => deps[i].1.iter().any(|d| d == callee_crate),
        Err(_) => true,
    }
}

/// Suffix-qualified resolution of one call site; pushes every matching
/// candidate index into `out` (over-approximation by design, bounded
/// by the crate dependency table).
fn resolve(
    fns: &[FnNode],
    caller: usize,
    call: &Call,
    candidates: &[usize],
    uses: &[(String, Vec<String>)],
    deps: &[(String, Vec<String>)],
    out: &mut Vec<usize>,
) {
    let caller_crate = fns[caller].qual[0].clone();
    let candidates: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| crate_allowed(deps, &caller_crate, &fns[c].qual[0]))
        .collect();
    if candidates.is_empty() {
        return;
    }
    if call.method {
        // `.name(…)`: no receiver type at token level — link to every
        // method (impl/trait-block function) of that name.
        out.extend(
            candidates
                .iter()
                .filter(|&&c| fns[c].qual.len() > fns[c].name_depth())
                .copied(),
        );
        return;
    }
    let quals = substitute(&call.segs[..call.segs.len() - 1], &fns[caller]);
    if !quals.is_empty() {
        out.extend(
            candidates
                .iter()
                .filter(|&&c| is_subsequence(&quals, &fns[c].qual))
                .copied(),
        );
        return;
    }
    // Bare call: an import path, if any, acts as the qualifier.
    let Some(name) = call.segs.last() else { return };
    if let Ok(u) = uses.binary_search_by(|(alias, _)| alias.as_str().cmp(name.as_str())) {
        let path = &uses[u].1;
        let quals = substitute(&path[..path.len() - 1], &fns[caller]);
        if !quals.is_empty() {
            let matched: Vec<usize> = candidates
                .iter()
                .filter(|&&c| is_subsequence(&quals, &fns[c].qual))
                .copied()
                .collect();
            if !matched.is_empty() {
                out.extend(matched);
                return;
            }
        }
    }
    // Same module beats same crate beats everything.
    let caller_mod = &fns[caller].qual[..fns[caller].mod_depth];
    let same_mod: Vec<usize> = candidates
        .iter()
        .filter(|&&c| fns[c].qual[..fns[c].mod_depth] == *caller_mod)
        .copied()
        .collect();
    if !same_mod.is_empty() {
        out.extend(same_mod);
        return;
    }
    let same_crate: Vec<usize> = candidates
        .iter()
        .filter(|&&c| fns[c].qual[0] == fns[caller].qual[0])
        .copied()
        .collect();
    if !same_crate.is_empty() {
        out.extend(same_crate);
        return;
    }
    out.extend(candidates.iter().copied());
}

impl FnNode {
    /// How many trailing segments of `qual` are the name itself (1).
    /// Methods additionally carry their impl/trait type segment; a
    /// free function's qual is exactly modules + name. Used to tell
    /// methods from free functions without another field: a function
    /// is a method iff its qual is longer than its module path + name,
    /// which `scan_file` encodes by `mod_depth`.
    fn name_depth(&self) -> usize {
        self.mod_depth + 1
    }
}

/// `crate`/`self`/`super`/`Self` prefix substitution against the
/// caller's own qualified path; returns the effective qualifier
/// segments (possibly empty).
fn substitute(raw: &[String], caller: &FnNode) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let caller_mods = &caller.qual[..caller.mod_depth];
    for (k, seg) in raw.iter().enumerate() {
        if k == 0 {
            match seg.as_str() {
                "crate" => {
                    out.push(caller.qual[0].clone());
                    continue;
                }
                "self" => {
                    out.extend(caller_mods.iter().cloned());
                    continue;
                }
                "super" => {
                    let parent = caller_mods.len().saturating_sub(1);
                    out.extend(caller_mods[..parent].iter().cloned());
                    continue;
                }
                "Self" => {
                    // The impl type segment sits right after the modules.
                    out.extend(caller.qual[..caller.qual.len() - 1].iter().cloned());
                    continue;
                }
                _ => {}
            }
        }
        if seg == "super" {
            out.pop();
            continue;
        }
        out.push(seg.clone());
    }
    out
}

/// Whether `needle` appears as an ordered (not necessarily contiguous)
/// subsequence of `hay`.
fn is_subsequence(needle: &[String], hay: &[String]) -> bool {
    let mut it = hay.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

/// Scans one file, appending every recovered function to `fns` and
/// returning the sorted `use` alias map.
fn scan_file(file: &GraphFile, fns: &mut Vec<FnNode>) -> Vec<(String, Vec<String>)> {
    let toks = file.tokens;
    let base = base_modules(file.path);
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<Pending> = None;
    let mut uses: Vec<(String, Vec<String>)> = Vec::new();

    let ident = |i: usize| toks.get(i).and_then(|t| t.kind.ident());

    // The innermost enclosing fn, if any.
    let innermost = |scopes: &[Scope]| -> Option<usize> {
        scopes.iter().rev().find_map(|s| match s {
            Scope::Fn(idx) => Some(*idx),
            _ => None,
        })
    };
    // Current module path (crate + file modules + inline mods).
    let mod_path = |scopes: &[Scope]| -> Vec<String> {
        let mut path = vec![file.crate_name.to_owned()];
        path.extend(base.iter().cloned());
        for s in scopes {
            if let Scope::Mod(name) = s {
                path.push(name.clone());
            }
        }
        path
    };
    // Innermost impl/trait type context, if the scope stack has one
    // above every later mod (impl blocks cannot nest mods in practice).
    let type_ctx = |scopes: &[Scope]| -> (Option<String>, Option<String>) {
        for s in scopes.iter().rev() {
            match s {
                Scope::Impl { ty, tr } => return (Some(ty.clone()), tr.clone()),
                Scope::Trait(name) => return (Some(name.clone()), None),
                _ => {}
            }
        }
        (None, None)
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match &t.kind {
            TokenKind::Punct('{') => {
                scopes.push(match pending.take() {
                    Some(Pending::Mod(name)) => Scope::Mod(name),
                    Some(Pending::Impl { ty, tr }) => Scope::Impl { ty, tr },
                    Some(Pending::Trait(name)) => Scope::Trait(name),
                    Some(Pending::Fn { name, tok }) => {
                        let (ty, tr) = type_ctx(&scopes);
                        let mut qual = mod_path(&scopes);
                        let mod_depth = qual.len();
                        if let Some(ty) = &ty {
                            qual.push(ty.clone());
                        }
                        qual.push(name.clone());
                        fns.push(FnNode {
                            name,
                            qual,
                            mod_depth,
                            file: file.path.to_owned(),
                            pos: Pos {
                                line: toks[tok].line,
                                col: toks[tok].col,
                            },
                            kind: file.kind,
                            is_test: file.mask.get(tok).copied().unwrap_or(false),
                            impl_trait: tr,
                            prints: Vec::new(),
                            ambients: Vec::new(),
                            sorts: Vec::new(),
                            panics: Vec::new(),
                            calls: Vec::new(),
                        });
                        Scope::Fn(fns.len() - 1)
                    }
                    None => Scope::Block,
                });
                i += 1;
                continue;
            }
            TokenKind::Punct('}') => {
                scopes.pop();
                i += 1;
                continue;
            }
            TokenKind::Punct(';') => {
                // A `;` before any `{` cancels the pending item:
                // `mod x;`, trait method declarations, `use …;`.
                pending = None;
                i += 1;
                continue;
            }
            _ => {}
        }

        if pending.is_none() {
            match ident(i) {
                Some("mod") => {
                    if let Some(name) = ident(i + 1) {
                        pending = Some(Pending::Mod(name.to_owned()));
                        i += 2;
                        continue;
                    }
                }
                Some("fn") => {
                    if let Some(name) = ident(i + 1) {
                        pending = Some(Pending::Fn {
                            name: name.to_owned(),
                            tok: i + 1,
                        });
                        i += 2;
                        continue;
                    }
                }
                Some("impl") => {
                    let (pend, next) = scan_impl(toks, i + 1);
                    pending = Some(pend);
                    i = next;
                    continue;
                }
                Some("trait") => {
                    if let Some(name) = ident(i + 1) {
                        pending = Some(Pending::Trait(name.to_owned()));
                        i += 2;
                        continue;
                    }
                }
                Some("use") => {
                    let next = scan_use(toks, i + 1, &mut uses);
                    i = next;
                    continue;
                }
                _ => {}
            }
        }

        // Body facts: attributed to the innermost enclosing fn, test
        // code skipped.
        if let Some(f) = innermost(&scopes) {
            if !file.mask.get(i).copied().unwrap_or(false) {
                scan_body_fact(file, toks, i, &mut fns[f]);
            }
        }
        i += 1;
    }

    // A dangling pending fn at EOF (unterminated file) registers
    // nothing — its body never opened.
    uses.sort();
    uses.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
    uses
}

/// Whether token `i` is the name of a `self.<name>(…)` call in a file
/// that defines `fn <name>` itself — shadowing the std panicking
/// method with a local one.
fn self_call_to_local_fn(toks: &[Token], i: usize, name: &str) -> bool {
    let ident = |k: usize| toks.get(k).and_then(|t| t.kind.ident());
    let punct = |k: usize, c: char| matches!(toks.get(k), Some(Token { kind: TokenKind::Punct(p), .. }) if *p == c);
    let self_recv =
        i >= 2 && punct(i - 1, '.') && ident(i - 2) == Some("self") && punct(i + 1, '(');
    self_recv
        && (0..toks.len().saturating_sub(1))
            .any(|k| ident(k) == Some("fn") && ident(k + 1) == Some(name))
}

/// Records at most one fact for the token at `i` into `node`.
fn scan_body_fact(file: &GraphFile, toks: &[Token], i: usize, node: &mut FnNode) {
    let ident = |k: usize| toks.get(k).and_then(|t| t.kind.ident());
    let punct = |k: usize, c: char| matches!(toks.get(k), Some(Token { kind: TokenKind::Punct(p), .. }) if *p == c);
    let pos = Pos {
        line: toks[i].line,
        col: toks[i].col,
    };
    let Some(name) = ident(i) else { return };

    // Macro invocation `name!(…)` / `name!{…}` / `name![…]`.
    if punct(i + 1, '!') && (punct(i + 2, '(') || punct(i + 2, '{') || punct(i + 2, '[')) {
        if PRINT_MACROS.contains(&name) {
            node.prints.push(Effect {
                what: format!("{name}!"),
                pos,
            });
        }
        return;
    }

    // Ambient reads — same patterns as the phase-1 rule, so the taint
    // diagnostic can add the trace on top of the per-file diagnostic.
    let seg_after = |k: usize| {
        if punct(k, ':') && punct(k + 1, ':') {
            ident(k + 2)
        } else {
            None
        }
    };
    let ambient = match name {
        "Instant" if seg_after(i + 1) == Some("now") => Some("Instant::now"),
        "SystemTime" if seg_after(i + 1) == Some("now") => Some("SystemTime::now"),
        "thread_rng" => Some("thread_rng"),
        "from_entropy" => Some("from_entropy"),
        "std" if seg_after(i + 1) == Some("env") => Some("std::env"),
        _ => None,
    };
    if let Some(what) = ambient {
        if !crate::rules::AMBIENT_ALLOWLIST.contains(&file.path) {
            node.ambients.push(Effect {
                what: what.to_owned(),
                pos,
            });
        }
        // `Instant::now(…)` would otherwise also record a call below.
        return;
    }

    // Method-position facts.
    if i > 0 && punct(i - 1, '.') && punct(i + 1, '(') {
        match name {
            "unwrap" | "expect" => {
                // `self.expect(…)` to a locally defined `fn expect`
                // (the QASM parser's Result-returning token matcher)
                // propagates instead of panicking.
                if !self_call_to_local_fn(toks, i, name) {
                    node.panics.push(Effect {
                        what: format!(".{name}()"),
                        pos,
                    });
                }
                return;
            }
            "sort_unstable_by" | "sort_unstable_by_key" => {
                node.sorts.push(Effect {
                    what: format!(".{name}()"),
                    pos,
                });
                return;
            }
            "sort_by" | "sort_by_key" if paren_group_mentions(toks, i + 1, "partial_cmp") => {
                node.sorts.push(Effect {
                    what: format!(".{name}()` keyed by `partial_cmp"),
                    pos,
                });
                return;
            }
            _ => {}
        }
        node.calls.push(Call {
            segs: vec![name.to_owned()],
            method: true,
        });
        return;
    }

    // Free or path-qualified call: `name(`, with any `a::b::` prefix
    // collected by looking back. Only the *last* segment reaches this
    // arm with a `(` after it, so interior segments never double-count.
    if punct(i + 1, '(') && !NON_CALL_IDENTS.contains(&name) {
        let mut segs = vec![name.to_owned()];
        let mut k = i;
        while k >= 2 && punct(k - 1, ':') && punct(k - 2, ':') {
            let Some(prev) = (k >= 3).then(|| ident(k - 3)).flatten() else {
                break;
            };
            segs.push(prev.to_owned());
            k -= 3;
        }
        segs.reverse();
        node.calls.push(Call {
            segs,
            method: false,
        });
    }
}

/// Whether the paren group opening at `open` mentions `needle`.
fn paren_group_mentions(toks: &[Token], open: usize, needle: &str) -> bool {
    let mut depth = 0i32;
    let mut k = open;
    while k < toks.len() {
        match &toks[k].kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            TokenKind::Ident(s) if s == needle => return true,
            _ => {}
        }
        k += 1;
    }
    false
}

/// Parses an `impl` header starting after the `impl` token; returns
/// the pending scope and the index to resume scanning at (just before
/// the body `{`, which the main loop consumes).
fn scan_impl(toks: &[Token], mut i: usize) -> (Pending, usize) {
    let ident = |k: usize| toks.get(k).and_then(|t| t.kind.ident());
    let punct = |k: usize, c: char| matches!(toks.get(k), Some(Token { kind: TokenKind::Punct(p), .. }) if *p == c);
    if punct(i, '<') {
        i = skip_angles(toks, i);
    }
    let (first, mut i) = scan_type_path(toks, i);
    if ident(i) == Some("for") {
        let (second, j) = scan_type_path(toks, i + 1);
        i = j;
        (
            Pending::Impl {
                ty: second.unwrap_or_default(),
                tr: first,
            },
            i,
        )
    } else {
        (
            Pending::Impl {
                ty: first.unwrap_or_default(),
                tr: None,
            },
            i,
        )
    }
}

/// Scans a type path (`a::b::Name<…>`), returning its last identifier
/// and the index just past it (generic arguments skipped). Stops at
/// `for`, `where`, `{`, `;` or anything that is not part of a path.
fn scan_type_path(toks: &[Token], mut i: usize) -> (Option<String>, usize) {
    let ident = |k: usize| toks.get(k).and_then(|t| t.kind.ident());
    let punct = |k: usize, c: char| matches!(toks.get(k), Some(Token { kind: TokenKind::Punct(p), .. }) if *p == c);
    // Leading `&`, `&mut`, `dyn` on odd impl targets.
    while punct(i, '&') || ident(i) == Some("dyn") || ident(i) == Some("mut") {
        i += 1;
    }
    let mut last: Option<String> = None;
    loop {
        match ident(i) {
            Some("for") | Some("where") | None => break,
            Some(seg) => {
                last = Some(seg.to_owned());
                i += 1;
            }
        }
        if punct(i, '<') {
            i = skip_angles(toks, i);
        }
        if punct(i, ':') && punct(i + 1, ':') {
            i += 2;
            continue;
        }
        break;
    }
    (last, i)
}

/// Skips a balanced `<…>` group opening at `open`; `->` arrows inside
/// (fn-pointer bounds like `F: Fn() -> T`) do not close it.
fn skip_angles(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < toks.len() {
        match &toks[k].kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => {
                let arrow = k > 0 && matches!(&toks[k - 1].kind, TokenKind::Punct('-'));
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
            }
            TokenKind::Punct('{') | TokenKind::Punct(';') => return k, // bail: malformed
            _ => {}
        }
        k += 1;
    }
    k
}

/// Parses one `use` declaration starting after the `use` token into
/// alias → path entries (groups and `as` renames included, globs
/// skipped); returns the index of the terminating `;` (or EOF).
fn scan_use(toks: &[Token], start: usize, uses: &mut Vec<(String, Vec<String>)>) -> usize {
    // Find the end of the declaration first.
    let mut end = start;
    let mut depth = 0i32;
    while end < toks.len() {
        match &toks[end].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => depth -= 1,
            TokenKind::Punct(';') if depth == 0 => break,
            _ => {}
        }
        end += 1;
    }
    collect_use(toks, start, end, &mut Vec::new(), uses);
    end
}

/// Recursively collects `use` tree leaves between `i` and `end`.
fn collect_use(
    toks: &[Token],
    mut i: usize,
    end: usize,
    prefix: &mut Vec<String>,
    uses: &mut Vec<(String, Vec<String>)>,
) {
    let ident = |k: usize| toks.get(k).and_then(|t| t.kind.ident());
    let punct = |k: usize, c: char| matches!(toks.get(k), Some(Token { kind: TokenKind::Punct(p), .. }) if *p == c);
    let base = prefix.len();
    while i < end {
        if punct(i, '{') {
            // Group: each comma-separated branch restarts from the
            // current prefix.
            let close = matching_brace(toks, i, end);
            let mut branch = i + 1;
            let mut k = i + 1;
            let mut depth = 0i32;
            while k <= close {
                match toks.get(k).map(|t| &t.kind) {
                    Some(TokenKind::Punct('{')) => depth += 1,
                    Some(TokenKind::Punct('}')) if depth > 0 => depth -= 1,
                    Some(TokenKind::Punct(',')) if depth == 0 => {
                        collect_use(toks, branch, k, &mut prefix.clone(), uses);
                        branch = k + 1;
                    }
                    Some(TokenKind::Punct('}')) => {
                        collect_use(toks, branch, k, &mut prefix.clone(), uses);
                        branch = k + 1;
                    }
                    _ => {}
                }
                k += 1;
            }
            prefix.truncate(base);
            return;
        }
        match ident(i) {
            Some("as") => {
                // Alias: the imported name is the alias, path is what
                // was collected so far.
                if let Some(alias) = ident(i + 1) {
                    if !prefix.is_empty() {
                        uses.push((alias.to_owned(), prefix.clone()));
                    }
                }
                prefix.truncate(base);
                return;
            }
            Some(seg) => {
                prefix.push(seg.to_owned());
                i += 1;
                if punct(i, ':') && punct(i + 1, ':') {
                    i += 2;
                    continue;
                }
                // Leaf.
                uses.push((seg.to_owned(), prefix.clone()));
                prefix.truncate(base);
                return;
            }
            None => {
                i += 1; // `*` glob or stray punctuation: skip
            }
        }
    }
    prefix.truncate(base);
}

/// Index of the `}` matching the `{` at `open` (bounded by `end`).
fn matching_brace(toks: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k <= end.min(toks.len().saturating_sub(1)) {
        match &toks[k].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
        k += 1;
    }
    k
}

/// Module path segments implied by a workspace-relative file path:
/// everything after the crate's `src/` (with `lib.rs`, `main.rs` and
/// `mod.rs` contributing no segment of their own); test/bench/example
/// targets contribute their file stem.
fn base_modules(path: &str) -> Vec<String> {
    let comps: Vec<&str> = path.split('/').collect();
    // `split` yields at least one component, so the no-`src/` fallback
    // slice (just the file name) is always in bounds.
    let after_src: &[&str] = match comps.iter().position(|c| *c == "src") {
        Some(p) => &comps[p + 1..],
        None => &comps[comps.len() - 1..],
    };
    let mut mods: Vec<String> = Vec::new();
    for (k, comp) in after_src.iter().enumerate() {
        let is_file = k == after_src.len() - 1;
        if is_file {
            let stem = comp.strip_suffix(".rs").unwrap_or(comp);
            if !matches!(stem, "lib" | "main" | "mod") {
                mods.push(stem.to_owned());
            }
        } else if *comp != "bin" {
            mods.push((*comp).to_owned());
        }
    }
    mods
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::{classify, rules};

    fn graph_of(files: &[(&str, &str, &str)]) -> CallGraph {
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
        CallGraph::build(&gfiles, &[])
    }

    fn idx(g: &CallGraph, disp: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.display() == disp)
            .unwrap_or_else(|| {
                panic!(
                    "no fn `{disp}`; have: {:?}",
                    g.fns.iter().map(FnNode::display).collect::<Vec<_>>()
                )
            })
    }

    fn has_edge(g: &CallGraph, from: &str, to: &str) -> bool {
        g.callees[idx(g, from)].contains(&idx(g, to))
    }

    #[test]
    fn module_paths_come_from_file_paths_and_inline_mods() {
        let g = graph_of(&[(
            "crates/sim/src/report.rs",
            "qccd_sim",
            "pub fn canonical_float(x: f64) -> f64 { x }\nmod inner { fn helper() {} }",
        )]);
        assert_eq!(
            g.fns.iter().map(FnNode::display).collect::<Vec<_>>(),
            vec![
                "qccd_sim::report::canonical_float".to_owned(),
                "qccd_sim::report::inner::helper".to_owned(),
            ]
        );
    }

    #[test]
    fn impl_blocks_qualify_methods_and_record_the_trait() {
        let g = graph_of(&[(
            "crates/core/src/engine/sink.rs",
            "qccd",
            "struct CsvSink;\nimpl ArtifactSink for CsvSink {\n    fn emit(&mut self) { fmt(); }\n}\nimpl CsvSink {\n    fn fmt() {}\n}",
        )]);
        let emit = idx(&g, "qccd::engine::sink::CsvSink::emit");
        assert_eq!(g.fns[emit].impl_trait.as_deref(), Some("ArtifactSink"));
        assert!(has_edge(
            &g,
            "qccd::engine::sink::CsvSink::emit",
            "qccd::engine::sink::CsvSink::fmt"
        ));
    }

    #[test]
    fn cross_crate_qualified_calls_resolve_through_reexports() {
        // The caller writes `qccd_sim::canonical_float` (the re-export);
        // the definition lives under `qccd_sim::report`. Suffix
        // matching links them.
        let g = graph_of(&[
            (
                "crates/core/src/engine/mod.rs",
                "qccd",
                "fn cells() { qccd_sim::canonical_float(1.0); }",
            ),
            (
                "crates/sim/src/report.rs",
                "qccd_sim",
                "pub fn canonical_float(x: f64) -> f64 { x }",
            ),
        ]);
        assert!(has_edge(
            &g,
            "qccd::engine::cells",
            "qccd_sim::report::canonical_float"
        ));
    }

    #[test]
    fn bare_calls_prefer_same_module_then_same_crate() {
        let g = graph_of(&[
            (
                "crates/a/src/x.rs",
                "a",
                "fn go() { helper(); }\nfn helper() {}",
            ),
            ("crates/a/src/y.rs", "a", "fn helper() {}"),
            ("crates/b/src/z.rs", "b", "fn helper() {}"),
        ]);
        let go = idx(&g, "a::x::go");
        assert_eq!(g.callees[go], vec![idx(&g, "a::x::helper")]);
    }

    #[test]
    fn use_imports_qualify_bare_calls() {
        let g = graph_of(&[
            (
                "crates/a/src/x.rs",
                "a",
                "use crate::util::tidy;\nfn go() { tidy(); }",
            ),
            ("crates/a/src/util.rs", "a", "pub fn tidy() {}"),
            ("crates/b/src/util.rs", "b", "pub fn tidy() {}"),
        ]);
        let go = idx(&g, "a::x::go");
        assert_eq!(g.callees[go], vec![idx(&g, "a::util::tidy")]);
    }

    #[test]
    fn method_calls_over_approximate_across_types() {
        let g = graph_of(&[(
            "crates/a/src/x.rs",
            "a",
            "struct S; struct T;\nimpl S { fn ping(&self) {} }\nimpl T { fn ping(&self) {} }\nfn go(s: S) { s.ping(); }",
        )]);
        let go = idx(&g, "a::x::go");
        assert_eq!(
            g.callees[go],
            vec![idx(&g, "a::x::S::ping"), idx(&g, "a::x::T::ping")]
        );
    }

    #[test]
    fn effects_are_attributed_to_the_innermost_fn_and_skip_tests() {
        let g = graph_of(&[(
            "crates/a/src/x.rs",
            "a",
            "fn outer() {\n    println!(\"hi\");\n    fn inner() { x.unwrap(); }\n}\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); eprintln!(\"t\"); }\n}",
        )]);
        let outer = idx(&g, "a::x::outer");
        let inner = idx(&g, "a::x::inner");
        assert_eq!(g.fns[outer].prints.len(), 1);
        assert_eq!(g.fns[outer].panics.len(), 0);
        assert_eq!(g.fns[inner].panics.len(), 1);
        let t = idx(&g, "a::x::tests::t");
        assert!(g.fns[t].is_test);
        assert!(g.fns[t].panics.is_empty() && g.fns[t].prints.is_empty());
    }

    #[test]
    fn sort_facts_cover_unstable_and_partial_cmp_keyed_sorts() {
        let g = graph_of(&[(
            "crates/a/src/x.rs",
            "a",
            "fn s(v: &mut Vec<f64>) {\n    v.sort_unstable_by(|a, b| a.total_cmp(b));\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n    v.sort_by(|a, b| a.total_cmp(b));\n}",
        )]);
        let s = idx(&g, "a::x::s");
        assert_eq!(g.fns[s].sorts.len(), 2, "{:?}", g.fns[s].sorts);
        // The partial_cmp's .unwrap() inside the key closure still
        // counts as a panic site of `s`.
        assert_eq!(g.fns[s].panics.len(), 1);
    }

    #[test]
    fn build_is_deterministic_under_file_order_shuffle() {
        let a = ("crates/a/src/x.rs", "a", "fn go() { helper(); }");
        let b = ("crates/a/src/y.rs", "a", "pub fn helper() { leaf(); }");
        let c = ("crates/b/src/z.rs", "b", "pub fn leaf() {}");
        let g1 = graph_of(&[a, b, c]);
        let g2 = graph_of(&[c, a, b]);
        let g3 = graph_of(&[b, c, a]);
        assert_eq!(g1.to_json(), g2.to_json());
        assert_eq!(g1.to_json(), g3.to_json());
    }

    #[test]
    fn reach_walks_callees_with_witness_traces() {
        let g = graph_of(&[(
            "crates/a/src/x.rs",
            "a",
            "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn stray() {}",
        )]);
        let root = idx(&g, "a::x::root");
        let leaf = idx(&g, "a::x::leaf");
        let (reach, via) = CallGraph::reach(&[root], &g.callees);
        assert!(reach.contains(&leaf));
        assert!(!reach.contains(&idx(&g, "a::x::stray")));
        assert_eq!(
            g.trace(&via, leaf),
            vec!["a::x::root", "a::x::mid", "a::x::leaf"]
        );
    }

    #[test]
    fn trait_default_methods_and_generics_parse() {
        let g = graph_of(&[(
            "crates/a/src/x.rs",
            "a",
            "trait Sinkish {\n    fn required(&self);\n    fn provided(&self) { self.required(); }\n}\nimpl<W: Write> Sinkish for Holder<W> {\n    fn required(&self) {}\n}\nfn generic<F: Fn() -> u32>(f: F) -> impl Iterator<Item = u32> {\n    std::iter::once(f())\n}",
        )]);
        assert!(g
            .fns
            .iter()
            .any(|f| f.display() == "a::x::Sinkish::provided"));
        let req = idx(&g, "a::x::Holder::required");
        assert_eq!(g.fns[req].impl_trait.as_deref(), Some("Sinkish"));
        assert!(g.fns.iter().any(|f| f.display() == "a::x::generic"));
    }
}
