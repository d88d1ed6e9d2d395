//! The five project-invariant lints (C1–C5) and the pragma machinery.
//!
//! Every hard guarantee the pipeline sells — byte-identical reports across
//! cached seals, restarts, and streaming-vs-batch — is enforced dynamically by
//! equality gates over sampled seeds. These lints enforce the *source-level*
//! discipline those gates rely on, so a refactor cannot silently reintroduce
//! a panic path or an order-dependent iteration between two CI samples:
//!
//! | id | invariant |
//! |----|-----------|
//! | C1 | panic-free library: no `unwrap`/`expect`/`panic!`-family macros or direct `[...]` indexing in non-test pipeline code — typed `MonitorError` instead |
//! | C2 | deterministic iteration: no `HashMap`/`HashSet` in modules feeding `Report`s, events, JSON summaries, or scoring — `BTreeMap`/sorted vectors instead |
//! | C3 | no wall clock: `Instant::now`/`SystemTime` only in the designated timings module (and the bench crate) |
//! | C4 | crate hygiene: every `lib.rs` carries `#![forbid(unsafe_code)]` and `#![deny(warnings)]` |
//! | C5 | float total order: no `partial_cmp(..).unwrap()` — `f64::total_cmp` (or the approved helper module) instead |
//!
//! A finding is suppressed only by an inline pragma on the same line or the
//! line directly above:
//!
//! ```text
//! // conformance: allow(C2, reason = "lookup-only index; never iterated")
//! ```
//!
//! Pragmas are themselves checked: a malformed pragma (unknown lint, missing
//! or empty reason) and a pragma that suppresses nothing are both findings —
//! stale allows rot into folklore otherwise. Everything here is line- and
//! token-based on the loss-free [`lexer`](crate::lexer) stream; `#[cfg(test)]`
//! items are skipped wholesale, string literals and comments can never fire.

use crate::lexer::{lex, Token, TokenKind};

/// Bumped whenever a lint's definition, scope, or the pragma grammar
/// changes; committed into `CONFORMANCE.json` so drift is visible.
///
/// Version history:
/// * 1 — initial C1–C5 set over `src/` and the report/scoring crates.
/// * 2 — alerting daemon in scope: C1 and C2 also cover
///   `crates/serve/src/` (the alert fold is on the determinism-critical
///   path and must stay panic-free).
/// * 3 — persistence layer in scope: C1 and C2 also cover
///   `crates/store/src/` (corrupt checkpoints and logs must surface as
///   typed errors, never panics, and record iteration must be
///   deterministic). C4 covered it already via its `lib.rs`.
/// * 4 — trajectory index in scope: C2 also covers
///   `crates/qos/src/grid.rs` (its queries feed every verdict's vicinity
///   count, so its iteration order must be deterministic).
pub const LINT_SET_VERSION: u32 = 4;

/// Static description of one lint, for reports and docs.
#[derive(Debug, Clone, Copy)]
pub struct LintSpec {
    /// Stable id (`C1`..`C5`, plus the internal `pragma` hygiene lint).
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-sentence invariant statement.
    pub invariant: &'static str,
}

/// The lint table, in report order.
pub const LINTS: &[LintSpec] = &[
    LintSpec {
        id: "C1",
        name: "panic-free-library",
        invariant: "pipeline library code must not panic: no unwrap/expect, \
                    no panic!/unreachable!/todo!/unimplemented!, no direct \
                    indexing; fallibility is a typed MonitorError",
    },
    LintSpec {
        id: "C2",
        name: "deterministic-iteration",
        invariant: "modules feeding reports, events, JSON summaries, or \
                    scoring must not use HashMap/HashSet; BTreeMap or sorted \
                    vectors keep iteration order deterministic",
    },
    LintSpec {
        id: "C3",
        name: "no-wallclock",
        invariant: "Instant::now/SystemTime only in the designated timings \
                    module and the bench crate; reports must be a pure \
                    function of their inputs",
    },
    LintSpec {
        id: "C4",
        name: "crate-hygiene",
        invariant: "every lib.rs carries #![forbid(unsafe_code)] and \
                    #![deny(warnings)]",
    },
    LintSpec {
        id: "C5",
        name: "float-total-order",
        invariant: "no bare partial_cmp(..).unwrap()/.expect(); use \
                    f64::total_cmp or the approved helper \
                    (crates/analytic/src/order.rs)",
    },
    LintSpec {
        id: "pragma",
        name: "pragma-hygiene",
        invariant: "every conformance pragma parses, names a known lint, \
                    carries a non-empty reason, and suppresses something",
    },
];

/// Modules on the report/event/scoring path — the C2 scope. A file is in
/// scope when its normalized repo-relative path starts with one of these.
const C2_SCOPE: &[&str] = &[
    "src/pipeline/",
    "crates/baselines/src/",
    "crates/eval/src/",
    "crates/simulator/src/score.rs",
    "crates/simulator/src/runner.rs",
    "crates/core/src/characterize.rs",
    "crates/core/src/table.rs",
    "crates/qos/src/grid.rs",
    "crates/network/src/report.rs",
    "crates/serve/src/",
    "crates/store/src/",
];

/// The only places allowed to read the wall clock.
const C3_ALLOWED: &[&str] = &["src/pipeline/timings.rs", "crates/bench/"];

/// The approved total-order helper module (C5).
const C5_ALLOWED: &[&str] = &["crates/analytic/src/order.rs"];

/// Panicking macros forbidden by C1 (each must be followed by `!`).
const C1_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that may legally precede a `[` without forming an index
/// expression (`let [a, b] = ...`, `in [1, 2]`, `return [x]`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "else", "match", "return", "as", "move", "static", "const",
    "break", "continue", "await", "dyn", "where", "impl", "for", "fn", "use", "pub", "struct",
    "enum", "union", "type", "trait", "unsafe", "extern", "crate", "box", "yield",
];

/// One violation, pointing at a file, line, and lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Lint id (`C1`..`C5`, `pragma`).
    pub lint: &'static str,
    /// Human-readable description of this occurrence.
    pub message: String,
}

/// One *used* suppression pragma, counted and reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line of the pragma comment.
    pub line: u32,
    /// Lint id it suppresses.
    pub lint: &'static str,
    /// The written justification.
    pub reason: String,
}

/// Which lints apply to a path. Everything under `src/` and `crates/*/src/`
/// is scanned; shim crates only participate in C4 (they stand in for
/// external dependencies and keep their own idioms).
#[derive(Debug, Clone, Copy)]
struct Scope {
    c1: bool,
    c2: bool,
    c3: bool,
    c4: bool,
    c5: bool,
}

fn scope_of(path: &str) -> Scope {
    let shim = path.starts_with("shims/");
    Scope {
        c1: path.starts_with("src/")
            || path.starts_with("crates/serve/src/")
            || path.starts_with("crates/store/src/"),
        c2: !shim && C2_SCOPE.iter().any(|p| path.starts_with(p)),
        c3: !shim && !C3_ALLOWED.iter().any(|p| path.starts_with(p)),
        c4: path.ends_with("lib.rs"),
        c5: !shim && !C5_ALLOWED.iter().any(|p| path.starts_with(p)),
    }
}

/// A parsed `// conformance: allow(...)` pragma.
#[derive(Debug)]
struct Pragma {
    line: u32,
    lint: &'static str,
    reason: String,
    used: bool,
}

/// Analyzes one file; returns its findings (already pragma-filtered) and
/// the pragmas that earned their keep.
pub fn analyze_source(path: &str, src: &str) -> (Vec<Finding>, Vec<Allow>) {
    let scope = scope_of(path);
    let tokens = lex(src);
    // Indices of code tokens (everything the lints may fire on).
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| {
            !matches!(
                tokens[i].kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let in_test = test_regions(src, &tokens, &code);

    let mut findings: Vec<Finding> = Vec::new();
    let mut pragmas = collect_pragmas(path, src, &tokens, &mut findings);

    let mut fire = |findings: &mut Vec<Finding>, line: u32, lint: &'static str, message: String| {
        findings.push(Finding {
            file: path.to_string(),
            line,
            lint,
            message,
        });
    };

    for (ci, &ti) in code.iter().enumerate() {
        if in_test[ci] {
            continue;
        }
        let tok = &tokens[ti];
        let t = tok.text(src);

        if scope.c1 {
            check_c1(&mut findings, &code, &tokens, src, ci, tok, t, &mut fire);
        }
        if scope.c2 && tok.kind == TokenKind::Ident && (t == "HashMap" || t == "HashSet") {
            fire(
                &mut findings,
                tok.line,
                "C2",
                format!(
                    "{t} in a determinism-critical module; use BTreeMap/BTreeSet or sorted vectors"
                ),
            );
        }
        if scope.c3 && tok.kind == TokenKind::Ident {
            if t == "SystemTime" {
                fire(
                    &mut findings,
                    tok.line,
                    "C3",
                    "SystemTime outside the designated timings module".to_string(),
                );
            } else if t == "Instant"
                && text_eq(&code, &tokens, src, ci + 1, ":")
                && text_eq(&code, &tokens, src, ci + 2, ":")
                && text_eq(&code, &tokens, src, ci + 3, "now")
            {
                fire(
                    &mut findings,
                    tok.line,
                    "C3",
                    "Instant::now outside the designated timings module".to_string(),
                );
            }
        }
        if scope.c5 && tok.kind == TokenKind::Ident && t == "partial_cmp" {
            if let Some(line) = c5_unwrapped_partial_cmp(&code, &tokens, src, ci) {
                fire(
                    &mut findings,
                    line,
                    "C5",
                    "partial_cmp(..).unwrap()/.expect(); use f64::total_cmp (NaN-total, deterministic)"
                        .to_string(),
                );
            }
        }
    }

    if scope.c4 {
        if !has_attr_call(&code, &tokens, src, "forbid", "unsafe_code") {
            fire(
                &mut findings,
                1,
                "C4",
                "lib.rs is missing #![forbid(unsafe_code)]".to_string(),
            );
        }
        if !has_attr_call(&code, &tokens, src, "deny", "warnings") {
            fire(
                &mut findings,
                1,
                "C4",
                "lib.rs is missing #![deny(warnings)]".to_string(),
            );
        }
    }

    // Pragma application: a pragma covers its own line and the next one.
    findings.retain(|f| {
        !pragmas.iter_mut().any(|p| {
            let hits = p.lint == f.lint && (p.line == f.line || p.line + 1 == f.line);
            if hits {
                p.used = true;
            }
            hits
        })
    });
    for p in &pragmas {
        if !p.used {
            findings.push(Finding {
                file: path.to_string(),
                line: p.line,
                lint: "pragma",
                message: format!(
                    "unused allow({}) pragma — nothing to suppress on this or the next line",
                    p.lint
                ),
            });
        }
    }

    let allows = pragmas
        .into_iter()
        .filter(|p| p.used)
        .map(|p| Allow {
            file: path.to_string(),
            line: p.line,
            lint: p.lint,
            reason: p.reason,
        })
        .collect();
    (findings, allows)
}

/// C1 checks at one code token: panicking calls, macros, and indexing.
#[allow(clippy::too_many_arguments)]
fn check_c1(
    findings: &mut Vec<Finding>,
    code: &[usize],
    tokens: &[Token],
    src: &str,
    ci: usize,
    tok: &Token,
    t: &str,
    fire: &mut impl FnMut(&mut Vec<Finding>, u32, &'static str, String),
) {
    match tok.kind {
        TokenKind::Ident if (t == "unwrap" || t == "expect") => {
            let after_dot = ci > 0 && text_eq(code, tokens, src, ci - 1, ".");
            let called = text_eq(code, tokens, src, ci + 1, "(");
            if after_dot && called {
                fire(
                    findings,
                    tok.line,
                    "C1",
                    format!(".{t}() in pipeline library code; return a typed MonitorError"),
                );
            }
        }
        TokenKind::Ident if C1_MACROS.contains(&t) && text_eq(code, tokens, src, ci + 1, "!") => {
            fire(
                findings,
                tok.line,
                "C1",
                format!("{t}! in pipeline library code; return a typed MonitorError"),
            );
        }
        TokenKind::Punct if t == "[" && ci > 0 => {
            let prev = &tokens[code[ci - 1]];
            let p = prev.text(src);
            let indexes = match prev.kind {
                TokenKind::Ident | TokenKind::RawIdent => !NON_INDEX_KEYWORDS.contains(&p),
                TokenKind::Punct => p == ")" || p == "]" || p == "?",
                _ => false,
            };
            if indexes {
                fire(
                    findings,
                    tok.line,
                    "C1",
                    format!("direct indexing `{p}[..]` in pipeline library code; use .get() with a typed error"),
                );
            }
        }
        _ => {}
    }
}

/// `code[ci]` exists and its text equals `s`.
fn text_eq(code: &[usize], tokens: &[Token], src: &str, ci: usize, s: &str) -> bool {
    code.get(ci).is_some_and(|&ti| tokens[ti].text(src) == s)
}

/// C5: at an ident `partial_cmp`, skip its balanced argument list and
/// report the line when `.unwrap(` / `.expect(` follows.
fn c5_unwrapped_partial_cmp(code: &[usize], tokens: &[Token], src: &str, ci: usize) -> Option<u32> {
    let mut i = ci + 1;
    if !text_eq(code, tokens, src, i, "(") {
        return None; // bare path mention, not a call
    }
    let mut depth = 0usize;
    while let Some(&ti) = code.get(i) {
        match tokens[ti].text(src) {
            "(" => depth += 1,
            ")" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    let dot = i + 1;
    if text_eq(code, tokens, src, dot, ".")
        && (text_eq(code, tokens, src, dot + 1, "unwrap")
            || text_eq(code, tokens, src, dot + 1, "expect"))
        && text_eq(code, tokens, src, dot + 2, "(")
    {
        return Some(tokens[code[ci]].line);
    }
    None
}

/// Whether the token stream contains `name ( .. arg .. )` — the loose shape
/// of `#![name(arg)]`, tolerant of multi-argument attribute lists.
fn has_attr_call(code: &[usize], tokens: &[Token], src: &str, name: &str, arg: &str) -> bool {
    for (ci, &ti) in code.iter().enumerate() {
        if tokens[ti].kind != TokenKind::Ident || tokens[ti].text(src) != name {
            continue;
        }
        if !text_eq(code, tokens, src, ci + 1, "(") {
            continue;
        }
        let mut depth = 0usize;
        let mut i = ci + 1;
        while let Some(&tj) = code.get(i) {
            match tokens[tj].text(src) {
                "(" => depth += 1,
                ")" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                t if tokens[tj].kind == TokenKind::Ident && t == arg => return true,
                _ => {}
            }
            i += 1;
        }
    }
    false
}

/// Marks, per code token, whether it sits inside a `#[cfg(test)]` item
/// (attribute included). The scan finds the exact token sequence
/// `# [ cfg ( test ) ]`, skips any further attributes, then swallows the
/// annotated item: up to the matching `}` of its first brace block, or to
/// the terminating `;` for braceless items.
fn test_regions(src: &str, tokens: &[Token], code: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let t = |ci: usize| code.get(ci).map(|&ti| tokens[ti].text(src));
    let mut ci = 0;
    while ci < code.len() {
        let is_cfg_test = t(ci) == Some("#")
            && t(ci + 1) == Some("[")
            && t(ci + 2) == Some("cfg")
            && t(ci + 3) == Some("(")
            && t(ci + 4) == Some("test")
            && t(ci + 5) == Some(")")
            && t(ci + 6) == Some("]");
        if !is_cfg_test {
            ci += 1;
            continue;
        }
        let start = ci;
        let mut i = ci + 7;
        // Skip further attributes on the same item.
        while t(i) == Some("#") && t(i + 1) == Some("[") {
            let mut depth = 0usize;
            i += 1;
            while let Some(tok) = t(i) {
                match tok {
                    "[" => depth += 1,
                    "]" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            i += 1;
        }
        // Swallow the item: first `{ .. }` block at depth 0, or up to `;`.
        let mut brace = 0usize;
        while let Some(tok) = t(i) {
            match tok {
                "{" => brace += 1,
                "}" => {
                    brace = brace.saturating_sub(1);
                    if brace == 0 {
                        break;
                    }
                }
                ";" if brace == 0 => break,
                _ => {}
            }
            i += 1;
        }
        let end = i.min(code.len().saturating_sub(1));
        for m in &mut mask[start..=end] {
            *m = true;
        }
        ci = i + 1;
    }
    mask
}

/// Extracts pragmas from line comments; malformed ones become `pragma`
/// findings immediately.
fn collect_pragmas(
    path: &str,
    src: &str,
    tokens: &[Token],
    findings: &mut Vec<Finding>,
) -> Vec<Pragma> {
    let mut out = Vec::new();
    for tok in tokens {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let body = tok.text(src).trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("conformance:") else {
            continue;
        };
        match parse_allow(rest.trim()) {
            Ok((lint, reason)) => out.push(Pragma {
                line: tok.line,
                lint,
                reason,
                used: false,
            }),
            Err(why) => findings.push(Finding {
                file: path.to_string(),
                line: tok.line,
                lint: "pragma",
                message: format!("malformed conformance pragma: {why}"),
            }),
        }
    }
    out
}

/// Parses `allow(<lint>, reason = "...")`.
fn parse_allow(s: &str) -> Result<(&'static str, String), String> {
    let s = s
        .strip_prefix("allow(")
        .ok_or_else(|| "expected `allow(<lint>, reason = \"...\")`".to_string())?;
    let s = s
        .strip_suffix(')')
        .ok_or_else(|| "missing closing `)`".to_string())?;
    let (lint_raw, rest) = s
        .split_once(',')
        .ok_or_else(|| "missing `, reason = \"...\"`".to_string())?;
    let lint_raw = lint_raw.trim();
    let lint = LINTS
        .iter()
        .map(|l| l.id)
        .find(|id| *id == lint_raw)
        .ok_or_else(|| format!("unknown lint `{lint_raw}`"))?;
    let rest = rest.trim();
    let rest = rest
        .strip_prefix("reason")
        .ok_or_else(|| "missing `reason`".to_string())?
        .trim_start()
        .strip_prefix('=')
        .ok_or_else(|| "missing `=` after `reason`".to_string())?
        .trim_start();
    let reason = rest
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| "reason must be a \"quoted\" string".to_string())?;
    if reason.trim().is_empty() {
        return Err("reason must not be empty".to_string());
    }
    Ok((lint, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_fired(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        let (findings, _) = analyze_source(path, src);
        findings.into_iter().map(|f| (f.lint, f.line)).collect()
    }

    #[test]
    fn scope_gates_by_path() {
        let src = "fn f(v: &Vec<u32>) -> u32 { v.first().copied().unwrap() }";
        assert_eq!(lints_fired("src/pipeline/monitor.rs", src), vec![("C1", 1)]);
        // The alerting daemon folds reports on the hot path: C1 applies.
        assert_eq!(
            lints_fired("crates/serve/src/sink.rs", src),
            vec![("C1", 1)]
        );
        // The persistence layer decodes untrusted bytes: C1 applies.
        assert_eq!(
            lints_fired("crates/store/src/codec.rs", src),
            vec![("C1", 1)]
        );
        // Outside the pipeline, C1 does not apply.
        assert_eq!(lints_fired("crates/core/src/observer.rs", src), vec![]);
    }

    #[test]
    fn store_is_in_the_c2_scope() {
        let src = "use std::collections::HashSet;\n";
        assert_eq!(lints_fired("crates/store/src/log.rs", src), vec![("C2", 1)]);
    }

    #[test]
    fn serve_is_in_the_c2_scope() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            lints_fired("crates/serve/src/alerts.rs", src),
            vec![("C2", 1)]
        );
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src =
            "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn f() { None::<u32>.unwrap(); }\n}\n";
        assert_eq!(lints_fired("src/pipeline/monitor.rs", src), vec![]);
    }

    #[test]
    fn pragma_suppresses_and_is_counted_once() {
        let src =
            "// conformance: allow(C2, reason = \"lookup-only\")\nuse std::collections::HashMap;\n";
        let (findings, allows) = analyze_source("src/pipeline/monitor.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].lint, "C2");
        assert_eq!(allows[0].reason, "lookup-only");
    }

    #[test]
    fn unused_and_malformed_pragmas_are_findings() {
        let unused = "// conformance: allow(C1, reason = \"nothing here\")\nfn ok() {}\n";
        assert_eq!(
            lints_fired("src/pipeline/monitor.rs", unused),
            vec![("pragma", 1)]
        );
        let malformed = "// conformance: allow(C9, reason = \"no such lint\")\n";
        assert_eq!(
            lints_fired("src/pipeline/monitor.rs", malformed),
            vec![("pragma", 1)]
        );
        let reasonless = "// conformance: allow(C1)\n";
        assert_eq!(
            lints_fired("src/pipeline/monitor.rs", reasonless),
            vec![("pragma", 1)]
        );
    }

    #[test]
    fn vec_macro_and_attributes_are_not_indexing() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f(n: usize) -> Vec<bool> { vec![false; n] }\n";
        assert_eq!(lints_fired("src/pipeline/events.rs", src), vec![]);
    }

    #[test]
    fn slice_patterns_are_not_indexing_but_chained_calls_are() {
        assert_eq!(
            lints_fired(
                "src/pipeline/events.rs",
                "fn f(a: (u8, u8)) { let [_x, _y] = [a.0, a.1]; }"
            ),
            vec![]
        );
        assert_eq!(
            lints_fired(
                "src/pipeline/events.rs",
                "fn f(v: Vec<u8>) -> u8 { v.to_vec()[0] }"
            ),
            vec![("C1", 1)]
        );
    }

    #[test]
    fn c5_fires_on_unwrapped_partial_cmp_only() {
        let bad = "fn f(a: f64, b: f64) -> std::cmp::Ordering { a.partial_cmp(&b).unwrap() }";
        assert_eq!(
            lints_fired("crates/core/src/maximal.rs", bad),
            vec![("C5", 1)]
        );
        let good = "fn f(a: f64, b: f64) -> std::cmp::Ordering { a.total_cmp(&b) }";
        assert_eq!(lints_fired("crates/core/src/maximal.rs", good), vec![]);
        let fallback = "fn f(a: f64, b: f64) -> Option<std::cmp::Ordering> { a.partial_cmp(&b) }";
        assert_eq!(lints_fired("crates/core/src/maximal.rs", fallback), vec![]);
        // The approved helper module is exempt.
        assert_eq!(lints_fired("crates/analytic/src/order.rs", bad), vec![]);
    }

    #[test]
    fn c3_allows_the_timings_module_and_bench() {
        let src = "fn f() { let _t = std::time::Instant::now(); }";
        assert_eq!(lints_fired("crates/qos/src/grid.rs", src), vec![("C3", 1)]);
        assert_eq!(lints_fired("src/pipeline/timings.rs", src), vec![]);
        assert_eq!(lints_fired("crates/bench/src/bin/engine.rs", src), vec![]);
    }

    #[test]
    fn c4_requires_both_attributes() {
        let both = "#![forbid(unsafe_code)]\n#![deny(warnings)]\n";
        assert_eq!(lints_fired("crates/qos/src/lib.rs", both), vec![]);
        let one = "#![forbid(unsafe_code)]\n";
        assert_eq!(lints_fired("crates/qos/src/lib.rs", one), vec![("C4", 1)]);
        // Non-lib files carry no such requirement.
        assert_eq!(lints_fired("crates/qos/src/grid.rs", ""), vec![]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "// HashMap in prose, .unwrap() in prose\nfn f() -> &'static str { \"panic! HashMap Instant::now SystemTime\" }\n";
        assert_eq!(lints_fired("src/pipeline/monitor.rs", src), vec![]);
    }
}
